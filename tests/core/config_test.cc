#include "core/config.h"

#include <gtest/gtest.h>

namespace omnimatch {
namespace core {
namespace {

TEST(ConfigTest, DefaultsAreValid) {
  OmniMatchConfig config;
  EXPECT_TRUE(config.Validate().ok()) << config.Validate().ToString();
}

TEST(ConfigTest, RejectsBadEmbedDim) {
  OmniMatchConfig config;
  config.embed_dim = 0;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(ConfigTest, RejectsKernelLargerThanDoc) {
  OmniMatchConfig config;
  config.doc_len = 4;
  config.kernel_sizes = {5};
  EXPECT_FALSE(config.Validate().ok());
}

TEST(ConfigTest, RejectsEmptyKernels) {
  OmniMatchConfig config;
  config.kernel_sizes.clear();
  EXPECT_FALSE(config.Validate().ok());
}

TEST(ConfigTest, RejectsDropoutOutOfRange) {
  OmniMatchConfig config;
  config.dropout = 1.0f;
  EXPECT_FALSE(config.Validate().ok());
  config.dropout = -0.1f;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(ConfigTest, RejectsBatchOfOne) {
  OmniMatchConfig config;
  config.batch_size = 1;  // SupCon needs pairs
  EXPECT_FALSE(config.Validate().ok());
}

TEST(ConfigTest, RejectsNegativeLossWeights) {
  OmniMatchConfig config;
  config.alpha = -0.1f;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(ConfigTest, RejectsNonPositiveTemperature) {
  OmniMatchConfig config;
  config.temperature = 0.0f;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(ConfigTest, RejectsBadRho) {
  OmniMatchConfig config;
  config.adadelta_rho = 1.0f;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(ConfigTest, ZeroEpochsAllowed) {
  OmniMatchConfig config;
  config.epochs = 0;  // prepare-only usage is legal
  EXPECT_TRUE(config.Validate().ok());
}

// The digest keys checkpoints, cached benchmark fixtures and the snapshot
// version that seeds online Algorithm 1 admission. Retiring a config field
// must keep a constant in its slot so these values never move.
TEST(ConfigTest, FingerprintIsPinned) {
  OmniMatchConfig config;
  EXPECT_EQ(config.Fingerprint(), 0x240c8e59b67edcc0ULL);
  config.seed = 1009;
  EXPECT_EQ(config.Fingerprint(), 0xab8ac7ef7fad141bULL);
}

}  // namespace
}  // namespace core
}  // namespace omnimatch
