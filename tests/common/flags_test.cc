#include "common/flags.h"

#include <gtest/gtest.h>

namespace omnimatch {
namespace {

std::vector<char*> MakeArgv(std::vector<std::string>& storage) {
  std::vector<char*> argv;
  for (auto& s : storage) argv.push_back(s.data());
  return argv;
}

TEST(FlagParserTest, EqualsSyntax) {
  std::vector<std::string> args = {"prog", "--seed=42", "--name=amazon"};
  auto argv = MakeArgv(args);
  FlagParser p;
  ASSERT_TRUE(p.Parse(static_cast<int>(argv.size()), argv.data()).ok());
  EXPECT_EQ(p.GetInt("seed", 0), 42);
  EXPECT_EQ(p.GetString("name", ""), "amazon");
}

TEST(FlagParserTest, SpaceSyntax) {
  std::vector<std::string> args = {"prog", "--epochs", "7"};
  auto argv = MakeArgv(args);
  FlagParser p;
  ASSERT_TRUE(p.Parse(static_cast<int>(argv.size()), argv.data()).ok());
  EXPECT_EQ(p.GetInt("epochs", 0), 7);
}

TEST(FlagParserTest, BareFlagIsTrue) {
  std::vector<std::string> args = {"prog", "--verbose"};
  auto argv = MakeArgv(args);
  FlagParser p;
  ASSERT_TRUE(p.Parse(static_cast<int>(argv.size()), argv.data()).ok());
  EXPECT_TRUE(p.GetBool("verbose", false));
  EXPECT_TRUE(p.Has("verbose"));
  EXPECT_FALSE(p.Has("quiet"));
}

TEST(FlagParserTest, DefaultsWhenAbsent) {
  std::vector<std::string> args = {"prog"};
  auto argv = MakeArgv(args);
  FlagParser p;
  ASSERT_TRUE(p.Parse(static_cast<int>(argv.size()), argv.data()).ok());
  EXPECT_EQ(p.GetInt("seed", 17), 17);
  EXPECT_DOUBLE_EQ(p.GetDouble("alpha", 0.2), 0.2);
  EXPECT_FALSE(p.GetBool("verbose", false));
}

TEST(FlagParserTest, PositionalArguments) {
  std::vector<std::string> args = {"prog", "input.csv", "--seed=1", "out.csv"};
  auto argv = MakeArgv(args);
  FlagParser p;
  ASSERT_TRUE(p.Parse(static_cast<int>(argv.size()), argv.data()).ok());
  ASSERT_EQ(p.positional().size(), 2u);
  EXPECT_EQ(p.positional()[0], "input.csv");
  EXPECT_EQ(p.positional()[1], "out.csv");
}

TEST(FlagParserTest, DoubleValues) {
  std::vector<std::string> args = {"prog", "--alpha=0.35"};
  auto argv = MakeArgv(args);
  FlagParser p;
  ASSERT_TRUE(p.Parse(static_cast<int>(argv.size()), argv.data()).ok());
  EXPECT_NEAR(p.GetDouble("alpha", 0.0), 0.35, 1e-12);
}

TEST(FlagParserTest, BareDoubleDashRejected) {
  std::vector<std::string> args = {"prog", "--"};
  auto argv = MakeArgv(args);
  FlagParser p;
  EXPECT_FALSE(p.Parse(static_cast<int>(argv.size()), argv.data()).ok());
}

TEST(FlagParserTest, NegativeAndScientificNumbersParse) {
  std::vector<std::string> args = {"prog", "--offset=-3", "--lr=2e-3"};
  auto argv = MakeArgv(args);
  FlagParser p;
  ASSERT_TRUE(p.Parse(static_cast<int>(argv.size()), argv.data()).ok());
  EXPECT_EQ(p.GetInt("offset", 0), -3);
  EXPECT_NEAR(p.GetDouble("lr", 0.0), 2e-3, 1e-15);
}

// Malformed numeric flags must fail loudly, naming the flag — the old atoi
// path silently returned 0, so --threads=abc trained on a zero-thread pool.
class FlagParserDeathTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // The process may have running threads (the compute pool); fork+exec
    // style death tests stay safe under TSan.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  }

  FlagParser ParseOne(const std::string& flag) {
    storage_ = {"prog", flag};
    auto argv = MakeArgv(storage_);
    FlagParser p;
    EXPECT_TRUE(p.Parse(static_cast<int>(argv.size()), argv.data()).ok());
    return p;
  }

 private:
  std::vector<std::string> storage_;
};

TEST_F(FlagParserDeathTest, MalformedIntExitsNamingTheFlag) {
  FlagParser p = ParseOne("--threads=abc");
  EXPECT_EXIT(p.GetInt("threads", 0), ::testing::ExitedWithCode(2),
              "invalid value \"abc\" for flag --threads");
}

TEST_F(FlagParserDeathTest, TrailingGarbageIntExits) {
  FlagParser p = ParseOne("--epochs=12abc");
  EXPECT_EXIT(p.GetInt("epochs", 0), ::testing::ExitedWithCode(2),
              "invalid value \"12abc\" for flag --epochs");
}

TEST_F(FlagParserDeathTest, OverflowingIntExits) {
  FlagParser p = ParseOne("--seed=99999999999999999999");
  EXPECT_EXIT(p.GetInt("seed", 0), ::testing::ExitedWithCode(2),
              "flag --seed");
}

TEST_F(FlagParserDeathTest, MalformedDoubleExitsNamingTheFlag) {
  FlagParser p = ParseOne("--alpha=0.2x");
  EXPECT_EXIT(p.GetDouble("alpha", 0.0), ::testing::ExitedWithCode(2),
              "invalid value \"0.2x\" for flag --alpha");
}

// An unread flag is a typo or an unsupported option: the binary must exit
// naming it instead of running as if it were absent.
TEST_F(FlagParserDeathTest, UnreadFlagExitsNamingIt) {
  FlagParser p = ParseOne("--definitely_not_a_flag=7");
  p.GetInt("threads", 0);
  EXPECT_EXIT(p.RejectUnreadFlags(), ::testing::ExitedWithCode(2),
              "unknown flag --definitely_not_a_flag");
  FlagParser q = ParseOne("--resume");
  EXPECT_TRUE(q.Has("resume"));
  q.RejectUnreadFlags();  // every given flag was read: returns
}

TEST_F(FlagParserDeathTest, EmptyNumericValueExits) {
  FlagParser p = ParseOne("--batch=");
  EXPECT_EXIT(p.GetInt("batch", 0), ::testing::ExitedWithCode(2),
              "flag --batch");
}

}  // namespace
}  // namespace omnimatch
