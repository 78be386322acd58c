#include "nn/gemm.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/threadpool.h"

namespace omnimatch {
namespace nn {
namespace {

std::vector<float> RandomVec(size_t n, Rng* rng) {
  std::vector<float> v(n);
  for (float& x : v) x = rng->UniformFloat(-1.0f, 1.0f);
  return v;
}

/// The blocked kernels must match the naive reference within float
/// round-off on every shape, including degenerate and off-tile ones.
const int kDims[] = {1, 3, 17, 64, 65};

float MaxAbsDiff(const std::vector<float>& a, const std::vector<float>& b) {
  float worst = 0.0f;
  for (size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::abs(a[i] - b[i]));
  }
  return worst;
}

TEST(GemmTest, NNMatchesReferenceOnAllShapes) {
  Rng rng(11);
  for (int m : kDims) {
    for (int k : kDims) {
      for (int n : kDims) {
        std::vector<float> a = RandomVec(static_cast<size_t>(m) * k, &rng);
        std::vector<float> b = RandomVec(static_cast<size_t>(k) * n, &rng);
        // Accumulation contract: C += A*B on top of existing contents.
        std::vector<float> c0 = RandomVec(static_cast<size_t>(m) * n, &rng);
        std::vector<float> want = c0, got = c0;
        reference::GemmNN(a.data(), b.data(), want.data(), m, k, n);
        GemmNN(a.data(), b.data(), got.data(), m, k, n);
        EXPECT_LE(MaxAbsDiff(want, got), 1e-4f)
            << "shape " << m << "x" << k << "x" << n;
      }
    }
  }
}

TEST(GemmTest, NTMatchesReferenceOnAllShapes) {
  Rng rng(12);
  for (int m : kDims) {
    for (int k : kDims) {
      for (int n : kDims) {
        std::vector<float> a = RandomVec(static_cast<size_t>(m) * k, &rng);
        std::vector<float> b = RandomVec(static_cast<size_t>(n) * k, &rng);
        std::vector<float> want(static_cast<size_t>(m) * n, 0.0f);
        std::vector<float> got = want;
        reference::GemmNT(a.data(), b.data(), want.data(), m, k, n);
        GemmNT(a.data(), b.data(), got.data(), m, k, n);
        EXPECT_LE(MaxAbsDiff(want, got), 1e-4f)
            << "shape " << m << "x" << k << "x" << n;
      }
    }
  }
}

TEST(GemmTest, TNMatchesReferenceOnAllShapes) {
  Rng rng(13);
  for (int m : kDims) {
    for (int k : kDims) {
      for (int n : kDims) {
        std::vector<float> a = RandomVec(static_cast<size_t>(k) * m, &rng);
        std::vector<float> b = RandomVec(static_cast<size_t>(k) * n, &rng);
        std::vector<float> want(static_cast<size_t>(m) * n, 0.0f);
        std::vector<float> got = want;
        reference::GemmTN(a.data(), b.data(), want.data(), m, k, n);
        GemmTN(a.data(), b.data(), got.data(), m, k, n);
        EXPECT_LE(MaxAbsDiff(want, got), 1e-4f)
            << "shape " << m << "x" << k << "x" << n;
      }
    }
  }
}

TEST(GemmTest, StridedNTMatchesReferenceWithOverlappingRows) {
  // The text conv's sliding windows: lda = embed < K, rows overlap.
  Rng rng(14);
  int embed = 8, kernel = 3, length = 20, channels = 5;
  int windows = length - kernel + 1;
  int filter_len = kernel * embed;
  std::vector<float> doc =
      RandomVec(static_cast<size_t>(length) * embed, &rng);
  std::vector<float> w =
      RandomVec(static_cast<size_t>(channels) * filter_len, &rng);
  std::vector<float> want(static_cast<size_t>(windows) * channels, 0.0f);
  std::vector<float> got = want;
  reference::GemmNTStrided(doc.data(), embed, w.data(), want.data(), windows,
                           filter_len, channels);
  GemmNTStrided(doc.data(), embed, w.data(), got.data(), windows, filter_len,
                channels);
  EXPECT_LE(MaxAbsDiff(want, got), 1e-4f);
}

TEST(GemmTest, BitIdenticalAcrossThreadCounts) {
  // The substrate's core guarantee: the pool size never changes a single
  // bit of the output.
  Rng rng(15);
  int m = 173, k = 301, n = 129;  // off-tile on every axis
  std::vector<float> a = RandomVec(static_cast<size_t>(m) * k, &rng);
  std::vector<float> b = RandomVec(static_cast<size_t>(k) * n, &rng);
  int before = GetNumThreads();
  std::vector<float> golden;
  for (int threads : {1, 2, 3, 4, 8}) {
    SetNumThreads(threads);
    std::vector<float> c(static_cast<size_t>(m) * n, 0.0f);
    GemmNN(a.data(), b.data(), c.data(), m, k, n);
    if (golden.empty()) {
      golden = c;
    } else {
      ASSERT_EQ(golden, c) << "GemmNN differs at " << threads << " threads";
    }
  }
  SetNumThreads(before);
}

TEST(GemmTest, LargeKAccumulatesInBlockOrder) {
  // K spans multiple kKC blocks; verify against the reference within
  // round-off (the blocked kernel sums K in ascending block order).
  Rng rng(16);
  int m = 9, k = 700, n = 33;
  std::vector<float> a = RandomVec(static_cast<size_t>(m) * k, &rng);
  std::vector<float> b = RandomVec(static_cast<size_t>(k) * n, &rng);
  std::vector<float> want(static_cast<size_t>(m) * n, 0.0f);
  std::vector<float> got = want;
  reference::GemmNN(a.data(), b.data(), want.data(), m, k, n);
  GemmNN(a.data(), b.data(), got.data(), m, k, n);
  EXPECT_LE(MaxAbsDiff(want, got), 5e-4f);
}

TEST(GemmTest, RowsBitIdenticalAloneOrInBatchAcrossKBlocks) {
  // Serving's row-independence contract: a row of C must not depend on how
  // many other rows share the call, also when K spans several kKC blocks
  // and C starts non-zero (backward accumulates into gradients). A row
  // alone is an edge tile; inside M = 8 it is part of a full tile.
  Rng rng(17);
  for (int k : {300, 700}) {
    for (int n : {40, 64}) {
      for (int m : {5, 8, 9, 17}) {
        for (bool zero_c : {true, false}) {
          const size_t mk = static_cast<size_t>(m) * k;
          const size_t mn = static_cast<size_t>(m) * n;
          std::vector<float> a = RandomVec(mk, &rng);
          std::vector<float> b_kn = RandomVec(static_cast<size_t>(k) * n, &rng);
          std::vector<float> b_nk = RandomVec(static_cast<size_t>(n) * k, &rng);
          std::vector<float> c0 =
              zero_c ? std::vector<float>(mn, 0.0f) : RandomVec(mn, &rng);
          // GemmTN reads A stored [K, M]; row r of the product is column r.
          std::vector<float> a_km(mk);
          for (int r = 0; r < m; ++r) {
            for (int i = 0; i < k; ++i) {
              a_km[static_cast<size_t>(i) * m + r] =
                  a[static_cast<size_t>(r) * k + i];
            }
          }
          std::vector<float> nn = c0, nt = c0, tn = c0;
          GemmNN(a.data(), b_kn.data(), nn.data(), m, k, n);
          GemmNT(a.data(), b_nk.data(), nt.data(), m, k, n);
          GemmTN(a_km.data(), b_kn.data(), tn.data(), m, k, n);
          for (int r = 0; r < m; ++r) {
            const float* a_row = a.data() + static_cast<size_t>(r) * k;
            const auto c_row = c0.begin() + static_cast<ptrdiff_t>(r) * n;
            std::vector<float> nn1(c_row, c_row + n), nt1 = nn1, tn1 = nn1;
            GemmNN(a_row, b_kn.data(), nn1.data(), 1, k, n);
            GemmNT(a_row, b_nk.data(), nt1.data(), 1, k, n);
            GemmTN(a_row, b_kn.data(), tn1.data(), 1, k, n);
            const auto row = [&](const std::vector<float>& c) {
              const auto begin = c.begin() + static_cast<ptrdiff_t>(r) * n;
              return std::vector<float>(begin, begin + n);
            };
            const std::string where = "k=" + std::to_string(k) +
                                      " n=" + std::to_string(n) +
                                      " m=" + std::to_string(m) +
                                      " row=" + std::to_string(r) +
                                      (zero_c ? " zero C" : " non-zero C");
            ASSERT_EQ(row(nn), nn1) << "GemmNN " << where;
            ASSERT_EQ(row(nt), nt1) << "GemmNT " << where;
            ASSERT_EQ(row(tn), tn1) << "GemmTN " << where;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace nn
}  // namespace omnimatch
