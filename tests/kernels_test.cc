#include "common/kernels.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace fedrec {
namespace {

/// Lengths crossing every code-path boundary of the kernels: empty, shorter
/// than one SIMD lane group, exactly one group, odd tails, multiples and
/// non-multiples of the 8-lane and 16-lane unroll widths.
const std::size_t kLengths[] = {0, 1, 2, 3, 5, 7, 8, 9, 15, 16, 17,
                                24, 31, 32, 33, 63, 64, 100, 257};

std::vector<float> RandomVector(std::size_t n, Rng& rng) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.NextGaussian(0.0, 1.0));
  return v;
}

/// abs tolerance scaled mildly with length: each float product is O(1) here,
/// and reassociation error grows with the number of terms.
float Tolerance(std::size_t n) {
  return 1e-5f * static_cast<float>(n > 0 ? n : 1);
}

TEST(KernelsTest, DotMatchesScalarReference) {
  Rng rng(1);
  for (std::size_t n : kLengths) {
    const std::vector<float> a = RandomVector(n, rng);
    const std::vector<float> b = RandomVector(n, rng);
    const float reference = kernels::ScalarDot(a.data(), b.data(), n);
    const float vectorized = kernels::Dot(a.data(), b.data(), n);
    EXPECT_NEAR(vectorized, reference, Tolerance(n)) << "n=" << n;
  }
}

TEST(KernelsTest, DotEmptyIsZero) {
  EXPECT_EQ(kernels::Dot(nullptr, nullptr, 0), 0.0f);
  EXPECT_EQ(kernels::ScalarDot(nullptr, nullptr, 0), 0.0f);
}

TEST(KernelsTest, ShortDotAccumulatesInAscendingOrder) {
  // Lengths below one lane group accumulate in ascending index order like
  // ScalarDot (the detector's tiny-dimension feature extraction depends on
  // every row taking the identical operation sequence). The two compiled
  // functions may still differ by FP contraction (FMA in the dispatched
  // clone), so agreement is to within one fused rounding per term — and a
  // repeated call must be exactly deterministic.
  Rng rng(2);
  for (std::size_t n = 0; n < 8; ++n) {
    const std::vector<float> a = RandomVector(n, rng);
    const std::vector<float> b = RandomVector(n, rng);
    const float once = kernels::Dot(a.data(), b.data(), n);
    EXPECT_NEAR(once, kernels::ScalarDot(a.data(), b.data(), n), 1e-6f)
        << "n=" << n;
    EXPECT_EQ(once, kernels::Dot(a.data(), b.data(), n)) << "n=" << n;
  }
}

TEST(KernelsTest, AxpyMatchesScalarReference) {
  Rng rng(3);
  for (std::size_t n : kLengths) {
    const std::vector<float> x = RandomVector(n, rng);
    const std::vector<float> y0 = RandomVector(n, rng);
    std::vector<float> expected = y0;
    std::vector<float> actual = y0;
    kernels::ScalarAxpy(0.37f, x.data(), expected.data(), n);
    kernels::Axpy(0.37f, x.data(), actual.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(actual[i], expected[i], 1e-6f) << "n=" << n << " i=" << i;
    }
  }
}

TEST(KernelsTest, ScaleAndFill) {
  Rng rng(4);
  for (std::size_t n : kLengths) {
    std::vector<float> x = RandomVector(n, rng);
    std::vector<float> expected = x;
    for (auto& v : expected) v *= -2.5f;
    kernels::Scale(-2.5f, x.data(), n);
    EXPECT_EQ(x, expected) << "n=" << n;
    kernels::Fill(x.data(), 0.75f, n);
    for (float v : x) EXPECT_EQ(v, 0.75f);
  }
}

TEST(KernelsTest, L2NormSquaredMatchesScalarReference) {
  Rng rng(5);
  for (std::size_t n : kLengths) {
    const std::vector<float> x = RandomVector(n, rng);
    EXPECT_NEAR(kernels::L2NormSquared(x.data(), n),
                kernels::ScalarL2NormSquared(x.data(), n), Tolerance(n))
        << "n=" << n;
  }
}

TEST(KernelsTest, ScoreBlockMatchesScalarReferenceAcrossShapes) {
  Rng rng(6);
  // Users and items straddle the 4-user and 2-item register-tile widths; dims
  // straddle the 8-lane SIMD width, including odd tails.
  const std::size_t user_counts[] = {0, 1, 2, 3, 4, 5, 7, 8, 9};
  const std::size_t item_counts[] = {0, 1, 2, 3, 5, 8, 13};
  const std::size_t dims[] = {1, 3, 7, 8, 9, 16, 31, 32, 33};
  for (std::size_t nu : user_counts) {
    for (std::size_t ni : item_counts) {
      for (std::size_t dim : dims) {
        const std::vector<float> users = RandomVector(nu * dim, rng);
        const std::vector<float> items = RandomVector(ni * dim, rng);
        std::vector<float> expected(nu * ni, -1.0f);
        std::vector<float> actual(nu * ni, -1.0f);
        kernels::ScalarScoreBlock(users.data(), nu, items.data(), ni, dim,
                                  expected.data(), ni);
        kernels::ScoreBlock(users.data(), nu, items.data(), ni, dim,
                            actual.data(), ni);
        for (std::size_t i = 0; i < nu * ni; ++i) {
          EXPECT_NEAR(actual[i], expected[i], Tolerance(dim))
              << "nu=" << nu << " ni=" << ni << " dim=" << dim << " i=" << i;
        }
      }
    }
  }
}

TEST(KernelsTest, PackItemsLayoutAndPadding) {
  Rng rng(9);
  const std::size_t ni = 11, dim = 5;  // final group has 3 valid lanes
  const std::vector<float> items = RandomVector(ni * dim, rng);
  std::vector<float> packed(kernels::PackedItemsSize(ni, dim), -1.0f);
  kernels::PackItems(items.data(), ni, dim, packed.data());
  const std::size_t lanes = kernels::kScoreLanes;
  for (std::size_t j = 0; j < ni; ++j) {
    const std::size_t g = j / lanes, k = j % lanes;
    for (std::size_t d = 0; d < dim; ++d) {
      EXPECT_EQ(packed[(g * dim + d) * lanes + k], items[j * dim + d]);
    }
  }
  // Padding lanes of the final partial group are zeroed.
  for (std::size_t j = ni; j < 2 * lanes; ++j) {
    const std::size_t g = j / lanes, k = j % lanes;
    for (std::size_t d = 0; d < dim; ++d) {
      EXPECT_EQ(packed[(g * dim + d) * lanes + k], 0.0f);
    }
  }
}

TEST(KernelsTest, ScoreBlockPackedMatchesScalarReferenceAcrossShapes) {
  Rng rng(10);
  const std::size_t user_counts[] = {0, 1, 2, 3, 4, 5, 7, 8, 9};
  // Items straddle the 8-lane group width of the packed kernel.
  const std::size_t item_counts[] = {0, 1, 2, 7, 8, 9, 16, 17, 31};
  const std::size_t dims[] = {1, 3, 8, 9, 32, 33};
  for (std::size_t nu : user_counts) {
    for (std::size_t ni : item_counts) {
      for (std::size_t dim : dims) {
        const std::vector<float> users = RandomVector(nu * dim, rng);
        const std::vector<float> items = RandomVector(ni * dim, rng);
        std::vector<float> packed(kernels::PackedItemsSize(ni, dim));
        kernels::PackItems(items.data(), ni, dim, packed.data());
        std::vector<float> expected(nu * ni, -1.0f);
        std::vector<float> actual(nu * ni, -1.0f);
        kernels::ScalarScoreBlock(users.data(), nu, items.data(), ni, dim,
                                  expected.data(), ni);
        kernels::ScoreBlockPacked(users.data(), nu, packed.data(), ni, dim,
                                  actual.data(), ni);
        for (std::size_t i = 0; i < nu * ni; ++i) {
          EXPECT_NEAR(actual[i], expected[i], Tolerance(dim))
              << "nu=" << nu << " ni=" << ni << " dim=" << dim << " i=" << i;
        }
      }
    }
  }
}

TEST(KernelsTest, ScoreBlockPackedDoesNotWritePastValidItems) {
  Rng rng(11);
  const std::size_t nu = 5, ni = 13, dim = 8, stride = 16;
  const std::vector<float> users = RandomVector(nu * dim, rng);
  const std::vector<float> items = RandomVector(ni * dim, rng);
  std::vector<float> packed(kernels::PackedItemsSize(ni, dim));
  kernels::PackItems(items.data(), ni, dim, packed.data());
  std::vector<float> out(nu * stride, -123.0f);
  kernels::ScoreBlockPacked(users.data(), nu, packed.data(), ni, dim,
                            out.data(), stride);
  for (std::size_t u = 0; u < nu; ++u) {
    for (std::size_t j = ni; j < stride; ++j) {
      EXPECT_EQ(out[u * stride + j], -123.0f) << "u=" << u << " j=" << j;
    }
  }
}

TEST(KernelsTest, ScoreBlockRespectsOutputStride) {
  Rng rng(7);
  const std::size_t nu = 5, ni = 3, dim = 32, stride = 10;
  const std::vector<float> users = RandomVector(nu * dim, rng);
  const std::vector<float> items = RandomVector(ni * dim, rng);
  std::vector<float> out(nu * stride, -123.0f);
  kernels::ScoreBlock(users.data(), nu, items.data(), ni, dim, out.data(),
                      stride);
  for (std::size_t u = 0; u < nu; ++u) {
    for (std::size_t j = 0; j < stride; ++j) {
      if (j < ni) {
        const float expected = kernels::ScalarDot(
            users.data() + u * dim, items.data() + j * dim, dim);
        EXPECT_NEAR(out[u * stride + j], expected, Tolerance(dim));
      } else {
        // Padding between rows is never written.
        EXPECT_EQ(out[u * stride + j], -123.0f);
      }
    }
  }
}

TEST(KernelsTest, ScoreBlockAgreesWithDotKernel) {
  // The evaluator assumes a block row equals per-item kernels::Dot output
  // (remainder users/items take exactly that path; tiles must agree too).
  Rng rng(8);
  const std::size_t nu = 9, ni = 13, dim = 32;
  const std::vector<float> users = RandomVector(nu * dim, rng);
  const std::vector<float> items = RandomVector(ni * dim, rng);
  std::vector<float> out(nu * ni);
  kernels::ScoreBlock(users.data(), nu, items.data(), ni, dim, out.data(), ni);
  for (std::size_t u = 0; u < nu; ++u) {
    for (std::size_t j = 0; j < ni; ++j) {
      const float via_dot =
          kernels::Dot(users.data() + u * dim, items.data() + j * dim, dim);
      // Tiled and single-row paths may reduce lanes in different orders, so
      // agreement is within rounding, not bitwise.
      EXPECT_NEAR(out[u * ni + j], via_dot, Tolerance(dim))
          << "u=" << u << " j=" << j;
    }
  }
}

/// Column widths crossing the 8-lane boundary of SortColumns.
const std::size_t kSortCols[] = {1, 3, 7, 8, 9, 31, 32, 33};

/// rows x cols values drawn from 9 levels around zero, with +0 and -0 both
/// present, so equal keys are common.
std::vector<float> QuantisedTile(std::size_t rows, std::size_t cols, Rng& rng) {
  std::vector<float> tile(rows * cols);
  for (float& v : tile) {
    const int level = static_cast<int>(rng.NextBounded(9)) - 4;
    v = level == 0 ? (rng.NextBounded(2) == 0 ? 0.0f : -0.0f)
                   : 0.25f * static_cast<float>(level);
  }
  return tile;
}

std::vector<std::uint32_t> ColumnBits(const std::vector<float>& tile,
                                      std::size_t rows, std::size_t cols,
                                      std::size_t c) {
  std::vector<std::uint32_t> bits(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    std::memcpy(&bits[r], &tile[r * cols + c], sizeof(float));
  }
  return bits;
}

TEST(KernelsTest, SortColumnsSortsEachColumnAsAPermutation) {
  Rng rng(9);
  std::vector<std::size_t> row_counts;
  for (std::size_t rows = 0; rows <= 80; ++rows) row_counts.push_back(rows);
  for (std::size_t rows : {127u, 128u, 129u, 300u}) row_counts.push_back(rows);
  for (std::size_t rows : row_counts) {
    for (std::size_t cols : kSortCols) {
      const std::vector<float> input = QuantisedTile(rows, cols, rng);
      std::vector<float> tile = input;
      kernels::SortColumns(tile.data(), rows, cols);
      for (std::size_t c = 0; c < cols; ++c) {
        for (std::size_t r = 1; r < rows; ++r) {
          ASSERT_FALSE(tile[r * cols + c] < tile[(r - 1) * cols + c])
              << "rows=" << rows << " cols=" << cols << " c=" << c;
        }
        // Same multiset of bit patterns: nothing lost, +0/-0 included.
        std::vector<std::uint32_t> before = ColumnBits(input, rows, cols, c);
        std::vector<std::uint32_t> after = ColumnBits(tile, rows, cols, c);
        std::sort(before.begin(), before.end());
        std::sort(after.begin(), after.end());
        ASSERT_EQ(before, after) << "rows=" << rows << " cols=" << cols;
      }
    }
  }
}

TEST(KernelsTest, SortColumnsSortsEveryZeroOneInput) {
  // 0-1 principle: a comparator network sorts every input iff it sorts every
  // 0/1 input. Column c of a rows x 2^rows tile holds the bits of c, so one
  // call checks all of them.
  for (std::size_t rows = 1; rows <= 13; ++rows) {
    const std::size_t cols = std::size_t{1} << rows;
    std::vector<float> tile(rows * cols);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < cols; ++c) {
        tile[r * cols + c] = static_cast<float>((c >> r) & 1);
      }
    }
    kernels::SortColumns(tile.data(), rows, cols);
    for (std::size_t c = 0; c < cols; ++c) {
      const std::size_t ones = static_cast<std::size_t>(std::popcount(c));
      for (std::size_t r = 0; r < rows; ++r) {
        ASSERT_EQ(tile[r * cols + c], r + ones >= rows ? 1.0f : 0.0f)
            << "rows=" << rows << " c=" << c;
      }
    }
  }
}

TEST(KernelsTest, SortColumnsMatchesScalarReferenceBitForBit) {
  // The vector path and its scalar tail must apply the scalar reference's
  // swap rule lane for lane: same bits, including which of +0/-0 lands
  // where and NaNs left in place.
  Rng rng(10);
  for (std::size_t rows : {2u, 3u, 5u, 16u, 33u, 64u, 80u}) {
    for (std::size_t cols : kSortCols) {
      std::vector<float> input = QuantisedTile(rows, cols, rng);
      input[rng.NextBounded(input.size())] =
          std::numeric_limits<float>::quiet_NaN();
      std::vector<float> vectorized = input;
      std::vector<float> reference = input;
      kernels::SortColumns(vectorized.data(), rows, cols);
      kernels::ScalarSortColumns(reference.data(), rows, cols);
      EXPECT_EQ(std::memcmp(vectorized.data(), reference.data(),
                            input.size() * sizeof(float)),
                0)
          << "rows=" << rows << " cols=" << cols;
    }
  }
}

}  // namespace
}  // namespace fedrec
