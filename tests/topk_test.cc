#include "model/topk.h"

#include <algorithm>
#include <numeric>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace fedrec {
namespace {

/// Brute-force reference: full sort under (score desc, index asc), drop
/// excluded ids, truncate to k.
std::vector<std::uint32_t> ReferenceTopK(
    const std::vector<float>& scores, std::size_t k,
    const std::vector<std::uint32_t>& sorted_excluded) {
  std::vector<std::uint32_t> all(scores.size());
  std::iota(all.begin(), all.end(), 0);
  std::sort(all.begin(), all.end(), [&](std::uint32_t a, std::uint32_t b) {
    return scores[a] != scores[b] ? scores[a] > scores[b] : a < b;
  });
  std::vector<std::uint32_t> kept;
  for (std::uint32_t idx : all) {
    if (kept.size() == k) break;
    if (!std::binary_search(sorted_excluded.begin(), sorted_excluded.end(),
                            idx)) {
      kept.push_back(idx);
    }
  }
  return kept;
}

/// TopKIndicesExcludingSortedInto as a value-returning call, for brevity.
std::vector<std::uint32_t> TopK(const std::vector<float>& scores, std::size_t k,
                                const std::vector<std::uint32_t>& excluded = {}) {
  std::vector<std::uint32_t> out;
  TopKIndicesExcludingSortedInto(scores, k, excluded, out);
  return out;
}

TEST(TopKTest, BasicDescendingOrder) {
  const std::vector<float> scores{0.1f, 0.9f, 0.5f, 0.7f, 0.3f};
  EXPECT_EQ(TopK(scores, 3), (std::vector<std::uint32_t>{1, 3, 2}));
}

TEST(TopKTest, KLargerThanInput) {
  const std::vector<float> scores{0.2f, 0.8f};
  EXPECT_EQ(TopK(scores, 10), (std::vector<std::uint32_t>{1, 0}));
}

TEST(TopKTest, KZeroEmpty) {
  const std::vector<float> scores{0.2f, 0.8f};
  EXPECT_TRUE(TopK(scores, 0).empty());
}

TEST(TopKTest, TiesBreakTowardSmallerIndex) {
  const std::vector<float> scores{0.5f, 0.5f, 0.5f, 0.5f};
  EXPECT_EQ(TopK(scores, 2), (std::vector<std::uint32_t>{0, 1}));
}

TEST(TopKTest, ExcludePredicate) {
  const std::vector<float> scores{0.9f, 0.8f, 0.7f, 0.6f};
  EXPECT_EQ(TopK(scores, 2, {0, 2}), (std::vector<std::uint32_t>{1, 3}));
}

TEST(TopKTest, ExcludeAllYieldsEmpty) {
  const std::vector<float> scores{1.0f, 2.0f};
  EXPECT_TRUE(TopK(scores, 2, {0, 1}).empty());
}

TEST(TopKTest, MatchesFullSortOnRandomData) {
  Rng rng(17);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<float> scores(200);
    for (auto& s : scores) s = rng.NextFloat();
    const std::size_t k = 1 + static_cast<std::size_t>(rng.NextBounded(50));
    EXPECT_EQ(TopK(scores, k), ReferenceTopK(scores, k, {})) << "trial " << trial;
  }
}

TEST(TopKExcludingSortedTest, ExcludesListedIndices) {
  const std::vector<float> scores{0.9f, 0.8f, 0.7f, 0.6f, 0.5f};
  EXPECT_EQ(TopK(scores, 3, {0, 2}), (std::vector<std::uint32_t>{1, 3, 4}));
}

TEST(TopKExcludingSortedTest, EmptyExclusionEqualsPlain) {
  Rng rng(18);
  std::vector<float> scores(50);
  for (auto& s : scores) s = rng.NextFloat();
  EXPECT_EQ(TopK(scores, 7), ReferenceTopK(scores, 7, {}));
}

TEST(TopKExcludingSortedTest, MatchesBruteForceUnderDenseTies) {
  Rng rng(19);
  std::vector<std::uint32_t> out;
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t n = 1 + static_cast<std::size_t>(rng.NextBounded(120));
    // Scores quantised to a handful of values, so most comparisons are ties.
    const std::uint64_t levels = 1 + rng.NextBounded(4);
    std::vector<float> scores(n);
    for (auto& s : scores) {
      s = static_cast<float>(rng.NextBounded(levels)) * 0.25f;
    }
    // Exclusion list: some random ids (possibly >= n, possibly duplicated),
    // some of the unexcluded top-K, or everything.
    std::vector<std::uint32_t> excluded;
    switch (trial % 4) {
      case 0:
        break;
      case 1:
        for (std::size_t i = 0; i < n / 3 + 2; ++i) {
          excluded.push_back(static_cast<std::uint32_t>(rng.NextBounded(n + 10)));
        }
        break;
      case 2: {
        const auto top = ReferenceTopK(scores, 10, {});
        for (std::size_t i = 0; i < top.size(); i += 2) excluded.push_back(top[i]);
        excluded.push_back(static_cast<std::uint32_t>(n + 3));
        break;
      }
      default:
        for (std::uint32_t i = 0; i < n; ++i) excluded.push_back(i);
        break;
    }
    std::sort(excluded.begin(), excluded.end());

    for (std::size_t k : {std::size_t{0}, std::size_t{1}, std::size_t{10},
                          n - 1, n, n + 5}) {
      TopKIndicesExcludingSortedInto(scores, k, excluded, out);
      EXPECT_EQ(out, ReferenceTopK(scores, k, excluded))
          << "trial " << trial << " n " << n << " k " << k;
    }
  }
}

TEST(TopKExcludingSortedTest, ReusedBufferIsOverwrittenWithoutReallocation) {
  Rng rng(20);
  std::vector<float> scores(1682);
  const std::vector<std::uint32_t> excluded{3, 17, 400, 1681};
  std::vector<std::uint32_t> out{99, 98, 97, 96, 95, 94, 93, 92, 91, 90, 89, 88};
  const std::uint32_t* data = nullptr;
  for (int call = 0; call < 5; ++call) {
    for (auto& s : scores) s = rng.NextFloat();
    TopKIndicesExcludingSortedInto(scores, 10, excluded, out);
    EXPECT_EQ(out, ReferenceTopK(scores, 10, excluded)) << "call " << call;
    if (call == 0) {
      data = out.data();
    } else {
      EXPECT_EQ(out.data(), data) << "call " << call << " reallocated";
    }
  }
  // A call with fewer candidates than k shrinks the list in place.
  const std::vector<float> few{0.5f, 0.25f};
  TopKIndicesExcludingSortedInto(few, 10, {}, out);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(out.data(), data);
}

}  // namespace
}  // namespace fedrec
