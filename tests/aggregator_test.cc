#include "fed/aggregator.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/threadpool.h"

namespace fedrec {
namespace {

ClientUpdate MakeUpdate(std::uint32_t user, std::size_t dim,
                        std::vector<std::pair<std::size_t, float>> entries) {
  ClientUpdate update;
  update.user = user;
  update.item_gradients = SparseRowMatrix(dim);
  for (const auto& [row, value] : entries) {
    update.item_gradients.RowMutable(row)[0] = value;
  }
  return update;
}

TEST(AggregatorTest, SumMatchesPaperProtocol) {
  AggregatorOptions options;
  options.kind = AggregatorKind::kSum;
  std::vector<ClientUpdate> updates;
  updates.push_back(MakeUpdate(0, 2, {{0, 1.0f}, {1, 2.0f}}));
  updates.push_back(MakeUpdate(1, 2, {{0, 3.0f}}));
  const Matrix total = AggregateUpdates(updates, 3, 2, options);
  EXPECT_FLOAT_EQ(total.At(0, 0), 4.0f);
  EXPECT_FLOAT_EQ(total.At(1, 0), 2.0f);
  EXPECT_FLOAT_EQ(total.At(2, 0), 0.0f);
}

TEST(AggregatorTest, EmptyUpdatesYieldZeroGradient) {
  AggregatorOptions options;
  const Matrix total = AggregateUpdates({}, 4, 3, options);
  EXPECT_FLOAT_EQ(total.FrobeniusNorm(), 0.0f);
  EXPECT_EQ(total.rows(), 4u);
}

TEST(AggregatorTest, SumIsPermutationInvariant) {
  AggregatorOptions options;
  std::vector<ClientUpdate> a;
  a.push_back(MakeUpdate(0, 2, {{0, 1.0f}}));
  a.push_back(MakeUpdate(1, 2, {{0, 2.0f}, {1, -1.0f}}));
  a.push_back(MakeUpdate(2, 2, {{1, 5.0f}}));
  std::vector<ClientUpdate> b;
  b.push_back(MakeUpdate(2, 2, {{1, 5.0f}}));
  b.push_back(MakeUpdate(0, 2, {{0, 1.0f}}));
  b.push_back(MakeUpdate(1, 2, {{0, 2.0f}, {1, -1.0f}}));
  EXPECT_TRUE(AggregateUpdates(a, 2, 2, options) ==
              AggregateUpdates(b, 2, 2, options));
}

TEST(AggregatorTest, MedianResistsOneOutlier) {
  AggregatorOptions options;
  options.kind = AggregatorKind::kMedian;
  std::vector<ClientUpdate> updates;
  updates.push_back(MakeUpdate(0, 1, {{0, 1.0f}}));
  updates.push_back(MakeUpdate(1, 1, {{0, 1.2f}}));
  updates.push_back(MakeUpdate(2, 1, {{0, 100.0f}}));  // attacker
  const Matrix total = AggregateUpdates(updates, 1, 1, options);
  // median(1, 1.2, 100) = 1.2, rescaled by 3 contributors.
  EXPECT_FLOAT_EQ(total.At(0, 0), 3.0f * 1.2f);
}

TEST(AggregatorTest, MedianEvenCountAverageOfMiddle) {
  AggregatorOptions options;
  options.kind = AggregatorKind::kMedian;
  std::vector<ClientUpdate> updates;
  updates.push_back(MakeUpdate(0, 1, {{0, 1.0f}}));
  updates.push_back(MakeUpdate(1, 1, {{0, 2.0f}}));
  updates.push_back(MakeUpdate(2, 1, {{0, 3.0f}}));
  updates.push_back(MakeUpdate(3, 1, {{0, 4.0f}}));
  const Matrix total = AggregateUpdates(updates, 1, 1, options);
  EXPECT_FLOAT_EQ(total.At(0, 0), 4.0f * 2.5f);
}

TEST(AggregatorTest, TrimmedMeanDropsTails) {
  AggregatorOptions options;
  options.kind = AggregatorKind::kTrimmedMean;
  options.trim_fraction = 0.25;  // drop 1 from each side of 5
  std::vector<ClientUpdate> updates;
  for (int i = 0; i < 4; ++i) {
    updates.push_back(
        MakeUpdate(static_cast<std::uint32_t>(i), 1, {{0, 1.0f}}));
  }
  updates.push_back(MakeUpdate(4, 1, {{0, 1000.0f}}));  // outlier trimmed away
  const Matrix total = AggregateUpdates(updates, 1, 1, options);
  // Sorted {1,1,1,1,1000}, trim 1 each side -> mean(1,1,1) = 1, x5 contributors.
  EXPECT_FLOAT_EQ(total.At(0, 0), 5.0f);
}

TEST(AggregatorTest, TrimmedMeanOnlyOverContributors) {
  AggregatorOptions options;
  options.kind = AggregatorKind::kTrimmedMean;
  options.trim_fraction = 0.0;
  std::vector<ClientUpdate> updates;
  updates.push_back(MakeUpdate(0, 1, {{0, 2.0f}}));
  updates.push_back(MakeUpdate(1, 1, {{1, 6.0f}}));  // different row
  const Matrix total = AggregateUpdates(updates, 2, 1, options);
  // Each row has exactly one contributor: robust mean = value, x1.
  EXPECT_FLOAT_EQ(total.At(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(total.At(1, 0), 6.0f);
}

TEST(AggregatorTest, NormBoundRescalesLargeRows) {
  AggregatorOptions options;
  options.kind = AggregatorKind::kNormBound;
  options.norm_bound = 1.0;
  std::vector<ClientUpdate> updates;
  updates.push_back(MakeUpdate(0, 1, {{0, 10.0f}}));  // norm 10 -> rescaled to 1
  updates.push_back(MakeUpdate(1, 1, {{0, 0.5f}}));   // within bound
  const Matrix total = AggregateUpdates(updates, 1, 1, options);
  EXPECT_NEAR(total.At(0, 0), 1.5f, 1e-5f);
}

std::vector<ClientUpdate> RandomRoundUpdates(std::size_t clients,
                                             std::size_t num_items,
                                             std::size_t dim, std::size_t rows,
                                             std::uint64_t seed) {
  Rng rng(seed);
  std::vector<ClientUpdate> updates;
  updates.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    ClientUpdate update;
    update.user = static_cast<std::uint32_t>(c);
    update.item_gradients = SparseRowMatrix(dim);
    for (std::size_t r = 0; r < rows; ++r) {
      auto row = update.item_gradients.RowMutable(rng.NextBounded(num_items));
      for (auto& v : row) v = static_cast<float>(rng.NextGaussian(0.0, 0.1));
    }
    updates.push_back(std::move(update));
  }
  return updates;
}

void ExpectDeltasBitIdentical(const SparseRoundDelta& expected,
                              const SparseRoundDelta& actual,
                              const std::string& label) {
  ASSERT_EQ(expected.row_count(), actual.row_count()) << label;
  ASSERT_EQ(expected.cols(), actual.cols()) << label;
  for (std::size_t slot = 0; slot < expected.row_count(); ++slot) {
    ASSERT_EQ(expected.rows()[slot], actual.rows()[slot]) << label;
    const auto want = expected.RowAtSlot(slot);
    const auto got = actual.RowAtSlot(slot);
    for (std::size_t d = 0; d < want.size(); ++d) {
      ASSERT_EQ(want[d], got[d])
          << label << " row " << expected.rows()[slot] << " dim " << d;
    }
  }
}

TEST(ShardedAggregationTest, BitIdenticalToSerialForAllRulesAndShardCounts) {
  ThreadPool pool(4);
  const std::size_t dim = 7;
  for (const AggregatorKind kind :
       {AggregatorKind::kSum, AggregatorKind::kTrimmedMean,
        AggregatorKind::kMedian, AggregatorKind::kNormBound,
        AggregatorKind::kKrum}) {
    for (std::uint64_t seed : {1u, 2u}) {
      const auto updates = RandomRoundUpdates(23, 60, dim, 9, seed);
      AggregatorOptions options;
      options.kind = kind;
      options.krum_honest = 15;

      AggregationWorkspace serial_workspace;
      SparseRoundDelta serial;
      AggregateUpdates(updates, dim, options, serial_workspace, serial);

      for (const std::size_t shards : {std::size_t{1}, std::size_t{3},
                                       pool.thread_count()}) {
        AggregationWorkspace workspace;
        SparseRoundDelta delta;
        AggregateUpdates(updates, dim, options, workspace, delta, &pool,
                         shards);
        ExpectDeltasBitIdentical(
            serial, delta,
            std::string(AggregatorKindToString(kind)) + " shards=" +
                std::to_string(shards) + " seed=" + std::to_string(seed));
      }
    }
  }
}

TEST(ShardedAggregationTest, ShardPartitionWithoutPoolRunsInline) {
  // num_shards > 1 with a null pool must partition identically and execute
  // the shards on the calling thread.
  const std::size_t dim = 5;
  const auto updates = RandomRoundUpdates(11, 40, dim, 6, 4);
  AggregatorOptions options;
  AggregationWorkspace serial_workspace;
  SparseRoundDelta serial;
  AggregateUpdates(updates, dim, options, serial_workspace, serial);

  AggregationWorkspace workspace;
  SparseRoundDelta delta;
  AggregateUpdates(updates, dim, options, workspace, delta, nullptr,
                   /*num_shards=*/3);
  ExpectDeltasBitIdentical(serial, delta, "inline shards");
}

TEST(ShardedAggregationTest, ReusedWorkspaceIsAllocationFreeAcrossRounds) {
  ThreadPool pool(3);
  const std::size_t dim = 6;
  AggregatorOptions options;
  options.kind = AggregatorKind::kMedian;
  AggregationWorkspace workspace;
  SparseRoundDelta delta;
  std::vector<std::vector<ClientUpdate>> rounds;
  for (std::uint64_t seed = 8; seed < 12; ++seed) {
    rounds.push_back(RandomRoundUpdates(16, 50, dim, 8, seed));
  }
  // Warm pass: grows every buffer to the rounds' watermark.
  for (const auto& updates : rounds) {
    AggregateUpdates(updates, dim, options, workspace, delta, &pool);
  }
  ResetSparseAllocationCount();
  for (const auto& updates : rounds) {
    AggregateUpdates(updates, dim, options, workspace, delta, &pool);
  }
  EXPECT_EQ(SparseAllocationCount(), 0u);
}

TEST(KrumTest, SelectsClusterMemberNotOutlier) {
  std::vector<ClientUpdate> updates;
  updates.push_back(MakeUpdate(0, 1, {{0, 1.00f}}));
  updates.push_back(MakeUpdate(1, 1, {{0, 1.01f}}));
  updates.push_back(MakeUpdate(2, 1, {{0, 0.99f}}));
  updates.push_back(MakeUpdate(3, 1, {{0, 50.0f}}));  // attacker
  KrumScratch scratch;
  const std::size_t pick = KrumSelect(updates, 1, 1, /*honest=*/3, scratch);
  EXPECT_NE(pick, 3u);
}

TEST(KrumTest, SingleUpdateSelected) {
  std::vector<ClientUpdate> updates;
  updates.push_back(MakeUpdate(0, 1, {{0, 5.0f}}));
  KrumScratch scratch;
  EXPECT_EQ(KrumSelect(updates, 1, 1, 1, scratch), 0u);
}

TEST(KrumTest, DisjointRowsUseZeroPadding) {
  // Two identical small updates on row 0, one large on row 1: distance
  // between the small pair is 0; the large one is far from both.
  std::vector<ClientUpdate> updates;
  updates.push_back(MakeUpdate(0, 1, {{0, 0.1f}}));
  updates.push_back(MakeUpdate(1, 1, {{0, 0.1f}}));
  updates.push_back(MakeUpdate(2, 1, {{1, 30.0f}}));
  KrumScratch scratch;
  const std::size_t pick = KrumSelect(updates, 2, 1, 3, scratch);
  EXPECT_NE(pick, 2u);
}

TEST(KrumTest, AggregateScalesSelectedByRoundSize) {
  AggregatorOptions options;
  options.kind = AggregatorKind::kKrum;
  options.krum_honest = 3;
  std::vector<ClientUpdate> updates;
  updates.push_back(MakeUpdate(0, 1, {{0, 1.0f}}));
  updates.push_back(MakeUpdate(1, 1, {{0, 1.0f}}));
  updates.push_back(MakeUpdate(2, 1, {{0, 1.0f}}));
  const Matrix total = AggregateUpdates(updates, 1, 1, options);
  EXPECT_FLOAT_EQ(total.At(0, 0), 3.0f);
}

// --- Bit-identity regression against the historical implementation ---------
//
// The production median/trimmed-mean path was rewritten from a
// std::map-grouped, full-sort-per-coordinate implementation to a flat
// row-index + nth_element one. The rewrite must be bit-identical, so the
// reference below reimplements the historical algorithm verbatim.
Matrix ReferenceCoordinateWise(const std::vector<ClientUpdate>& updates,
                               std::size_t num_items, std::size_t dim,
                               bool median, double trim_fraction) {
  Matrix total(num_items, dim);
  std::map<std::size_t, std::vector<const ClientUpdate*>> by_row;
  for (const ClientUpdate& update : updates) {
    for (std::size_t row : update.item_gradients.row_ids()) {
      by_row[row].push_back(&update);
    }
  }
  std::vector<float> column;
  for (const auto& [row, contributors] : by_row) {
    const std::size_t n = contributors.size();
    auto out = total.Row(row);
    for (std::size_t d = 0; d < dim; ++d) {
      column.clear();
      for (const ClientUpdate* update : contributors) {
        column.push_back(update->item_gradients.Row(row)[d]);
      }
      std::sort(column.begin(), column.end());
      double robust = 0.0;
      if (median) {
        robust = (column.size() % 2 == 1)
                     ? column[column.size() / 2]
                     : 0.5 * (column[column.size() / 2 - 1] +
                              column[column.size() / 2]);
      } else {
        std::size_t trim = static_cast<std::size_t>(
            std::floor(trim_fraction * static_cast<double>(column.size())));
        if (2 * trim >= column.size()) trim = (column.size() - 1) / 2;
        double sum = 0.0;
        std::size_t kept = 0;
        for (std::size_t i = trim; i + trim < column.size(); ++i) {
          sum += column[i];
          ++kept;
        }
        robust = kept == 0 ? 0.0 : sum / static_cast<double>(kept);
      }
      out[d] = static_cast<float>(robust * static_cast<double>(n));
    }
  }
  return total;
}

std::vector<ClientUpdate> RandomUpdates(std::size_t num_clients,
                                        std::size_t num_items, std::size_t dim,
                                        std::size_t rows_per_client,
                                        std::uint64_t seed) {
  Rng rng(seed);
  std::vector<ClientUpdate> updates;
  updates.reserve(num_clients);
  for (std::size_t c = 0; c < num_clients; ++c) {
    ClientUpdate update;
    update.user = static_cast<std::uint32_t>(c);
    update.item_gradients = SparseRowMatrix(dim);
    for (std::size_t r = 0; r < rows_per_client; ++r) {
      auto row = update.item_gradients.RowMutable(rng.NextBounded(num_items));
      for (auto& v : row) v = static_cast<float>(rng.NextGaussian(0.0, 0.1));
    }
    updates.push_back(std::move(update));
  }
  return updates;
}

TEST(AggregatorBitIdentityTest, MedianMatchesSortedColumnReference) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const auto updates = RandomUpdates(17, 40, 5, 12, seed);
    AggregatorOptions options;
    options.kind = AggregatorKind::kMedian;
    const Matrix actual = AggregateUpdates(updates, 40, 5, options);
    const Matrix expected =
        ReferenceCoordinateWise(updates, 40, 5, /*median=*/true, 0.0);
    EXPECT_TRUE(actual == expected) << "seed=" << seed;
  }
}

TEST(AggregatorBitIdentityTest, TrimmedMeanMatchesSortedColumnReference) {
  for (double trim_fraction : {0.0, 0.1, 0.25, 0.45}) {
    for (std::uint64_t seed : {1u, 2u, 3u}) {
      const auto updates = RandomUpdates(16, 30, 4, 10, seed);
      AggregatorOptions options;
      options.kind = AggregatorKind::kTrimmedMean;
      options.trim_fraction = trim_fraction;
      const Matrix actual = AggregateUpdates(updates, 30, 4, options);
      const Matrix expected = ReferenceCoordinateWise(
          updates, 30, 4, /*median=*/false, trim_fraction);
      EXPECT_TRUE(actual == expected)
          << "seed=" << seed << " trim=" << trim_fraction;
    }
  }
}

TEST(AggregatorBitIdentityTest, SingleContributorRowsPassThrough) {
  // Degenerate columns (one contributor) exercise the trim-clamp and the
  // even/odd median edges of both implementations.
  const auto updates = RandomUpdates(2, 100, 3, 4, 9);
  for (const bool median : {true, false}) {
    AggregatorOptions options;
    options.kind =
        median ? AggregatorKind::kMedian : AggregatorKind::kTrimmedMean;
    const Matrix actual = AggregateUpdates(updates, 100, 3, options);
    const Matrix expected = ReferenceCoordinateWise(updates, 100, 3, median,
                                                    options.trim_fraction);
    EXPECT_TRUE(actual == expected);
  }
}

TEST(AggregatorBitIdentityTest, ColumnNetworkMatchesSortedColumnReference) {
  // Differential test of the column-sorting network against the sorted-column
  // reference. Client c uploads items c + 1 .. kMaxContributors, so item n
  // has exactly n contributors, for every n up to 80. Values come from 9
  // levels with +0 and -0 both present, so ties are the rule, not the
  // exception. Every output is compared byte for byte, with one allowance:
  // a median over a column holding both +0 and -0 may come out as the other
  // zero, since which of two equal keys lands in the middle is up to the
  // sort. (The trimmed mean sums from +0.0, which absorbs either sign.)
  constexpr std::size_t kMaxContributors = 80;
  const std::size_t num_items = kMaxContributors + 1;
  for (std::size_t dim : {1u, 3u, 7u, 8u, 9u, 31u, 32u, 33u}) {
    Rng rng(100 + dim);
    std::vector<ClientUpdate> updates(kMaxContributors);
    for (std::size_t c = 0; c < kMaxContributors; ++c) {
      updates[c].user = static_cast<std::uint32_t>(c);
      updates[c].item_gradients = SparseRowMatrix(dim);
      for (std::size_t item = c + 1; item < num_items; ++item) {
        for (float& v : updates[c].item_gradients.RowMutable(item)) {
          const int level = static_cast<int>(rng.NextBounded(9)) - 4;
          v = level == 0 ? (rng.NextBounded(2) == 0 ? 0.0f : -0.0f)
                         : 0.25f * static_cast<float>(level);
        }
      }
    }
    auto has_both_zeros = [&](std::size_t item, std::size_t d) {
      bool positive = false, negative = false;
      for (const ClientUpdate& update : updates) {
        if (!update.item_gradients.Contains(item)) continue;
        const float v = update.item_gradients.Row(item)[d];
        if (v == 0.0f) (std::signbit(v) ? negative : positive) = true;
      }
      return positive && negative;
    };
    for (const bool median : {true, false}) {
      for (double trim_fraction : {0.0, 0.1, 0.25, 0.45}) {
        if (median && trim_fraction != 0.0) continue;
        AggregatorOptions options;
        options.kind =
            median ? AggregatorKind::kMedian : AggregatorKind::kTrimmedMean;
        options.trim_fraction = trim_fraction;
        const Matrix actual =
            AggregateUpdates(updates, num_items, dim, options);
        const Matrix expected = ReferenceCoordinateWise(
            updates, num_items, dim, median, trim_fraction);
        for (std::size_t item = 1; item < num_items; ++item) {
          for (std::size_t d = 0; d < dim; ++d) {
            const float a = actual.At(item, d);
            const float e = expected.At(item, d);
            if (std::memcmp(&a, &e, sizeof(float)) == 0) continue;
            const bool signed_zero_tie =
                median && a == e && has_both_zeros(item, d);
            EXPECT_TRUE(signed_zero_tie)
                << (median ? "median" : "trimmed mean")
                << " trim=" << trim_fraction << " dim=" << dim
                << " n=" << item << " d=" << d << ": " << a << " vs " << e;
          }
        }
      }
    }
  }
}

TEST(KrumTest, NormTableRewriteAgreesWithDirectDistances) {
  // KrumSelect now expands ||a-b||^2 via precomputed row-norm tables; it must
  // pick the same client as the direct per-pair reduction over the row union,
  // also on scratch reused across rounds of different sizes.
  KrumScratch scratch;
  const std::pair<std::uint64_t, std::size_t> rounds[] = {
      {1, 12}, {2, 12}, {3, 12}, {4, 12}, {5, 9}, {6, 16}};
  for (const auto& [seed, clients] : rounds) {
    const auto updates = RandomUpdates(clients, 25, 6, 8, seed);
    const std::size_t dim = 6;
    const std::size_t n = updates.size();
    auto direct_distance2 = [&](const ClientUpdate& a, const ClientUpdate& b) {
      double acc = 0.0;
      for (std::size_t row : a.item_gradients.row_ids()) {
        const auto ra = a.item_gradients.Row(row);
        if (b.item_gradients.Contains(row)) {
          const auto rb = b.item_gradients.Row(row);
          for (std::size_t d = 0; d < dim; ++d) {
            const double diff = static_cast<double>(ra[d]) - rb[d];
            acc += diff * diff;
          }
        } else {
          for (float v : ra) acc += static_cast<double>(v) * v;
        }
      }
      for (std::size_t row : b.item_gradients.row_ids()) {
        if (!a.item_gradients.Contains(row)) {
          const auto rb = b.item_gradients.Row(row);
          for (float v : rb) acc += static_cast<double>(v) * v;
        }
      }
      return acc;
    };
    const std::size_t honest = 8;
    // Reference selection: historical direct distances + neighbour scoring.
    std::vector<std::vector<double>> dist(n, std::vector<double>(n, 0.0));
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        dist[i][j] = dist[j][i] = direct_distance2(updates[i], updates[j]);
      }
    }
    const std::size_t neighbours = honest - 2;
    std::size_t best = 0;
    double best_score = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < n; ++i) {
      std::vector<double> row;
      for (std::size_t j = 0; j < n; ++j) {
        if (j != i) row.push_back(dist[i][j]);
      }
      std::sort(row.begin(), row.end());
      double score = 0.0;
      for (std::size_t r = 0; r < neighbours && r < row.size(); ++r) {
        score += row[r];
      }
      if (score < best_score) {
        best_score = score;
        best = i;
      }
    }
    EXPECT_EQ(KrumSelect(updates, 25, dim, honest, scratch), best)
        << "seed=" << seed;
  }
}

TEST(AggregatorKindTest, NamesRoundTrip) {
  EXPECT_STREQ(AggregatorKindToString(AggregatorKind::kSum), "sum");
  EXPECT_STREQ(AggregatorKindToString(AggregatorKind::kMedian), "median");
  EXPECT_STREQ(AggregatorKindToString(AggregatorKind::kTrimmedMean),
               "trimmed-mean");
  EXPECT_STREQ(AggregatorKindToString(AggregatorKind::kNormBound), "norm-bound");
  EXPECT_STREQ(AggregatorKindToString(AggregatorKind::kKrum), "krum");
}


TEST(AggregatorTest, EveryRuleAggregatesAnEmptyRoundCleanly) {
  // Under fault injection with min_round_quorum = 0, an all-dropped round
  // legally reaches the aggregator with zero uploads. Every rule must
  // produce a clean empty delta (column count set, no rows) instead of
  // tripping over the empty contributor index.
  for (const AggregatorKind kind :
       {AggregatorKind::kSum, AggregatorKind::kTrimmedMean,
        AggregatorKind::kMedian, AggregatorKind::kNormBound,
        AggregatorKind::kKrum}) {
    AggregatorOptions options;
    options.kind = kind;
    options.krum_honest = 1;
    AggregationWorkspace workspace;
    SparseRoundDelta delta;
    AggregateUpdates(std::span<const ClientUpdate>{}, /*dim=*/3, options,
                     workspace, delta);
    EXPECT_TRUE(delta.empty()) << AggregatorKindToString(kind);
    EXPECT_EQ(delta.cols(), 3u) << AggregatorKindToString(kind);
    EXPECT_EQ(delta.row_count(), 0u) << AggregatorKindToString(kind);
  }
}

}  // namespace
}  // namespace fedrec
