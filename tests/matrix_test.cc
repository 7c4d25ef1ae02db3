#include "common/matrix.h"

#include <cmath>
#include <cstring>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "common/math.h"
#include "support/alloc_counter.h"

namespace fedrec {
namespace {

TEST(MatrixTest, ConstructionAndShape) {
  Matrix m(3, 4);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_EQ(m.size(), 12u);
  EXPECT_FALSE(m.empty());
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 4; ++j) EXPECT_FLOAT_EQ(m.At(i, j), 0.0f);
  }
  Matrix empty;
  EXPECT_TRUE(empty.empty());
}

TEST(MatrixTest, RowViewsAliasStorage) {
  Matrix m(2, 3);
  auto row = m.Row(1);
  row[2] = 5.0f;
  EXPECT_FLOAT_EQ(m.At(1, 2), 5.0f);
  const Matrix& cm = m;
  EXPECT_FLOAT_EQ(cm.Row(1)[2], 5.0f);
}

TEST(MatrixTest, FillAndFrobenius) {
  Matrix m(2, 2);
  m.Fill(2.0f);
  EXPECT_FLOAT_EQ(m.FrobeniusNorm(), 4.0f);  // sqrt(4 * 4)
}

TEST(MatrixTest, FillGaussianStatistics) {
  Rng rng(5);
  Matrix m(100, 100);
  m.FillGaussian(rng, 1.0f, 2.0f);
  double sum = 0.0, sum2 = 0.0;
  for (float v : m.Data()) {
    sum += v;
    sum2 += static_cast<double>(v) * v;
  }
  const double n = 10000.0;
  const double mean = sum / n;
  EXPECT_NEAR(mean, 1.0, 0.1);
  EXPECT_NEAR(sum2 / n - mean * mean, 4.0, 0.3);
}

TEST(MatrixTest, FillUniformRange) {
  Rng rng(6);
  Matrix m(50, 50);
  m.FillUniform(rng, -2.0f, 3.0f);
  for (float v : m.Data()) {
    EXPECT_GE(v, -2.0f);
    EXPECT_LT(v, 3.0f);
  }
}

TEST(MatrixTest, AddScaled) {
  Matrix a(2, 2), b(2, 2);
  a.Fill(1.0f);
  b.Fill(3.0f);
  a.Add(b, -0.5f);
  for (float v : a.Data()) EXPECT_FLOAT_EQ(v, -0.5f);
}

TEST(MatrixTest, AddShapeMismatchAborts) {
  Matrix a(2, 2), b(2, 3);
  EXPECT_DEATH(a.Add(b), "");
}

TEST(MatrixTest, CountNonZeroRows) {
  Matrix m(4, 3);
  EXPECT_EQ(m.CountNonZeroRows(), 0u);
  m.At(1, 2) = 0.1f;
  m.At(3, 0) = -0.1f;
  EXPECT_EQ(m.CountNonZeroRows(), 2u);
}

TEST(MatrixTest, Equality) {
  Matrix a(2, 2), b(2, 2);
  EXPECT_TRUE(a == b);
  b.At(0, 0) = 1.0f;
  EXPECT_FALSE(a == b);
}

TEST(SparseRowMatrixTest, RowCreationAndLookup) {
  SparseRowMatrix s(3);
  EXPECT_TRUE(s.empty());
  EXPECT_FALSE(s.Contains(5));
  auto row = s.RowMutable(5);
  row[0] = 1.0f;
  EXPECT_TRUE(s.Contains(5));
  EXPECT_EQ(s.row_count(), 1u);
  EXPECT_FLOAT_EQ(s.Row(5)[0], 1.0f);
  // Re-fetching does not duplicate.
  s.RowMutable(5)[1] = 2.0f;
  EXPECT_EQ(s.row_count(), 1u);
  EXPECT_FLOAT_EQ(s.Row(5)[1], 2.0f);
}

TEST(SparseRowMatrixTest, AbsentRowAborts) {
  SparseRowMatrix s(2);
  s.RowMutable(1);
  EXPECT_DEATH(s.Row(2), "absent");
}

TEST(SparseRowMatrixTest, ManyRowsOutOfOrder) {
  SparseRowMatrix s(2);
  for (std::size_t r : {9u, 1u, 5u, 3u, 7u}) {
    s.RowMutable(r)[0] = static_cast<float>(r);
  }
  EXPECT_EQ(s.row_count(), 5u);
  for (std::size_t r : {9u, 1u, 5u, 3u, 7u}) {
    EXPECT_FLOAT_EQ(s.Row(r)[0], static_cast<float>(r));
  }
  EXPECT_FALSE(s.Contains(2));
}

TEST(SparseRowMatrixTest, AddToAccumulates) {
  SparseRowMatrix s(2);
  s.RowMutable(0)[0] = 1.0f;
  s.RowMutable(2)[1] = 4.0f;
  Matrix target(3, 2);
  target.Fill(1.0f);
  s.AddTo(target, 2.0f);
  EXPECT_FLOAT_EQ(target.At(0, 0), 3.0f);
  EXPECT_FLOAT_EQ(target.At(2, 1), 9.0f);
  EXPECT_FLOAT_EQ(target.At(1, 0), 1.0f);  // untouched row
}

TEST(SparseRowMatrixTest, ClipRowsEnforcesBound) {
  SparseRowMatrix s(2);
  s.RowMutable(0)[0] = 3.0f;
  s.RowMutable(0)[1] = 4.0f;  // norm 5
  s.RowMutable(1)[0] = 0.1f;  // norm 0.1
  s.ClipRows(1.0f);
  EXPECT_NEAR(L2Norm(s.Row(0)), 1.0f, 1e-5f);
  EXPECT_FLOAT_EQ(s.Row(1)[0], 0.1f);
  EXPECT_FLOAT_EQ(s.MaxRowNorm(), 1.0f);
}

TEST(SparseRowMatrixTest, GaussianNoiseChangesValues) {
  SparseRowMatrix s(8);
  s.RowMutable(0);
  Rng rng(9);
  s.AddGaussianNoise(rng, 1.0f);
  EXPECT_GT(L2Norm(s.Row(0)), 0.0f);
  // stddev 0 is a no-op.
  SparseRowMatrix t(8);
  t.RowMutable(0);
  t.AddGaussianNoise(rng, 0.0f);
  EXPECT_FLOAT_EQ(L2Norm(t.Row(0)), 0.0f);
}

TEST(SparseRowMatrixTest, CountNonZeroRowsIgnoresZeroRows) {
  SparseRowMatrix s(2);
  s.RowMutable(0);           // stays zero
  s.RowMutable(1)[0] = 1.0f; // nonzero
  EXPECT_EQ(s.row_count(), 2u);
  EXPECT_EQ(s.CountNonZeroRows(), 1u);
}

TEST(SparseRowMatrixTest, ClearResets) {
  SparseRowMatrix s(2);
  s.RowMutable(3)[0] = 1.0f;
  s.Clear();
  EXPECT_TRUE(s.empty());
  EXPECT_FALSE(s.Contains(3));
  EXPECT_EQ(s.cols(), 2u);
}

TEST(SparseRowMatrixTest, AddToOutOfRangeRowAborts) {
  SparseRowMatrix s(2);
  s.RowMutable(10)[0] = 1.0f;
  Matrix small(5, 2);
  EXPECT_DEATH(s.AddTo(small), "");
}

TEST(SparseRowMatrixTest, ResetKeepsCapacityAndChangesCols) {
  SparseRowMatrix s(3);
  s.RowMutable(4)[0] = 1.0f;
  s.RowMutable(9)[1] = 2.0f;
  s.Reset(5);
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.cols(), 5u);
  EXPECT_FALSE(s.Contains(4));
  EXPECT_EQ(s.RowMutable(4).size(), 5u);
}

/// The `t`-th row id whose hash is t itself: every such id with t below the
/// table size shares home entry 0, at any table size.
std::size_t CollidingRowId(std::uint64_t t) {
  std::uint64_t inverse = SparseRowMatrix::kSlotHashMultiplier;
  for (int i = 0; i < 5; ++i) {
    inverse *= 2 - SparseRowMatrix::kSlotHashMultiplier * inverse;
  }
  return static_cast<std::size_t>(inverse * t);
}

/// Reference model of a SparseRowMatrix: rows by id plus insertion order.
struct ReferenceRows {
  std::size_t cols = 0;
  std::map<std::size_t, std::vector<float>> rows;
  std::vector<std::size_t> order;
};

void ExpectMatchesReference(const SparseRowMatrix& s,
                            const ReferenceRows& ref) {
  ASSERT_EQ(s.cols(), ref.cols);
  ASSERT_EQ(s.row_ids(), ref.order);
  for (std::size_t slot = 0; slot < ref.order.size(); ++slot) {
    const std::size_t id = ref.order[slot];
    ASSERT_TRUE(s.Contains(id)) << id;
    const auto row = s.Row(id);
    ASSERT_EQ(row.data(), s.RowAtSlot(slot).data()) << id;
    const std::vector<float>& expected = ref.rows.at(id);
    for (std::size_t d = 0; d < ref.cols; ++d) ASSERT_EQ(row[d], expected[d]);
  }
}

/// FRWU payload records for `ids`, values drawn from `rng`.
std::vector<char> PackRecords(const std::vector<std::size_t>& ids,
                              std::size_t cols, Rng& rng,
                              ReferenceRows* ref) {
  std::vector<char> records(ids.size() * (8 + cols * sizeof(float)));
  char* at = records.data();
  for (const std::size_t id : ids) {
    const std::uint64_t wire_id = id;
    std::memcpy(at, &wire_id, 8);
    at += 8;
    std::vector<float> values(cols);
    for (float& v : values) v = static_cast<float>(rng.NextGaussian(0.0, 1.0));
    std::memcpy(at, values.data(), cols * sizeof(float));
    at += cols * sizeof(float);
    if (ref != nullptr && ref->rows.count(id) == 0) {
      ref->rows[id] = values;
      ref->order.push_back(id);
    }
  }
  return records;
}

TEST(SparseRowMatrixTest, RandomOperationsMatchAMapReference) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    auto draw_id = [&rng]() -> std::size_t {
      switch (rng.NextBounded(4)) {
        case 0:
          return rng.NextBounded(64);  // dense small ids: many repeats
        case 1:
          return rng.NextBounded(100000);
        case 2:
          return (std::size_t{1} << 32) + rng.NextBounded(64);  // >= 2^32
        default:
          return CollidingRowId(rng.NextBounded(96));  // one home entry
      }
    };
    SparseRowMatrix s(3);
    ReferenceRows ref;
    ref.cols = 3;
    for (int op = 0; op < 400; ++op) {
      const std::uint64_t kind = rng.NextBounded(100);
      if (kind < 55) {  // RowMutable, new or existing
        const std::size_t id = draw_id();
        const auto row = s.RowMutable(id);
        ASSERT_EQ(row.size(), ref.cols);
        if (ref.rows.count(id) == 0) {
          for (float v : row) ASSERT_EQ(v, 0.0f) << "new row " << id;
          ref.rows[id].assign(ref.cols, 0.0f);
          ref.order.push_back(id);
        }
        const std::size_t d = rng.NextBounded(ref.cols);
        row[d] += 1.0f + static_cast<float>(op);
        ref.rows[id][d] += 1.0f + static_cast<float>(op);
      } else if (kind < 80) {  // lookups, mostly of absent ids
        const std::size_t id = draw_id();
        ASSERT_EQ(s.Contains(id), ref.rows.count(id) == 1) << id;
        if (ref.rows.count(id) == 1) {
          ASSERT_EQ(s.Row(id)[0], ref.rows[id][0]);
        }
      } else if (kind < 86) {  // Clear or Reset to a new shape
        const std::size_t cols = 1 + rng.NextBounded(8);
        if (kind < 83) {
          s.Clear();
        } else {
          s.Reset(cols);
          ref.cols = cols;
        }
        ref.rows.clear();
        ref.order.clear();
      } else {  // AssignPackedRows, maybe hostile, maybe with repeats
        const std::size_t cols = 1 + rng.NextBounded(8);
        const bool colliding = rng.NextBounded(3) == 0;
        const std::size_t count = rng.NextBounded(colliding ? 160 : 80);
        std::vector<std::size_t> ids;
        std::map<std::size_t, int> seen;
        for (std::size_t i = 0; i < count; ++i) {
          const std::size_t id = colliding ? CollidingRowId(rng.NextBounded(400))
                                           : draw_id();
          ids.push_back(id);
          ++seen[id];
        }
        std::size_t smallest_repeat = 0;
        bool repeated = false;
        for (const auto& [id, n] : seen) {
          if (n > 1) {
            smallest_repeat = id;
            repeated = true;
            break;
          }
        }
        ReferenceRows loaded;
        loaded.cols = cols;
        const std::vector<char> records = PackRecords(ids, cols, rng, &loaded);
        std::size_t duplicate = 0;
        const bool ok =
            s.AssignPackedRows(cols, records.data(), ids.size(), duplicate);
        ASSERT_EQ(ok, !repeated) << "seed " << seed << " op " << op;
        ref.cols = cols;
        if (ok) {
          ref = loaded;
        } else {
          EXPECT_EQ(duplicate, smallest_repeat);
          EXPECT_TRUE(s.empty());
          ref.rows.clear();
          ref.order.clear();
        }
      }
      if (op % 16 == 0) ExpectMatchesReference(s, ref);
    }
    ExpectMatchesReference(s, ref);
  }
}

TEST(SparseRowMatrixTest, HostileLoadFallsBackAndStaysUsable) {
  // 200 ids on one home entry blow the probe budget; the matrix then serves
  // lookups and inserts from the sorted fallback, and a Clear() hands it back
  // to hashing with a clean table.
  std::vector<std::size_t> ids;
  for (std::uint64_t t = 200; t > 0; --t) ids.push_back(CollidingRowId(t));
  Rng rng(3);
  ReferenceRows ref;
  ref.cols = 2;
  const std::vector<char> records = PackRecords(ids, 2, rng, &ref);
  SparseRowMatrix s;
  std::size_t duplicate = 0;
  ASSERT_TRUE(s.AssignPackedRows(2, records.data(), ids.size(), duplicate));
  ExpectMatchesReference(s, ref);
  EXPECT_FALSE(s.Contains(CollidingRowId(0)));
  EXPECT_FALSE(s.Contains(CollidingRowId(201)));
  for (const std::size_t id : {CollidingRowId(0), CollidingRowId(500),
                               std::size_t{7}, CollidingRowId(100)}) {
    if (ref.rows.count(id) == 0) {
      ref.rows[id].assign(2, 0.0f);
      ref.order.push_back(id);
    }
    s.RowMutable(id)[1] += 2.0f;
    ref.rows[id][1] += 2.0f;
  }
  ExpectMatchesReference(s, ref);
  s.Clear();
  EXPECT_FALSE(s.Contains(CollidingRowId(100)));
  s.RowMutable(5)[0] = 1.0f;
  s.RowMutable(CollidingRowId(3))[0] = 2.0f;
  EXPECT_EQ(s.row_ids(),
            (std::vector<std::size_t>{5, CollidingRowId(3)}));
  EXPECT_EQ(s.Row(5)[0], 1.0f);
  EXPECT_FALSE(s.Contains(CollidingRowId(4)));
}

TEST(SparseRowMatrixTest, AssignPackedRowsReportsTheSmallestRepeat) {
  // 9 repeats before 4 in load order; both in a hashable and a hostile load.
  for (const bool colliding : {false, true}) {
    auto id = [colliding](std::uint64_t t) {
      return colliding ? CollidingRowId(t) : static_cast<std::size_t>(t);
    };
    std::vector<std::size_t> ids;
    for (std::uint64_t t = 1; t <= 120; ++t) ids.push_back(id(t));
    ids.push_back(id(9));
    ids.push_back(id(4));
    Rng rng(5);
    const std::vector<char> records = PackRecords(ids, 1, rng, nullptr);
    SparseRowMatrix s(1);
    s.RowMutable(77);
    std::size_t duplicate = 0;
    EXPECT_FALSE(s.AssignPackedRows(1, records.data(), ids.size(), duplicate));
    EXPECT_EQ(duplicate, std::min(id(9), id(4))) << colliding;
    EXPECT_TRUE(s.empty());
    EXPECT_FALSE(s.Contains(77));
    EXPECT_FALSE(s.Contains(id(9)));
  }
}

TEST(SparseAllocationCounterTest, RowMatrixGrowthCountedReuseFree) {
  SparseRowMatrix s(4);
  ResetSparseAllocationCount();
  s.RowMutable(7)[0] = 1.0f;
  s.RowMutable(2)[0] = 2.0f;
  EXPECT_GT(SparseAllocationCount(), 0u);
  // Same-shaped refill after Reset: served entirely from retained capacity.
  s.Reset(4);
  ResetSparseAllocationCount();
  const std::uint64_t news_before = test_support::OperatorNewCount();
  s.RowMutable(7)[0] = 3.0f;
  s.RowMutable(2)[0] = 4.0f;
  EXPECT_EQ(test_support::OperatorNewCount() - news_before, 0u);
  EXPECT_EQ(SparseAllocationCount(), 0u);
}

TEST(SparseAllocationCounterTest, DeltaGrowthCountedReuseFree) {
  SparseRoundDelta delta;
  delta.Reset(3);
  ResetSparseAllocationCount();
  delta.AppendRow(1);
  delta.AppendRow(5);
  EXPECT_GT(SparseAllocationCount(), 0u);
  delta.Reset(3);
  ResetSparseAllocationCount();
  delta.AppendRow(0);
  delta.AppendRow(9);
  EXPECT_EQ(SparseAllocationCount(), 0u);
}

}  // namespace
}  // namespace fedrec
