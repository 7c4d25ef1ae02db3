#ifndef FEDREC_COMMON_MATRIX_H_
#define FEDREC_COMMON_MATRIX_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/rng.h"

/// \file
/// Row-major dense float matrix. Rows are the unit of exchange in federated
/// recommendation: item feature vectors v_j and user feature vectors u_i are
/// rows, and uploaded gradients are (sparse sets of) rows.

namespace fedrec {

namespace internal {
/// Process-wide count of heap-growth events in the sparse round containers
/// (SparseRowMatrix, SparseRoundDelta). Incremented whenever an internal
/// buffer must reallocate; operations served from retained capacity add
/// nothing. The round loop's steady-state zero-allocation guarantee is
/// measured against this counter (tests and bench_round_engine).
inline std::atomic<std::uint64_t> g_sparse_allocations{0};

/// Notes one growth event when `needed` exceeds `capacity`.
inline void NoteSparseGrowth(std::size_t needed, std::size_t capacity) {
  if (needed > capacity) {
    g_sparse_allocations.fetch_add(1, std::memory_order_relaxed);
  }
}
}  // namespace internal

/// Current value of the sparse-container allocation counter.
inline std::uint64_t SparseAllocationCount() {
  return internal::g_sparse_allocations.load(std::memory_order_relaxed);
}

/// Resets the sparse-container allocation counter to zero.
inline void ResetSparseAllocationCount() {
  internal::g_sparse_allocations.store(0, std::memory_order_relaxed);
}

/// Row-major dense matrix of float with contiguous storage.
class Matrix {
 public:
  /// Empty 0x0 matrix.
  Matrix() : rows_(0), cols_(0) {}

  /// rows x cols matrix initialized to zero.
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0f) {}

  Matrix(const Matrix&) = default;
  Matrix& operator=(const Matrix&) = default;
  Matrix(Matrix&&) = default;
  Matrix& operator=(Matrix&&) = default;

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  /// Mutable view of row i.
  std::span<float> Row(std::size_t i) {
    FEDREC_DCHECK(i < rows_);
    return std::span<float>(data_.data() + i * cols_, cols_);
  }
  /// Const view of row i.
  std::span<const float> Row(std::size_t i) const {
    FEDREC_DCHECK(i < rows_);
    return std::span<const float>(data_.data() + i * cols_, cols_);
  }

  float& At(std::size_t i, std::size_t j) {
    FEDREC_DCHECK(i < rows_ && j < cols_);
    return data_[i * cols_ + j];
  }
  float At(std::size_t i, std::size_t j) const {
    FEDREC_DCHECK(i < rows_ && j < cols_);
    return data_[i * cols_ + j];
  }

  /// Whole backing store (row-major).
  std::span<float> Data() { return data_; }
  std::span<const float> Data() const { return data_; }

  /// Sets every element to `value`.
  void Fill(float value);

  /// Sets every element to an independent N(mean, stddev^2) draw. The standard
  /// initializer for feature matrices (paper uses small Gaussian init).
  void FillGaussian(Rng& rng, float mean, float stddev);

  /// Sets every element to an independent U[lo, hi) draw.
  void FillUniform(Rng& rng, float lo, float hi);

  /// this += alpha * other (same shape required).
  void Add(const Matrix& other, float alpha = 1.0f);

  /// Frobenius norm of the whole matrix.
  float FrobeniusNorm() const;

  /// Number of rows with a nonzero entry — the quantity bounded by kappa in
  /// Eq. (9)/(10) of the paper.
  std::size_t CountNonZeroRows() const;

  friend bool operator==(const Matrix& a, const Matrix& b) {
    return a.rows_ == b.rows_ && a.cols_ == b.cols_ && a.data_ == b.data_;
  }

 private:
  std::size_t rows_;
  std::size_t cols_;
  std::vector<float> data_;
};

/// A sparse set of matrix rows — the wire format of a federated upload.
/// A benign client uploads gradient rows only for the items it touched; a
/// malicious client uploads rows only for its selected item set V_i, so the
/// server-visible footprint of both is identical in kind.
///
/// Row id -> slot lookup is one flat open-addressing table of uint32_t
/// entries, each 0 (empty) or slot + 1; the key itself is read back from
/// row_ids(). The capacity is a power of two at least twice the rows held,
/// a row's home entry is the top bits of id * kSlotHashMultiplier
/// (multiplicative hashing of the full 64-bit id), and collisions probe
/// linearly, so RowMutable, Row and Contains are O(1) expected. The table is
/// a high-water buffer: Clear() zeroes only the entries of the rows held.
///
/// Worst case: AssignPackedRows loads ids off the network, and a peer can
/// pick ids that all share one home entry. A build whose probes exceed
/// kProbeBudgetPerRow * rows + kProbeBudgetSlack stops hashing and instead
/// sorts the slots by id into the table's prefix; that matrix then answers
/// lookups by binary search and inserts in sorted order until the next
/// Clear(). A decode therefore costs O(n log n) at worst.
class SparseRowMatrix {
 public:
  /// Multiplier of the row-id hash (2^64 / golden ratio, odd).
  static constexpr std::uint64_t kSlotHashMultiplier = 0x9E3779B97F4A7C15ull;

  SparseRowMatrix() : cols_(0) {}
  explicit SparseRowMatrix(std::size_t cols) : cols_(cols) {}

  std::size_t cols() const { return cols_; }
  std::size_t row_count() const { return index_.size(); }
  bool empty() const { return index_.empty(); }

  /// Row ids currently present, in insertion order.
  const std::vector<std::size_t>& row_ids() const { return index_; }

  /// Returns a mutable view of row `row`, creating a zero row if absent.
  std::span<float> RowMutable(std::size_t row);

  /// Const view of row `row`; aborts if the row is absent (see Contains()).
  std::span<const float> Row(std::size_t row) const;

  /// Const view of the row stored at `slot` (its id is row_ids()[slot]).
  /// O(1) — the fast path for full sweeps over an upload, with no per-row
  /// id lookup.
  std::span<const float> RowAtSlot(std::size_t slot) const {
    FEDREC_DCHECK(slot < index_.size());
    return std::span<const float>(values_.data() + slot * cols_, cols_);
  }

  bool Contains(std::size_t row) const;

  /// Removes all rows (keeps the column count).
  void Clear();

  /// Replaces every row with `row_count` packed records, each a native-order
  /// u64 row id followed by `cols` floats (the FRWU payload layout), keeping
  /// the records' order as row_ids(). One pass appends each id, copies its
  /// floats in with a single copy and enters it in the id->slot table.
  /// Returns false, leaving the matrix empty, when an id repeats; `duplicate`
  /// then holds the smallest repeated id (found by a sort, on this error path
  /// and on the probe-budget fallback only). Retained capacity is reused, so
  /// a same-shaped reload allocates nothing.
  [[nodiscard]] bool AssignPackedRows(std::size_t cols, const char* records,
                                      std::size_t row_count,
                                      std::size_t& duplicate);

  /// Drops all rows and sets the column count; every internal buffer keeps
  /// its capacity, so refilling a recycled upload with a same-shaped round
  /// performs no heap allocations (the basis of Client::TrainRoundInto).
  void Reset(std::size_t cols) {
    cols_ = cols;
    Clear();
  }

  /// Accumulates `this` into the dense `target` scaled by alpha.
  void AddTo(Matrix& target, float alpha = 1.0f) const;

  /// Clips every stored row to L2 norm <= max_norm (Eq. 23).
  void ClipRows(float max_norm);

  /// Adds independent N(0, stddev^2) noise to every stored element (Eq. 5).
  void AddGaussianNoise(Rng& rng, float stddev);

  /// Maximum L2 norm across stored rows (0 when empty).
  float MaxRowNorm() const;

  /// Number of rows that contain at least one nonzero element.
  std::size_t CountNonZeroRows() const;

 private:
  std::size_t cols_;
  std::vector<std::size_t> index_;   // row ids, insertion order
  // Row-major values of the first row_count() rows. A high-water buffer like
  // SparseRoundDelta's: Clear() keeps its size, so floats past
  // row_count() * cols are stale leftovers that no reader touches.
  std::vector<float> values_;
  // Row id -> slot table (see the class comment). Hashed: entries are 0 or
  // slot + 1. Sorted fallback (sorted_): the first row_count() entries are
  // the slots in ascending id order, the rest are 0.
  std::vector<std::uint32_t> table_;
  unsigned table_shift_ = 64;  // 64 - log2(table_.size())
  bool sorted_ = false;

  static constexpr std::size_t kNpos = static_cast<std::size_t>(-1);
  static constexpr std::size_t kMinTableSize = 16;
  // Probe budget of one AssignPackedRows table build; past it the build
  // falls back to sorting.
  static constexpr std::size_t kProbeBudgetPerRow = 8;
  static constexpr std::size_t kProbeBudgetSlack = 64;

  std::size_t Home(std::size_t row) const {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(row) * kSlotHashMultiplier) >> table_shift_);
  }
  std::span<float> MutableRowAt(std::size_t slot) {
    return std::span<float>(values_.data() + slot * cols_, cols_);
  }
  std::size_t FindSlot(std::size_t row) const;  // kNpos when absent
  // First sorted-prefix position whose id is >= row (sorted_ only).
  std::size_t SortedPosition(std::size_t row) const;
  std::span<float> SortedRowMutable(std::size_t row);
  std::size_t AppendZeroRow(std::size_t row);  // returns the new slot
  void ResizeTable(std::size_t size);          // keeps the entries
  void Rehash(std::size_t size);               // hashed mode, all rows
  void ZeroEntry(std::size_t slot);            // hashed mode
};

/// The server's aggregate of one federated round, restricted to the item rows
/// the round's clients actually uploaded (Eq. 7 only ever moves those rows).
/// Unlike SparseRowMatrix this is not a wire format: rows are appended in
/// ascending id order by the aggregator, there is no id->slot lookup, and
/// Reset() keeps the backing capacity so a round loop that reuses one delta
/// performs zero steady-state allocations.
class SparseRoundDelta {
 public:
  SparseRoundDelta() = default;

  /// Drops all rows and sets the column count; capacity is retained. The
  /// value store is a high-water buffer: it is never shrunk or cleared, so a
  /// same-shaped next round reuses it without a single write.
  void Reset(std::size_t cols) {
    cols_ = cols;
    rows_.clear();
  }

  std::size_t cols() const { return cols_; }
  std::size_t row_count() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }

  /// Touched row ids in strictly ascending order.
  const std::vector<std::size_t>& rows() const { return rows_; }

  /// Appends a row for `row` and returns its view WITHOUT zeroing it — for
  /// callers that overwrite every element before reading it back (the wire
  /// decoder and the shard merge copy whole rows in). The returned storage
  /// holds whatever the previous round left in the high-water buffer. Ids
  /// must arrive in strictly ascending order.
  std::span<float> AppendRowForOverwrite(std::size_t row) {
    FEDREC_DCHECK(rows_.empty() || rows_.back() < row);
    internal::NoteSparseGrowth(rows_.size() + 1, rows_.capacity());
    rows_.push_back(row);
    const std::size_t needed = rows_.size() * cols_;
    if (values_.size() < needed) {
      internal::NoteSparseGrowth(needed, values_.capacity());
      values_.resize(needed);
    }
    return std::span<float>(values_.data() + (rows_.size() - 1) * cols_, cols_);
  }

  /// Appends a zeroed row for `row` and returns its mutable view. Ids must
  /// arrive in strictly ascending order (the aggregator walks its sorted
  /// row->contributors index).
  std::span<float> AppendRow(std::size_t row) {
    std::span<float> slot = AppendRowForOverwrite(row);
    std::fill(slot.begin(), slot.end(), 0.0f);  // reused storage may be stale
    return slot;
  }

  /// Bulk row assignment for callers that overwrite every element of every
  /// row before reading it back (the aggregator's rules all do: they copy or
  /// write their first contribution instead of accumulating onto zeros).
  /// Skips the per-round zero-fill entirely — the values are whatever the
  /// previous round left in the high-water buffer until the caller writes.
  void AssignRowsForOverwrite(const std::vector<std::size_t>& rows) {
    internal::NoteSparseGrowth(rows.size(), rows_.capacity());
    rows_ = rows;
    const std::size_t needed = rows_.size() * cols_;
    if (values_.size() < needed) {
      internal::NoteSparseGrowth(needed, values_.capacity());
      values_.resize(needed);
    }
  }

  std::span<float> RowAtSlot(std::size_t slot) {
    FEDREC_DCHECK(slot < rows_.size());
    return std::span<float>(values_.data() + slot * cols_, cols_);
  }
  std::span<const float> RowAtSlot(std::size_t slot) const {
    FEDREC_DCHECK(slot < rows_.size());
    return std::span<const float>(values_.data() + slot * cols_, cols_);
  }

  /// Scatters `target.Row(rows()[slot]) += alpha * RowAtSlot(slot)` for every
  /// stored row — the sparse application of Eq. (7).
  void AddTo(Matrix& target, float alpha = 1.0f) const;

  /// Materializes the delta as a dense num_items x dim gradient (untouched
  /// rows zero). Compatibility/test path only — the round loop never calls it.
  Matrix ToDense(std::size_t num_items) const;

 private:
  std::size_t cols_ = 0;
  std::vector<std::size_t> rows_;  // ascending
  std::vector<float> values_;      // row_count * cols, row-major
};

}  // namespace fedrec

#endif  // FEDREC_COMMON_MATRIX_H_
