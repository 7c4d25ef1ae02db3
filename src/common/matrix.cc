#include "common/matrix.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <numeric>

#include "common/math.h"

namespace fedrec {

void Matrix::Fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

void Matrix::FillGaussian(Rng& rng, float mean, float stddev) {
  for (float& v : data_) {
    v = static_cast<float>(rng.NextGaussian(mean, stddev));
  }
}

void Matrix::FillUniform(Rng& rng, float lo, float hi) {
  FEDREC_CHECK_LE(lo, hi);
  for (float& v : data_) {
    v = lo + (hi - lo) * rng.NextFloat();
  }
}

void Matrix::Add(const Matrix& other, float alpha) {
  FEDREC_CHECK_EQ(rows_, other.rows_);
  FEDREC_CHECK_EQ(cols_, other.cols_);
  kernels::Axpy(alpha, other.data_.data(), data_.data(), data_.size());
}

float Matrix::FrobeniusNorm() const {
  double acc = 0.0;
  for (float v : data_) acc += static_cast<double>(v) * v;
  return static_cast<float>(std::sqrt(acc));
}

std::size_t Matrix::CountNonZeroRows() const {
  std::size_t count = 0;
  for (std::size_t i = 0; i < rows_; ++i) {
    const auto row = Row(i);
    for (float v : row) {
      if (v != 0.0f) {
        ++count;
        break;
      }
    }
  }
  return count;
}

// fedrec:hot — every Row and Contains lookup lands here.
std::size_t SparseRowMatrix::FindSlot(std::size_t row) const {
  if (index_.empty()) return kNpos;
  if (sorted_) {
    const std::size_t pos = SortedPosition(row);
    return pos < index_.size() && index_[table_[pos]] == row ? table_[pos]
                                                              : kNpos;
  }
  const std::size_t mask = table_.size() - 1;
  for (std::size_t pos = Home(row);; pos = (pos + 1) & mask) {
    const std::uint32_t entry = table_[pos];
    if (entry == 0) return kNpos;
    if (index_[entry - 1] == row) return entry - 1;
  }
}

std::size_t SparseRowMatrix::SortedPosition(std::size_t row) const {
  const auto begin = table_.begin();
  const auto end = begin + static_cast<std::ptrdiff_t>(index_.size());
  const auto it = std::lower_bound(
      begin, end, row,
      [this](std::uint32_t slot, std::size_t id) { return index_[slot] < id; });
  return static_cast<std::size_t>(it - begin);
}

// fedrec:hot — every row of every upload and attack accumulator is created
// here; growth happens only up to the high-water row count.
std::span<float> SparseRowMatrix::RowMutable(std::size_t row) {
  if (sorted_) return SortedRowMutable(row);
  if (2 * (index_.size() + 1) > table_.size()) {
    Rehash(std::max(kMinTableSize, 2 * table_.size()));
  }
  const std::size_t mask = table_.size() - 1;
  std::size_t pos = Home(row);
  for (std::uint32_t entry; (entry = table_[pos]) != 0;
       pos = (pos + 1) & mask) {
    if (index_[entry - 1] == row) return MutableRowAt(entry - 1);
  }
  const std::size_t slot = AppendZeroRow(row);
  table_[pos] = static_cast<std::uint32_t>(slot + 1);
  return MutableRowAt(slot);
}

std::span<float> SparseRowMatrix::SortedRowMutable(std::size_t row) {
  // The fallback after a hostile AssignPackedRows: an O(rows) sorted insert.
  const std::size_t count = index_.size();
  const std::size_t pos = SortedPosition(row);
  if (pos < count && index_[table_[pos]] == row) {
    return MutableRowAt(table_[pos]);
  }
  if (count == table_.size()) {
    ResizeTable(std::max(kMinTableSize, 2 * table_.size()));
  }
  std::copy_backward(table_.begin() + static_cast<std::ptrdiff_t>(pos),
                     table_.begin() + static_cast<std::ptrdiff_t>(count),
                     table_.begin() + static_cast<std::ptrdiff_t>(count + 1));
  table_[pos] = static_cast<std::uint32_t>(count);
  return MutableRowAt(AppendZeroRow(row));
}

// fedrec:hot
std::size_t SparseRowMatrix::AppendZeroRow(std::size_t row) {
  const std::size_t slot = index_.size();
  internal::NoteSparseGrowth(slot + 1, index_.capacity());
  index_.push_back(row);  // fedrec:alloc-ok — high-water row ids
  const std::size_t needed = (slot + 1) * cols_;
  if (values_.size() < needed) {
    internal::NoteSparseGrowth(needed, values_.capacity());
    values_.resize(needed);  // fedrec:alloc-ok — high-water values
  }
  // Reused high-water storage may be stale: a new row starts at zero.
  std::fill_n(values_.begin() + static_cast<std::ptrdiff_t>(slot * cols_),
              cols_, 0.0f);
  return slot;
}

// fedrec:hot — the id->slot table's high-water growth.
void SparseRowMatrix::ResizeTable(std::size_t size) {
  // Hashed entries hold slot + 1 in a uint32_t and at most size / 2 rows.
  FEDREC_CHECK_LE(size, std::size_t{1} << 32) << "sparse row table too large";
  internal::NoteSparseGrowth(size, table_.capacity());
  table_.resize(size);  // fedrec:alloc-ok — high-water table
  table_shift_ = 64 - static_cast<unsigned>(std::countr_zero(size));
}

// fedrec:hot — the table build behind RowMutable's growth.
void SparseRowMatrix::Rehash(std::size_t size) {
  ResizeTable(size);
  std::fill(table_.begin(), table_.end(), 0u);
  const std::size_t mask = size - 1;
  for (std::size_t slot = 0; slot < index_.size(); ++slot) {
    std::size_t pos = Home(index_[slot]);
    while (table_[pos] != 0) pos = (pos + 1) & mask;
    table_[pos] = static_cast<std::uint32_t>(slot + 1);
  }
}

void SparseRowMatrix::ZeroEntry(std::size_t slot) {
  // Matches the entry's value rather than its key, so entries already zeroed
  // earlier in the probe run do not end the scan.
  const std::size_t mask = table_.size() - 1;
  std::size_t pos = Home(index_[slot]);
  while (table_[pos] != slot + 1) pos = (pos + 1) & mask;
  table_[pos] = 0;
}

std::span<const float> SparseRowMatrix::Row(std::size_t row) const {
  const std::size_t slot = FindSlot(row);
  FEDREC_CHECK(slot != kNpos) << "row " << row << " absent from sparse upload";
  return std::span<const float>(values_.data() + slot * cols_, cols_);
}

bool SparseRowMatrix::Contains(std::size_t row) const {
  return FindSlot(row) != kNpos;
}

void SparseRowMatrix::Clear() {
  if (sorted_) {
    std::fill_n(table_.begin(), index_.size(), 0u);
    sorted_ = false;
  } else {
    for (std::size_t slot = 0; slot < index_.size(); ++slot) ZeroEntry(slot);
  }
  index_.clear();
}

namespace {

/// Sets `buffer`'s size to `size`, growing its capacity geometrically as
/// push_back would: the next reload a few rows larger then fits in place.
template <typename T>
void GrowToSize(std::vector<T>& buffer, std::size_t size) {
  if (size > buffer.capacity()) {
    internal::NoteSparseGrowth(size, buffer.capacity());
    buffer.reserve(std::max(size, 2 * buffer.capacity()));
  }
  buffer.resize(size);
}

}  // namespace

// fedrec:hot — the FRWU decode bulk load: every upload of every round lands
// here; growth happens only up to the high-water row count.
bool SparseRowMatrix::AssignPackedRows(std::size_t cols, const char* records,
                                       std::size_t row_count,
                                       std::size_t& duplicate) {
  Clear();
  cols_ = cols;
  GrowToSize(index_, row_count);
  // values_ only ever grows: its stale tail is never read.
  if (values_.size() < row_count * cols) GrowToSize(values_, row_count * cols);
  const std::size_t table_size =
      std::bit_ceil(std::max(kMinTableSize, 2 * row_count));
  if (table_.size() < table_size) ResizeTable(table_size);  // still all zero
  const std::size_t mask = table_.size() - 1;
  std::size_t budget = kProbeBudgetPerRow * row_count + kProbeBudgetSlack;
  std::size_t hashed = row_count;  // rows entered before the table gave up
  const std::size_t value_bytes = cols * sizeof(float);
  for (std::size_t slot = 0; slot < row_count; ++slot) {
    std::uint64_t id;
    std::memcpy(&id, records, sizeof(id));
    index_[slot] = static_cast<std::size_t>(id);
    if (value_bytes != 0) {
      std::memcpy(values_.data() + slot * cols, records + sizeof(id),
                  value_bytes);
    }
    records += sizeof(id) + value_bytes;
    if (hashed != row_count) continue;
    std::size_t pos = Home(index_[slot]);
    std::uint32_t entry;
    while ((entry = table_[pos]) != 0 && index_[entry - 1] != index_[slot]) {
      if (budget-- == 0) break;
      pos = (pos + 1) & mask;
    }
    if (entry == 0) {
      table_[pos] = static_cast<std::uint32_t>(slot + 1);
    } else {
      hashed = slot;  // a repeated id, or the probe budget is spent
    }
  }
  if (hashed == row_count) return true;

  // Error path and hostile-id fallback: drop the partial table and sort the
  // slots by id into its prefix. The first equal neighbours in ascending
  // order hold the smallest repeated id.
  for (std::size_t slot = 0; slot < hashed; ++slot) ZeroEntry(slot);
  const auto begin = table_.begin();
  const auto end = begin + static_cast<std::ptrdiff_t>(row_count);
  std::iota(begin, end, std::uint32_t{0});
  std::sort(begin, end, [this](std::uint32_t a, std::uint32_t b) {
    return index_[a] < index_[b];
  });
  sorted_ = true;
  for (std::size_t i = 1; i < row_count; ++i) {
    if (index_[table_[i]] == index_[table_[i - 1]]) {
      duplicate = index_[table_[i]];
      Clear();
      return false;
    }
  }
  return true;
}

void SparseRowMatrix::AddTo(Matrix& target, float alpha) const {
  FEDREC_CHECK_EQ(target.cols(), cols_);
  for (std::size_t slot = 0; slot < index_.size(); ++slot) {
    const std::size_t row = index_[slot];
    FEDREC_CHECK_LT(row, target.rows());
    std::span<const float> src(values_.data() + slot * cols_, cols_);
    Axpy(alpha, src, target.Row(row));
  }
}

void SparseRowMatrix::ClipRows(float max_norm) {
  for (std::size_t slot = 0; slot < index_.size(); ++slot) {
    std::span<float> row(values_.data() + slot * cols_, cols_);
    ClipL2(row, max_norm);
  }
}

void SparseRowMatrix::AddGaussianNoise(Rng& rng, float stddev) {
  if (stddev <= 0.0f) return;
  const std::size_t count = index_.size() * cols_;
  for (std::size_t i = 0; i < count; ++i) {
    values_[i] += static_cast<float>(rng.NextGaussian(0.0, stddev));
  }
}

float SparseRowMatrix::MaxRowNorm() const {
  float max_norm = 0.0f;
  for (std::size_t slot = 0; slot < index_.size(); ++slot) {
    std::span<const float> row(values_.data() + slot * cols_, cols_);
    max_norm = std::max(max_norm, L2Norm(row));
  }
  return max_norm;
}

std::size_t SparseRowMatrix::CountNonZeroRows() const {
  std::size_t count = 0;
  for (std::size_t slot = 0; slot < index_.size(); ++slot) {
    std::span<const float> row(values_.data() + slot * cols_, cols_);
    for (float v : row) {
      if (v != 0.0f) {
        ++count;
        break;
      }
    }
  }
  return count;
}

void SparseRoundDelta::AddTo(Matrix& target, float alpha) const {
  FEDREC_CHECK_EQ(target.cols(), cols_);
  for (std::size_t slot = 0; slot < rows_.size(); ++slot) {
    const std::size_t row = rows_[slot];
    FEDREC_CHECK_LT(row, target.rows());
    kernels::Axpy(alpha, values_.data() + slot * cols_,
                  target.Row(row).data(), cols_);
  }
}

Matrix SparseRoundDelta::ToDense(std::size_t num_items) const {
  Matrix dense(num_items, cols_);
  for (std::size_t slot = 0; slot < rows_.size(); ++slot) {
    FEDREC_CHECK_LT(rows_[slot], num_items);
    std::copy(values_.begin() + static_cast<std::ptrdiff_t>(slot * cols_),
              values_.begin() + static_cast<std::ptrdiff_t>((slot + 1) * cols_),
              dense.Row(rows_[slot]).begin());
  }
  return dense;
}

}  // namespace fedrec
