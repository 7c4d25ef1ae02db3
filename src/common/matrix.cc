#include "common/matrix.h"

#include <algorithm>
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

std::size_t SparseRowMatrix::FindSlot(std::size_t row) const {
  // Out-of-range rejects are free and common (server probing absent rows).
  if (lookup_rows_.empty() || row < lookup_rows_.front() ||
      row > lookup_rows_.back()) {
    return kNpos;
  }
  const auto it =
      std::lower_bound(lookup_rows_.begin(), lookup_rows_.end(), row);
  if (it != lookup_rows_.end() && *it == row) {
    return lookup_slots_[static_cast<std::size_t>(it - lookup_rows_.begin())];
  }
  return kNpos;
}

std::span<float> SparseRowMatrix::RowMutable(std::size_t row) {
  std::size_t slot = FindSlot(row);
  if (slot == kNpos) {
    slot = index_.size();
    internal::NoteSparseGrowth(index_.size() + 1, index_.capacity());
    internal::NoteSparseGrowth(lookup_rows_.size() + 1, lookup_rows_.capacity());
    internal::NoteSparseGrowth(lookup_slots_.size() + 1,
                               lookup_slots_.capacity());
    index_.push_back(row);
    const std::size_t needed = (slot + 1) * cols_;
    if (values_.size() < needed) {
      internal::NoteSparseGrowth(needed, values_.capacity());
      values_.resize(needed);
    }
    // Reused high-water storage may be stale: a new row starts at zero.
    std::fill_n(values_.begin() + static_cast<std::ptrdiff_t>(slot * cols_),
                cols_, 0.0f);
    const auto it =
        std::lower_bound(lookup_rows_.begin(), lookup_rows_.end(), row);
    const auto pos = it - lookup_rows_.begin();
    lookup_rows_.insert(it, row);
    lookup_slots_.insert(lookup_slots_.begin() + pos, slot);
  }
  return std::span<float>(values_.data() + slot * cols_, cols_);
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
  index_.clear();
  lookup_rows_.clear();
  lookup_slots_.clear();
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
  cols_ = cols;
  GrowToSize(index_, row_count);
  GrowToSize(lookup_rows_, row_count);
  GrowToSize(lookup_slots_, row_count);
  // values_ only ever grows: its stale tail is never read.
  if (values_.size() < row_count * cols) GrowToSize(values_, row_count * cols);
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
  }

  std::iota(lookup_slots_.begin(), lookup_slots_.end(), std::size_t{0});
  std::sort(lookup_slots_.begin(), lookup_slots_.end(),
            [this](std::size_t a, std::size_t b) {
              return index_[a] < index_[b];
            });
  for (std::size_t i = 0; i < row_count; ++i) {
    lookup_rows_[i] = index_[lookup_slots_[i]];
    if (i > 0 && lookup_rows_[i] == lookup_rows_[i - 1]) {
      duplicate = lookup_rows_[i];
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
