#include "fed/aggregator.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/kernels.h"
#include "common/math.h"
#include "common/threadpool.h"

namespace fedrec {

const char* AggregatorKindToString(AggregatorKind kind) {
  switch (kind) {
    case AggregatorKind::kSum:
      return "sum";
    case AggregatorKind::kTrimmedMean:
      return "trimmed-mean";
    case AggregatorKind::kMedian:
      return "median";
    case AggregatorKind::kNormBound:
      return "norm-bound";
    case AggregatorKind::kKrum:
      return "krum";
  }
  return "?";
}

void GroupRowIndex(AggregationWorkspace& workspace) {
  std::vector<RowContribution>& entries = workspace.row_index;
  std::size_t max_row = 0;
  for (const RowContribution& entry : entries) {
    max_row = std::max(max_row, entry.row);
  }
  // Stable LSD radix passes over the row bytes: branch-free counting
  // scatters group the entries by row while preserving index order within a
  // row (what stable_sort gave, minus its per-call temp buffer and minus a
  // comparison sort's mispredicted branches on fresh data every round).
  std::vector<RowContribution>& scratch = workspace.row_index_scratch;
  std::vector<std::uint32_t>& counts = workspace.radix_counts;
  scratch.resize(entries.size());
  counts.resize(256);
  std::vector<RowContribution>* source = &entries;
  std::vector<RowContribution>* target = &scratch;
  for (std::size_t shift = 0;
       shift < 64 && ((max_row >> shift) != 0 || shift == 0); shift += 8) {
    std::fill(counts.begin(), counts.end(), 0u);
    for (const RowContribution& entry : *source) {
      ++counts[(entry.row >> shift) & 0xFF];
    }
    std::uint32_t running = 0;
    for (std::uint32_t& count : counts) {
      const std::uint32_t begin = running;
      running += count;
      count = begin;
    }
    for (const RowContribution& entry : *source) {
      (*target)[counts[(entry.row >> shift) & 0xFF]++] = entry;
    }
    std::swap(source, target);
  }
  if (source != &entries) entries.swap(scratch);
}

namespace {

/// Fills workspace.group_offsets/group_rows with the start and row id of
/// every contiguous same-row run of the sorted index (plus a trailing
/// offset sentinel) and bulk-assigns the rows to the delta WITHOUT zeroing —
/// every rule below writes its first contribution into the row instead of
/// accumulating onto zeros. Returns the group count. After this, shards may
/// fill out.RowAtSlot(g) for disjoint group ranges without shared state.
std::size_t BuildGroups(AggregationWorkspace& workspace, SparseRoundDelta& out) {
  const std::vector<RowContribution>& entries = workspace.row_index;
  std::vector<std::size_t>& offsets = workspace.group_offsets;
  std::vector<std::size_t>& rows = workspace.group_rows;
  offsets.clear();
  rows.clear();
  for (std::size_t group_begin = 0; group_begin < entries.size();) {
    const std::size_t row = entries[group_begin].row;
    offsets.push_back(group_begin);
    rows.push_back(row);
    std::size_t group_end = group_begin;
    while (group_end < entries.size() && entries[group_end].row == row) {
      ++group_end;
    }
    group_begin = group_end;
  }
  offsets.push_back(entries.size());
  out.AssignRowsForOverwrite(rows);
  return rows.size();
}

/// Runs worker(group_begin, group_end, scratch) over a static partition of
/// the groups into `num_shards` contiguous ranges (0 = pool size, 1 without
/// a pool), fanned across `pool` when present. Row groups are independent
/// and the partition never splits a group, so the result is bit-identical
/// to the serial sweep for every shard count.
template <typename Worker>
void ForEachGroupSharded(AggregationWorkspace& workspace, std::size_t groups,
                         ThreadPool* pool, std::size_t num_shards,
                         Worker&& worker) {
  std::size_t shards = num_shards != 0
                           ? num_shards
                           : (pool != nullptr ? pool->thread_count() : 1);
  shards = std::min(std::max<std::size_t>(1, shards), groups);
  if (workspace.shards.size() < shards) workspace.shards.resize(shards);
  if (shards == 1) {
    worker(0, groups, workspace.shards[0]);
    return;
  }
  ParallelFor(pool, shards, [&](std::size_t s) {
    worker(groups * s / shards, groups * (s + 1) / shards,
           workspace.shards[s]);
  });
}

void AggregateSumGroups(const AggregationWorkspace& workspace, std::size_t dim,
                        std::size_t group_begin, std::size_t group_end,
                        SparseRoundDelta& out) {
  // Each output element accumulates its contributors in update order
  // (stable sort), exactly like the historical per-update dense AddTo sweep;
  // the first contributor is copied (rows arrive unzeroed), the rest add.
  for (std::size_t g = group_begin; g < group_end; ++g) {
    const RowContribution* contributors =
        workspace.row_index.data() + workspace.group_offsets[g];
    const std::size_t n =
        workspace.group_offsets[g + 1] - workspace.group_offsets[g];
    auto acc = out.RowAtSlot(g);
    std::copy(contributors[0].data, contributors[0].data + dim, acc.begin());
    for (std::size_t i = 1; i < n; ++i) {
      kernels::Axpy(1.0f, contributors[i].data, acc.data(), dim);
    }
  }
}

void AggregateNormBoundGroups(const AggregationWorkspace& workspace,
                              std::size_t dim, double norm_bound,
                              std::size_t group_begin, std::size_t group_end,
                              AggregationWorkspace::ShardScratch& scratch,
                              SparseRoundDelta& out) {
  std::vector<float>& clipped = scratch.clipped;
  clipped.resize(dim);
  for (std::size_t g = group_begin; g < group_end; ++g) {
    const RowContribution* contributors =
        workspace.row_index.data() + workspace.group_offsets[g];
    const std::size_t n =
        workspace.group_offsets[g + 1] - workspace.group_offsets[g];
    auto acc = out.RowAtSlot(g);
    // First contributor is clipped straight into the (unzeroed) output row;
    // later contributors clip into scratch and add.
    std::copy(contributors[0].data, contributors[0].data + dim, acc.begin());
    ClipL2(acc, static_cast<float>(norm_bound));
    for (std::size_t i = 1; i < n; ++i) {
      std::copy(contributors[i].data, contributors[i].data + dim,
                clipped.begin());
      ClipL2(clipped, static_cast<float>(norm_bound));
      Axpy(1.0f, clipped, acc);
    }
  }
}

// fedrec:hot — the median / trimmed-mean reduction; its scratch grows only
// to the largest row group held so far.
void AggregateCoordinateWiseGroups(
    const AggregationWorkspace& workspace, std::size_t dim, bool median,
    double trim_fraction, std::size_t group_begin, std::size_t group_end,
    AggregationWorkspace::ShardScratch& scratch, SparseRoundDelta& out) {
  std::vector<float>& tile = scratch.tile;
  std::vector<double>& sums = scratch.sums;
  for (std::size_t g = group_begin; g < group_end; ++g) {
    const RowContribution* contributors =
        workspace.row_index.data() + workspace.group_offsets[g];
    const std::size_t n =
        workspace.group_offsets[g + 1] - workspace.group_offsets[g];
    auto acc = out.RowAtSlot(g);
    // Exact median shortcuts for the commonest groups: one contributor
    // passes through (float(double(v) * 1) == v), and two contributors give
    // their float sum (float(0.5 * double(a + b) * 2) == a + b). The trimmed
    // mean has none: its sum starts at +0.0, which turns a lone -0 into +0.
    if (median && n <= 2) {
      std::copy(contributors[0].data, contributors[0].data + dim, acc.begin());
      if (n == 2) kernels::Axpy(1.0f, contributors[1].data, acc.data(), dim);
      continue;
    }
    // Gather the group into an n x dim tile and sort all dim columns at once;
    // the network's rows then read out exactly what a sorted column held.
    tile.resize(n * dim);  // fedrec:alloc-ok — high water of the largest group
    for (std::size_t i = 0; i < n; ++i) {
      std::copy(contributors[i].data, contributors[i].data + dim,
                tile.begin() + static_cast<std::ptrdiff_t>(i * dim));
    }
    kernels::SortColumns(tile.data(), n, dim);
    const double count = static_cast<double>(n);
    if (median) {
      const float* upper = tile.data() + (n / 2) * dim;
      if (n % 2 == 1) {
        for (std::size_t d = 0; d < dim; ++d) {
          acc[d] = static_cast<float>(static_cast<double>(upper[d]) * count);
        }
      } else {
        // Float addition of the two middles first, exactly like the
        // historical column[n/2 - 1] + column[n/2] on the sorted column.
        const float* lower = upper - dim;
        for (std::size_t d = 0; d < dim; ++d) {
          acc[d] = static_cast<float>(0.5 * (lower[d] + upper[d]) * count);
        }
      }
      continue;
    }
    std::size_t trim = static_cast<std::size_t>(
        std::floor(trim_fraction * static_cast<double>(n)));
    if (2 * trim >= n) trim = (n - 1) / 2;
    // Sum the kept middle rows in ascending order per column, in double from
    // +0.0: the sorted-column reference's operation sequence, bit for bit.
    sums.assign(dim, 0.0);  // fedrec:alloc-ok — grows once to dim
    for (std::size_t i = trim; i < n - trim; ++i) {
      const float* row = tile.data() + i * dim;
      for (std::size_t d = 0; d < dim; ++d) sums[d] += row[d];
    }
    const double kept = static_cast<double>(n - 2 * trim);
    for (std::size_t d = 0; d < dim; ++d) {
      // Rescale by the contributor count to stay comparable with kSum.
      acc[d] = static_cast<float>(sums[d] / kept * count);
    }
  }
}

/// Emits the grouped index (the selected upload's rows, ascending) into
/// `out` scaled by `scale` — the Krum emit step.
void EmitKrumSelected(const AggregationWorkspace& workspace, std::size_t dim,
                      float scale, SparseRoundDelta& out) {
  for (const RowContribution& entry : workspace.row_index) {
    kernels::Axpy(scale, entry.data, out.AppendRow(entry.row).data(), dim);
  }
}

/// Fills `workspace.row_index` with every row of every upload, in update
/// order (the single server's index; GroupRowIndex then groups it).
void FillRowIndex(std::span<const ClientUpdate> updates,
                  AggregationWorkspace& workspace) {
  std::size_t total_rows = 0;
  for (const ClientUpdate& update : updates) {
    total_rows += update.item_gradients.row_count();
  }
  std::vector<RowContribution>& entries = workspace.row_index;
  entries.clear();
  entries.reserve(total_rows);
  for (const ClientUpdate& update : updates) {
    const auto& rows = update.item_gradients.row_ids();
    for (std::size_t slot = 0; slot < rows.size(); ++slot) {
      entries.push_back({rows[slot], update.item_gradients.RowAtSlot(slot).data()});
    }
  }
}

}  // namespace

// fedrec:hot — once per Krum round; every buffer is retained scratch.
std::size_t KrumSelect(std::span<const ClientUpdate> updates,
                       std::size_t num_items, std::size_t dim,
                       std::size_t honest, KrumScratch& scratch) {
  (void)num_items;
  FEDREC_CHECK(!updates.empty());
  const std::size_t n = updates.size();
  if (n == 1) return 0;
  if (honest == 0 || honest > n) {
    honest = static_cast<std::size_t>(std::ceil(0.7 * static_cast<double>(n)));
  }
  // Per-update tables: rows sorted by id with direct value pointers, and the
  // total squared norm. With these,
  //   ||a - b||^2 = ||a||^2 + ||b||^2 - 2 <a, b>
  // over the sparse union, so each pair costs O(overlap * dim) for the shared
  // dot products plus an O(rows) merge — absent rows are covered by the
  // precomputed totals instead of being re-reduced for every pair.
  std::size_t total_rows = 0;
  for (const ClientUpdate& update : updates) {
    total_rows += update.item_gradients.row_count();
  }
  scratch.rows.resize(total_rows);  // fedrec:alloc-ok — retained scratch
  scratch.offsets.resize(n + 1);    // fedrec:alloc-ok — retained scratch
  scratch.norm2.resize(n);          // fedrec:alloc-ok — retained scratch
  std::size_t at = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const SparseRowMatrix& upload = updates[i].item_gradients;
    const auto& row_ids = upload.row_ids();
    const auto begin = scratch.rows.begin() + static_cast<std::ptrdiff_t>(at);
    const auto end = begin + static_cast<std::ptrdiff_t>(row_ids.size());
    for (std::size_t slot = 0; slot < row_ids.size(); ++slot) {
      begin[static_cast<std::ptrdiff_t>(slot)] = {
          row_ids[slot], upload.RowAtSlot(slot).data()};
    }
    std::sort(begin, end, [](const RowContribution& a,
                             const RowContribution& b) { return a.row < b.row; });
    // Coordinate-wise double accumulation: the norm expansion below cancels
    // catastrophically for near-identical updates, so float row norms would
    // drown the true distances of clustered clients in noise.
    double total_norm2 = 0.0;
    for (auto it = begin; it != end; ++it) {
      double norm2 = 0.0;
      for (std::size_t d = 0; d < upload.cols(); ++d) {
        norm2 += static_cast<double>(it->data[d]) * it->data[d];
      }
      total_norm2 += norm2;
    }
    scratch.offsets[i] = at;
    scratch.norm2[i] = total_norm2;
    at += row_ids.size();
  }
  scratch.offsets[n] = at;
  const RowContribution* rows = scratch.rows.data();
  auto distance2 = [&](std::size_t a, std::size_t b) {
    double cross = 0.0;
    std::size_t ia = scratch.offsets[a];
    std::size_t ib = scratch.offsets[b];
    const std::size_t a_end = scratch.offsets[a + 1];
    const std::size_t b_end = scratch.offsets[b + 1];
    while (ia < a_end && ib < b_end) {
      if (rows[ia].row < rows[ib].row) {
        ++ia;
      } else if (rows[ia].row > rows[ib].row) {
        ++ib;
      } else {
        const float* ra = rows[ia].data;
        const float* rb = rows[ib].data;
        for (std::size_t d = 0; d < dim; ++d) {
          cross += static_cast<double>(ra[d]) * rb[d];
        }
        ++ia;
        ++ib;
      }
    }
    return std::max(0.0, scratch.norm2[a] + scratch.norm2[b] - 2.0 * cross);
  };

  std::vector<double>& dist = scratch.distances;
  dist.resize(n * n);  // fedrec:alloc-ok — retained scratch
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      dist[i * n + j] = dist[j * n + i] = distance2(i, j);
    }
  }
  // Score: sum of the closest (honest - 2) neighbour distances.
  const std::size_t neighbours =
      honest >= 2 ? std::min(honest - 2, n - 1) : std::min<std::size_t>(1, n - 1);
  std::size_t best = 0;
  double best_score = std::numeric_limits<double>::infinity();
  std::vector<double>& row = scratch.scores;
  row.resize(n - 1);  // fedrec:alloc-ok — retained scratch
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t k = 0;
    for (std::size_t j = 0; j < n; ++j) {
      if (j != i) row[k++] = dist[i * n + j];
    }
    std::sort(row.begin(), row.end());
    double score = 0.0;
    for (std::size_t r = 0; r < std::max<std::size_t>(1, neighbours) && r < row.size();
         ++r) {
      score += row[r];
    }
    if (score < best_score) {
      best_score = score;
      best = i;
    }
  }
  return best;
}

// fedrec:hot — the server's per-round reduction; all scratch lives in the
// caller-owned workspace, so the body itself may not allocate.
void AggregateUpdates(std::span<const ClientUpdate> updates, std::size_t dim,
                      const AggregatorOptions& options,
                      AggregationWorkspace& workspace, SparseRoundDelta& out,
                      ThreadPool* pool, std::size_t num_shards) {
  if (options.kind == AggregatorKind::kKrum && !updates.empty()) {
    // Krum is a whole-round selection, not a per-row reduction: only the
    // selected upload is indexed (its emit loop is O(kappa * dim)).
    const std::size_t pick =
        KrumSelect(updates, 0, dim, options.krum_honest, workspace.krum);
    FillRowIndex(updates.subspan(pick, 1), workspace);
  } else {
    FillRowIndex(updates, workspace);
  }
  GroupRowIndex(workspace);
  AggregateRowIndex(dim, options, static_cast<float>(updates.size()),
                    workspace, out, pool, num_shards);
}

// fedrec:hot — shared by the single server and every shard server.
void AggregateRowIndex(std::size_t dim, const AggregatorOptions& options,
                       float krum_scale, AggregationWorkspace& workspace,
                       SparseRoundDelta& out, ThreadPool* pool,
                       std::size_t num_shards) {
  out.Reset(dim);
  if (options.kind == AggregatorKind::kKrum) {
    // The selected upload's emit loop never shards.
    EmitKrumSelected(workspace, dim, krum_scale, out);
    return;
  }
  const std::size_t groups = BuildGroups(workspace, out);
  if (groups == 0) return;
  switch (options.kind) {
    case AggregatorKind::kSum:
      ForEachGroupSharded(workspace, groups, pool, num_shards,
                          [&](std::size_t group_begin, std::size_t group_end,
                              AggregationWorkspace::ShardScratch&) {
                            AggregateSumGroups(workspace, dim, group_begin,
                                               group_end, out);
                          });
      return;
    case AggregatorKind::kNormBound:
      ForEachGroupSharded(
          workspace, groups, pool, num_shards,
          [&](std::size_t group_begin, std::size_t group_end,
              AggregationWorkspace::ShardScratch& scratch) {
            AggregateNormBoundGroups(workspace, dim, options.norm_bound,
                                     group_begin, group_end, scratch, out);
          });
      return;
    case AggregatorKind::kTrimmedMean:
      ForEachGroupSharded(
          workspace, groups, pool, num_shards,
          [&](std::size_t group_begin, std::size_t group_end,
              AggregationWorkspace::ShardScratch& scratch) {
            AggregateCoordinateWiseGroups(workspace, dim, /*median=*/false,
                                          options.trim_fraction, group_begin,
                                          group_end, scratch, out);
          });
      return;
    case AggregatorKind::kMedian:
      ForEachGroupSharded(
          workspace, groups, pool, num_shards,
          [&](std::size_t group_begin, std::size_t group_end,
              AggregationWorkspace::ShardScratch& scratch) {
            AggregateCoordinateWiseGroups(workspace, dim, /*median=*/true,
                                          options.trim_fraction, group_begin,
                                          group_end, scratch, out);
          });
      return;
    case AggregatorKind::kKrum:
      return;  // emitted above
  }
}

Matrix AggregateUpdates(std::span<const ClientUpdate> updates,
                        std::size_t num_items, std::size_t dim,
                        const AggregatorOptions& options) {
  AggregationWorkspace workspace;
  SparseRoundDelta delta;
  AggregateUpdates(updates, dim, options, workspace, delta);
  return delta.ToDense(num_items);
}

}  // namespace fedrec
