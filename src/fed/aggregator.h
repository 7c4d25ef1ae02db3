#ifndef FEDREC_FED_AGGREGATOR_H_
#define FEDREC_FED_AGGREGATOR_H_

#include <span>
#include <vector>

#include "common/matrix.h"
#include "fed/client.h"
#include "fed/config.h"

/// \file
/// Server-side gradient aggregation. kSum implements the paper's protocol
/// (Eq. 7). The byzantine-robust rules (trimmed mean, median, norm-bound,
/// Krum) implement the future-work defenses of Section VI so the defense
/// ablation bench can measure how FedRecAttack fares against them.
///
/// Robust rules operate per item row over the *contributing* clients only
/// (clients that uploaded a non-zero row for that item), and rescale by the
/// contributor count so their output magnitude is comparable to kSum — in FR
/// most clients touch disjoint item subsets, which is exactly why the paper
/// argues classical byzantine-robust rules fit FR poorly.
///
/// The primary entry point is the sparse-output overload: a round only moves
/// the rows its clients uploaded, so the aggregate is a SparseRoundDelta over
/// the touched rows — O(touched * dim) instead of O(num_items * dim) — and
/// all scratch state lives in a caller-owned AggregationWorkspace that is
/// reused round over round. The dense overload materializes the same delta
/// into a full matrix and exists for tests and offline analysis.
///
/// Median and trimmed mean work row-wise. A row group's n contributor rows
/// are copied into an n x dim tile and all dim columns are sorted at once by
/// a compare-exchange network over whole rows (kernels::SortColumns,
/// Batcher's odd-even merge sort: each comparator is a vector min/max of one
/// row against another). The median reads rows n/2 (and n/2 - 1 for even
/// n); the trimmed mean sums its kept middle rows in ascending order, in
/// double from +0.0. Both produce the bits a per-coordinate sort would, with
/// one exception: when a median column ties +0 against -0, which of the two
/// lands in the middle is up to the sort, so the result may carry either
/// sign (the values compare equal). Median groups of one or two
/// contributors take exact shortcuts that skip the tile.

namespace fedrec {

/// One uploaded row: the item id plus a direct pointer to the contributor's
/// values (resolved once — the per-coordinate aggregation loops never pay a
/// row lookup again).
struct RowContribution {
  std::size_t row;
  const float* data;
};

/// Reusable server-side aggregation scratch. All vectors keep their capacity
/// across rounds, so steady-state aggregation performs no allocations.
struct AggregationWorkspace {
  /// Flat row -> contributors index: every indexed row as a (row, values)
  /// entry pointing into the uploads, stably grouped by row id
  /// (GroupRowIndex) so each item's contributors form one contiguous run in
  /// update order.
  std::vector<RowContribution> row_index;
  /// Radix ping-pong buffer and per-pass histogram for GroupRowIndex.
  std::vector<RowContribution> row_index_scratch;
  std::vector<std::uint32_t> radix_counts;
  /// Group partition of `row_index`: group_offsets[g] is the index of the
  /// g-th distinct row's first contributor; the trailing sentinel is
  /// row_index.size(). Groups are what the parallel path shards over.
  std::vector<std::size_t> group_offsets;
  /// Distinct row ids, ascending (parallel to group_offsets minus the
  /// sentinel); bulk-assigned into the output delta.
  std::vector<std::size_t> group_rows;
  /// Per-shard gather/clip buffers. shards[0] doubles as the serial path's
  /// scratch; the vector grows to the shard count in use and each entry's
  /// capacity is retained across rounds.
  struct ShardScratch {
    /// n x dim contributor tile of one row group, sorted column-wise in
    /// place (median / trimmed mean).
    std::vector<float> tile;
    /// Per-coordinate double sums of the trimmed mean's kept rows.
    std::vector<double> sums;
    /// Row clip buffer (norm-bound).
    std::vector<float> clipped;
  };
  std::vector<ShardScratch> shards;
};

/// Stably groups `workspace.row_index` by row id in place (LSD radix passes
/// over the row bytes), keeping each row's contributors in index order. The
/// single-server path fills the index with every uploaded row in update
/// order; a shard server fills it with only the rows it owns. Zero
/// steady-state allocations: the scratch lives in the workspace.
void GroupRowIndex(AggregationWorkspace& workspace);

class ThreadPool;

/// Aggregates one round of uploads into the touched-row delta `out`
/// (out.rows() is the ascending union of all uploaded row ids; for kKrum only
/// the selected client's rows). All five AggregatorKind rules are routed
/// through this overload; the result is bit-identical to materializing the
/// historical dense gradient.
///
/// When `pool` is non-null the per-row work is sharded across the pool by
/// contiguous ranges of the row->contributors groups (`num_shards` ranges;
/// 0 derives the count from the pool size). Every row is produced by exactly
/// one shard with the same contributor order as the serial sweep, so the
/// result is bit-identical for any shard count; kKrum is a whole-round
/// selection and ignores the pool. Shard scratch lives in `workspace` and is
/// reused round over round.
void AggregateUpdates(std::span<const ClientUpdate> updates, std::size_t dim,
                      const AggregatorOptions& options,
                      AggregationWorkspace& workspace, SparseRoundDelta& out,
                      ThreadPool* pool = nullptr, std::size_t num_shards = 0);

/// Aggregates a grouped `workspace.row_index` (see GroupRowIndex) into `out`:
/// the per-row body behind AggregateUpdates and every shard server, so the
/// single-server and sharded math cannot fork. For kKrum the index must hold
/// exactly the selected upload's rows; they are emitted scaled by
/// `krum_scale` (the round size: the winner stands in for the whole round,
/// keeping the learning-rate semantics of Eq. 7). The per-row rules ignore
/// `krum_scale` and shard across `pool` as AggregateUpdates describes.
void AggregateRowIndex(std::size_t dim, const AggregatorOptions& options,
                       float krum_scale, AggregationWorkspace& workspace,
                       SparseRoundDelta& out, ThreadPool* pool = nullptr,
                       std::size_t num_shards = 0);

/// Dense convenience overload: aggregates sparsely, then scatters into a
/// num_items x dim matrix. Tests and offline tooling only — the round loop
/// applies the sparse delta directly.
Matrix AggregateUpdates(std::span<const ClientUpdate> updates,
                        std::size_t num_items, std::size_t dim,
                        const AggregatorOptions& options);

/// Krum selection: index into `updates` of the client whose upload minimizes
/// the summed squared distance to its closest (honest - 2) neighbours,
/// treating absent rows as zeros. Exposed for tests, the detector bench and
/// the sharded coordinator (Krum is a whole-round decision, so a sharded
/// server selects once globally and broadcasts the winner to its shards).
std::size_t KrumSelect(std::span<const ClientUpdate> updates,
                       std::size_t num_items, std::size_t dim,
                       std::size_t honest);

}  // namespace fedrec

#endif  // FEDREC_FED_AGGREGATOR_H_
