#ifndef FEDREC_SHARD_SHARD_SERVER_H_
#define FEDREC_SHARD_SHARD_SERVER_H_

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "common/matrix.h"
#include "common/status.h"
#include "common/threadpool.h"
#include "data/serialize.h"
#include "fed/aggregator.h"
#include "fed/client.h"
#include "shard/shard_plan.h"

/// \file
/// Multi-shard aggregation service: the server side of a round, split across
/// S shard servers that each own a disjoint slice of the item rows (see
/// ShardPlan). A round takes one of two paths.
///
/// The direct path (AggregateRoundDirect, then MergeShardDeltas) is what an
/// unarmed in-process round runs, where nothing can fail between the uploads
/// and the shards. Each shard indexes the uploaded rows it owns in place,
/// with pointers into the uploads and no copy, aggregates them into its
/// shard delta, and the coordinator merges the shard deltas as they are.
///
/// The wire path carries the same round in three wire-delimited steps. It is
/// what sockets and armed fault plans run, since only bytes can be sent or
/// corrupted, and what the retry protocol resends:
///
///   RouteRound      — every upload's rows are split by owning shard and
///                     encoded as FRWU messages into per-shard inboxes
///   AggregateRound  — each shard decodes its inbox and aggregates ONLY its
///                     routed rows (concurrently across shards), then
///                     encodes its partial delta as an FRWD message
///   MergeRoundDelta — the coordinator decodes the per-shard deltas and
///                     merges them by sorted-row union
///
/// Both paths run one per-shard body (index the owned rows in update order,
/// group, aggregate) and one merge, so they cannot disagree. Because every
/// row is owned by exactly one shard and update order is preserved, each
/// row's contributor sequence on its shard is exactly the single-server
/// sweep's — the merged delta is bit-identical to AggregateUpdates over the
/// whole round, for every aggregation rule and any shard count. Krum is the
/// one whole-round rule: the coordinator runs KrumSelect globally and
/// broadcasts the winner's round sequence number; shards emit only the
/// winner's rows they own (scaled to the round size, as the single-server
/// rule does).
///
/// All per-shard state (inboxes, routed-upload slots, aggregation workspace,
/// delta and its wire form) is persistent and high-water sized: a
/// steady-state round on either path runs without heap growth. FRWU/FRWD
/// bytes exist only on the wire path, so ShardServerStats counts only
/// wire-path rounds.

namespace fedrec {

/// Cumulative wire-traffic counters of the wire path (divide by rounds for
/// per-round cost); the direct path moves no bytes and counts nothing.
struct ShardServerStats {
  std::uint64_t rounds = 0;            ///< rounds routed onto the wire
  std::uint64_t upload_messages = 0;   ///< FRWU messages delivered
  std::uint64_t upload_bytes = 0;      ///< total FRWU bytes
  std::uint64_t delta_bytes = 0;       ///< total FRWD bytes
};

/// The sharded server of one federation. Owns S shard states plus the
/// coordinator-side merge scratch.
class ShardServer {
 public:
  /// `plan.num_items()` must cover every row id a round can upload; `dim` is
  /// the feature dimension every message must carry.
  ShardServer(const ShardPlan& plan, std::size_t dim);

  const ShardPlan& plan() const { return plan_; }
  std::size_t dim() const { return dim_; }

  /// The direct path's shard step: each shard indexes the rows of `updates`
  /// it owns (in update order, as pointers into `updates` that are read only
  /// during this call) and aggregates them into its shard delta,
  /// concurrently across shards on `pool` (may be null). For kKrum only
  /// `updates[krum_source]`, the globally selected upload, is indexed. Same
  /// per-shard body and result as RouteRound + AggregateRound, without the
  /// wire. Aborts on a row outside the plan, as RouteRound does.
  void AggregateRoundDirect(std::span<const ClientUpdate> updates,
                            const AggregatorOptions& options,
                            std::uint64_t krum_source, ThreadPool* pool);

  /// Merges the shard deltas of the last AggregateRoundDirect (or
  /// AggregateRound) into `out`: the same merge MergeReceived runs over the
  /// decoded receive slots.
  [[nodiscard]] Status MergeShardDeltas(SparseRoundDelta& out);

  /// Clears last round's inboxes and encodes every upload's routed rows into
  /// them: one FRWU message per (update, owning shard) pair with at least
  /// one routed row, in update order, carrying the upload's round-unique
  /// sequence number as the wire source id (client ids are
  /// attacker-controlled and may collide). Sharded across `pool` (each shard
  /// scans the round and keeps only its rows); `pool` may be null. Aborts on
  /// a row outside the plan — the single-server engine aborts on such a row
  /// at Apply, and silent dropping would diverge from it.
  void RouteRound(std::span<const ClientUpdate> updates, ThreadPool* pool);

  /// Decodes every shard's inbox and aggregates its routed rows,
  /// concurrently across shards; each shard's partial delta is re-encoded as
  /// an FRWD message for the merge step. `round_size` is the number of
  /// uploads in the round (the output scale of Krum); `krum_source` is the
  /// sequence number of the globally Krum-selected upload — its index into
  /// the routed round (ignored for the per-row rules). Fails loudly, via
  /// Status::Corruption, on any corrupt or misrouted message.
  [[nodiscard]] Status AggregateRound(const AggregatorOptions& options,
                        std::size_t round_size, std::uint64_t krum_source,
                        ThreadPool* pool);

  /// Decodes the per-shard FRWD messages and merges them into `out` by
  /// sorted-row union (shard row sets are disjoint by construction; overlap
  /// is reported as corruption). Equivalent to DecodeShardDelta for every
  /// shard followed by MergeReceived.
  [[nodiscard]] Status MergeRoundDelta(SparseRoundDelta& out);

  // -- Per-shard steps (the fault-tolerant coordinator's retry loop; each is
  //    safe to call concurrently for distinct shards) ------------------------

  /// Re-encodes shard `s`'s inbox from the pristine uploads — byte-identical
  /// to what RouteRound produced for it. The retry path's "resend": a
  /// corrupted delivery re-requests the shard's routed rows from scratch.
  void RerouteShard(std::span<const ClientUpdate> updates, std::size_t s);

  /// One shard's server-side step: decodes its inbox, aggregates its routed
  /// rows, re-encodes its FRWD reply. Returns Corruption on a damaged,
  /// duplicated, truncated or misrouted inbox. (Same step AggregateRound runs
  /// for every shard.)
  [[nodiscard]] Status AggregateShardRound(std::size_t s,
                                           const AggregatorOptions& options,
                                           std::size_t round_size,
                                           std::uint64_t krum_source);

  /// Decodes shard `s`'s FRWD reply into the coordinator's receive slot
  /// (validates framing, trailing bytes and dimension).
  [[nodiscard]] Status DecodeShardDelta(std::size_t s);

  // -- Transport-delivered wire views (the socket deployment; bytes are
  //    decoded in place from the caller's connection buffer, nothing is
  //    copied into the inbox/delta writers) -------------------------------

  /// Shard `s`'s server-side step over FRWU bytes a transport delivered:
  /// same decode + aggregate + FRWD re-encode as AggregateShardRound, with
  /// `inbox_wire` in place of the in-process inbox. `expected_messages`
  /// guards boundary-truncated deliveries (0 = no expectation recorded).
  [[nodiscard]] Status AggregateShardRoundWire(std::size_t s,
                                               std::string_view inbox_wire,
                                               std::size_t expected_messages,
                                               const AggregatorOptions& options,
                                               std::size_t round_size,
                                               std::uint64_t krum_source);

  /// Decodes an FRWD reply a transport delivered for shard `s` into the
  /// coordinator's receive slot (same validation as DecodeShardDelta).
  [[nodiscard]] Status DecodeShardDeltaWire(std::size_t s,
                                            std::string_view frwd_wire);

  /// Merges the decoded receive slots into `out` by sorted-row union. All
  /// shards must have a successfully decoded slot (via DecodeShardDelta or
  /// MergeRoundDelta's loop).
  [[nodiscard]] Status MergeReceived(SparseRoundDelta& out);

  /// Wire access for tests, custom transports and fault injection: the inbox
  /// a coordinator fills for shard `s`, and the FRWD reply shard `s` produced
  /// last round.
  BinaryWriter& inbox(std::size_t s) { return shards_[s].inbox; }
  BinaryWriter& delta_writer(std::size_t s) { return shards_[s].delta_wire; }
  const std::string& delta_wire(std::size_t s) const {
    return shards_[s].delta_wire.buffer();
  }

  /// FRWU messages RouteRound/RerouteShard encoded into shard `s`'s inbox
  /// this round (a socket coordinator sends it ahead of the bytes so the
  /// shardd can detect boundary-truncated deliveries).
  std::size_t message_count(std::size_t s) const {
    return shards_[s].message_count;
  }

  /// Shard `s`'s own delta from the last AggregateRound or
  /// AggregateRoundDirect (pre-wire).
  const SparseRoundDelta& shard_delta(std::size_t s) const {
    return shards_[s].delta;
  }

  const ShardServerStats& stats() const { return stats_; }

  /// Wall seconds shard `s` spent in its own routing / decode+aggregate work
  /// last round, excluding scheduling. Measured per shard regardless of the
  /// pool, so a single-core host can still report the per-shard critical
  /// path an S-worker deployment would pay. The direct path routes nothing:
  /// its route time is 0 and its index build counts as aggregate time.
  double route_seconds(std::size_t s) const { return shards_[s].route_seconds; }
  double aggregate_seconds(std::size_t s) const {
    return shards_[s].aggregate_seconds;
  }
  /// Wall seconds of the last merge (coordinator-serial work).
  double merge_seconds() const { return merge_seconds_; }

 private:
  struct ShardState {
    BinaryWriter inbox;                       ///< FRWU wire in
    BinaryWriter delta_wire;                  ///< FRWD wire out
    std::vector<std::uint32_t> route_slots;   ///< per-update routing scratch
    std::vector<ClientUpdate> routed;         ///< decoded uploads (reused)
    std::vector<std::uint64_t> routed_source; ///< wire source ids, parallel
    std::size_t routed_count = 0;             ///< active prefix of `routed`
    std::size_t message_count = 0;            ///< FRWU messages this round
    AggregationWorkspace aggregation;
    SparseRoundDelta delta;
    Status status;                            ///< last round's outcome
    double route_seconds = 0.0;
    double aggregate_seconds = 0.0;
  };

  /// Aborts on an uploaded row outside the plan.
  void CheckRowsInPlan(std::span<const ClientUpdate> updates) const;
  /// Routes one shard's slice of the round into its inbox (RouteRound's
  /// per-shard body; RerouteShard re-runs it for the retry path).
  void RouteShard(std::span<const ClientUpdate> updates, std::size_t s);
  /// Decodes FRWU `wire` into shard `s`'s routed slots; validates
  /// dimensions, ownership, strictly-ascending sources (duplicate / replayed
  /// delivery) and — when `expected_messages` is nonzero — the message count
  /// (boundary-truncated delivery). The in-process path passes the shard's
  /// own inbox; the socket path passes the connection buffer.
  [[nodiscard]] Status DecodeInbox(ShardState& shard, std::size_t s,
                                   std::string_view wire,
                                   std::size_t expected_messages);
  /// Shared body of AggregateShardRound / AggregateShardRoundWire.
  [[nodiscard]] Status AggregateShardFromWire(std::size_t s,
                                              std::string_view inbox_wire,
                                              std::size_t expected_messages,
                                              const AggregatorOptions& options,
                                              std::size_t round_size,
                                              std::uint64_t krum_source);
  /// Aggregates shard `s`'s decoded routed uploads into its delta.
  void AggregateShard(ShardState& shard, std::size_t s,
                      const AggregatorOptions& options, std::size_t round_size,
                      std::uint64_t krum_source);
  /// The per-shard body of both paths: indexes the rows of `uploads` that
  /// shard `s` owns, groups them and aggregates them into `shard.delta`.
  void AggregateOwnedRows(ShardState& shard, std::size_t s,
                          std::span<const ClientUpdate> uploads,
                          const AggregatorOptions& options,
                          std::size_t round_size);
  /// Sorted-row union of the deltas `merge_sources_` points at, into `out`.
  [[nodiscard]] Status MergeSources(SparseRoundDelta& out);

  ShardPlan plan_;
  std::size_t dim_;
  std::vector<ShardState> shards_;
  // Coordinator-side merge state (reused round over round).
  std::vector<SparseRoundDelta> received_;
  std::vector<const SparseRoundDelta*> merge_sources_;  ///< delta of shard s
  std::vector<std::size_t> cursor_;
  ShardServerStats stats_;
  double merge_seconds_ = 0.0;
};

}  // namespace fedrec

#endif  // FEDREC_SHARD_SHARD_SERVER_H_
