#ifndef FEDREC_SHARD_SERVER_STEP_H_
#define FEDREC_SHARD_SERVER_STEP_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/fault.h"
#include "common/matrix.h"
#include "common/threadpool.h"
#include "fed/aggregator.h"
#include "fed/client.h"
#include "fed/config.h"
#include "model/mf_model.h"
#include "obs/metrics.h"
#include "shard/transport.h"

/// \file
/// The server half of a sharded round, written once for every driver:
///
///   Krum pick -> per-shard Aggregate -> Merge -> Apply
///
/// ShardedRoundEngine runs it after RoundEngine's client half;
/// FederationService runs it when a round's socket uploads have landed.
/// The transport picks the shard aggregation branch. An infallible one
/// (in-process, unarmed) builds no wire bytes: each shard aggregates the
/// rows it owns straight from the uploads and the merge reads the shard
/// deltas in place. A fallible one (sockets, or in-process armed with a
/// FaultPlan) routes the uploads onto the FRWU wire and runs the degraded
/// protocol per shard: bounded retries, each a pristine re-route with an
/// exponential backoff, then a coordinator-local fallback over the shard's
/// row range. Either way the merged delta is bit-identical to the
/// single-server RoundEngine for every aggregation rule and shard count.
///
/// The step owns the server half's observability: the
/// `fedrec_stage_us{stage=route|shard_aggregate|merge|apply}` spans (route
/// only on the wire branch; the direct branch's index build is part of
/// shard_aggregate), the
/// `fedrec_shard_{retries,outages,fallbacks}_total` counters and the wire
/// ledger, republished as `fedrec_fault_*{scope="wire"}`.

namespace fedrec {

/// Bounded-retry parameters (FedConfig::max_shard_retries /
/// shard_retry_backoff_ticks; the defaults equal FedConfig's).
struct ShardRetryPolicy {
  std::uint64_t max_retries = 2;
  std::uint64_t backoff_ticks = 2;
};

/// One shard's delivery ledger for a round (defined in server_step.cc).
struct ShardRoundOutcome;

/// Route -> Krum -> shard aggregation -> merge -> apply over a transport.
class ServerStep {
 public:
  /// `model` and `transport` are borrowed and must outlive the step; the
  /// transport's plan must cover the model's item rows at the model's dim.
  /// `pool` fans routing and the per-shard work, and may be null.
  ServerStep(MfModel* model, ShardTransport* transport, ThreadPool* pool);
  ~ServerStep();  // out of line: ShardRoundOutcome is complete only there

  /// Runs one round's server half over `updates` and applies the merged
  /// delta to the model at `learning_rate`. `round` keys the deterministic
  /// fault draws of an armed in-process transport. Returns the round's
  /// backoff in virtual ticks: shards retry concurrently, so the round pays
  /// the slowest shard's backoff (0 when no shard retried).
  std::uint64_t Run(std::span<const ClientUpdate> updates,
                    const AggregatorOptions& options, float learning_rate,
                    const ShardRetryPolicy& retry, std::uint64_t round);

  ShardTransport& transport() { return *transport_; }
  const ShardTransport& transport() const { return *transport_; }
  const SparseRoundDelta& merged_delta() const { return merged_; }

  /// Failure counters of the degraded protocol (corrupt messages, outages,
  /// retries, fallbacks): deterministic for a fixed fault seed and any pool;
  /// over sockets they record real outages (dead shardd, timeout).
  const FaultStats& wire_fault_stats() const { return wire_stats_; }

 private:
  MfModel* model_;
  ShardTransport* transport_;
  ThreadPool* pool_;
  SparseRoundDelta merged_;
  KrumScratch krum_scratch_;  ///< coordinator-side Krum pick, reused
  FaultStats wire_stats_;
  std::vector<ShardRoundOutcome> outcomes_;  ///< per-shard, reused
  // Observe-only: fetched once from the global registry.
  struct Metrics {
    obs::Histogram* route = nullptr;
    obs::Histogram* shard_aggregate = nullptr;
    obs::Histogram* merge = nullptr;
    obs::Histogram* apply = nullptr;
    obs::Counter* shard_retries = nullptr;
    obs::Counter* shard_outages = nullptr;
    obs::Counter* fallback_shards = nullptr;
  };
  Metrics metrics_;
};

}  // namespace fedrec

#endif  // FEDREC_SHARD_SERVER_STEP_H_
