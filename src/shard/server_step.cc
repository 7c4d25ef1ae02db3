#include "shard/server_step.h"

#include <algorithm>

#include "fed/aggregator.h"
#include "obs/stats_bridge.h"
#include "obs/trace.h"

namespace fedrec {

/// One shard's delivery ledger for a round (ParallelFor-private).
struct ShardRoundOutcome {
  std::uint32_t corrupt = 0;
  std::uint32_t outages = 0;
  std::uint32_t retries = 0;
  bool fallback = false;
  std::uint64_t backoff_ticks = 0;
};

namespace {

/// What every shard's delivery of one round shares.
struct Delivery {
  std::span<const ClientUpdate> updates;
  const AggregatorOptions* options;
  const ShardRetryPolicy* retry;
  std::uint64_t krum_source;
  std::uint64_t round;
};

/// The degraded delivery protocol for one shard: bounded retries (each a
/// pristine re-route + exponential backoff on the virtual clock), then the
/// coordinator-local fallback — aggregate the shard's row range from the
/// pristine uploads, no wire. On return the shard's receive slot is always
/// decoded, so the round can merge whatever happened.
ShardRoundOutcome DeliverShardWithRetries(ShardTransport& transport,
                                          const Delivery& delivery,
                                          std::size_t s) {
  ShardRoundOutcome outcome;
  ShardServer& server = transport.server();
  const std::size_t round_size = delivery.updates.size();
  bool delivered = false;
  for (std::uint64_t attempt = 0;
       attempt <= delivery.retry->max_retries && !delivered; ++attempt) {
    if (attempt > 0) {
      ++outcome.retries;
      outcome.backoff_ticks += delivery.retry->backoff_ticks << (attempt - 1);
      // A retry is a full resend: the coordinator re-routes the shard's rows
      // from the pristine uploads, then the wire rolls its dice again (fault
      // draws are keyed by attempt, so a transient failure clears; a socket
      // transport reconnects, so a restarted shardd rejoins here).
      server.RerouteShard(delivery.updates, s);
    }
    const Status status = transport.ExecuteShardRound(
        s, *delivery.options, round_size, delivery.krum_source,
        delivery.round, attempt);
    if (status.ok()) {
      delivered = true;
      break;
    }
    if (status.code() == StatusCode::kIOError) {
      ++outcome.outages;
    } else {
      ++outcome.corrupt;
    }
  }
  if (!delivered) {
    // Retries exhausted: the coordinator aggregates this shard's row range
    // locally from the pristine uploads — no wire, so no faults; the math is
    // the shard's own (bit-identical by the routing invariant).
    outcome.fallback = true;
    server.RerouteShard(delivery.updates, s);
    server
        .AggregateShardRound(s, *delivery.options, round_size,
                             delivery.krum_source)
        .CheckOK();
    server.DecodeShardDelta(s).CheckOK();
  }
  return outcome;
}

}  // namespace

ServerStep::ServerStep(MfModel* model, ShardTransport* transport,
                       ThreadPool* pool)
    : model_(model), transport_(transport), pool_(pool) {
  FEDREC_CHECK(model_ != nullptr);
  FEDREC_CHECK(transport_ != nullptr);
  FEDREC_CHECK_EQ(transport_->server().plan().num_items(),
                  model_->num_items());
  FEDREC_CHECK_EQ(transport_->server().dim(), model_->dim());
  obs::Registry& registry = obs::Registry::Global();
  metrics_.route = registry.GetHistogram("fedrec_stage_us", "stage=\"route\"");
  metrics_.shard_aggregate =
      registry.GetHistogram("fedrec_stage_us", "stage=\"shard_aggregate\"");
  metrics_.merge = registry.GetHistogram("fedrec_stage_us", "stage=\"merge\"");
  metrics_.apply = registry.GetHistogram("fedrec_stage_us", "stage=\"apply\"");
  metrics_.shard_retries = registry.GetCounter("fedrec_shard_retries_total");
  metrics_.shard_outages = registry.GetCounter("fedrec_shard_outages_total");
  metrics_.fallback_shards =
      registry.GetCounter("fedrec_shard_fallbacks_total");
}

ServerStep::~ServerStep() = default;

std::uint64_t ServerStep::Run(std::span<const ClientUpdate> updates,
                              const AggregatorOptions& options,
                              float learning_rate,
                              const ShardRetryPolicy& retry,
                              std::uint64_t round) {
  ShardServer& server = transport_->server();
  // Krum is a whole-round selection: decide on the coordinator (which holds
  // the full uploads) and broadcast the winner's round sequence number to
  // the shards.
  std::uint64_t krum_source = 0;
  if (options.kind == AggregatorKind::kKrum && !updates.empty()) {
    krum_source = KrumSelect(updates, /*num_items=*/0, model_->dim(),
                             options.krum_honest);
  }
  std::uint64_t backoff = 0;
  if (!transport_->fallible()) {
    // Nothing can fail between the uploads and the shards, so no wire bytes
    // are built: each shard indexes its rows straight from the uploads and
    // the merge reads the shard deltas in place. Routing is part of each
    // shard's index build, so no route span is recorded.
    {
      obs::ScopedSpan span("shard_aggregate", metrics_.shard_aggregate);
      server.AggregateRoundDirect(updates, options, krum_source, pool_);
    }
    obs::ScopedSpan span("merge", metrics_.merge);
    server.MergeShardDeltas(merged_).CheckOK();
  } else {
    {
      obs::ScopedSpan span("route", metrics_.route);
      server.RouteRound(updates, pool_);
    }
    {
      obs::ScopedSpan span("shard_aggregate", metrics_.shard_aggregate);
      const Delivery delivery{updates, &options, &retry, krum_source, round};
      outcomes_.assign(server.plan().num_shards(), ShardRoundOutcome{});
      ParallelFor(pool_, outcomes_.size(), [this, &delivery](std::size_t s) {
        outcomes_[s] = DeliverShardWithRetries(*transport_, delivery, s);
      });
      // Serial fold: counters and the clock stay deterministic for any pool.
      for (const ShardRoundOutcome& outcome : outcomes_) {
        wire_stats_.corrupt_messages += outcome.corrupt;
        wire_stats_.shard_outages += outcome.outages;
        wire_stats_.shard_retries += outcome.retries;
        if (outcome.fallback) ++wire_stats_.fallback_shards;
        metrics_.shard_outages->Increment(outcome.outages);
        metrics_.shard_retries->Increment(outcome.retries);
        if (outcome.fallback) metrics_.fallback_shards->Increment();
        backoff = std::max(backoff, outcome.backoff_ticks);
      }
    }
    obs::ScopedSpan span("merge", metrics_.merge);
    server.MergeReceived(merged_).CheckOK();
  }
  {
    obs::ScopedSpan span("apply", metrics_.apply);
    model_->ApplySparseGradient(merged_, learning_rate);
  }
  obs::PublishFaultStats(wire_stats_, "wire");
  return backoff;
}

}  // namespace fedrec
