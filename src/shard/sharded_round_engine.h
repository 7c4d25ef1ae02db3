#ifndef FEDREC_SHARD_SHARDED_ROUND_ENGINE_H_
#define FEDREC_SHARD_SHARDED_ROUND_ENGINE_H_

#include <memory>

#include "common/fault.h"
#include "common/threadpool.h"
#include "fed/config.h"
#include "fed/round_engine.h"
#include "model/mf_model.h"
#include "shard/server_step.h"
#include "shard/shard_server.h"
#include "shard/transport.h"

/// \file
/// Sharded federation round loop: RoundEngine's client half, then the
/// multi-shard server half of ServerStep (shard/server_step.h) in place of
/// the single server's Aggregate/Apply:
///
///   Select -> LocalTrain -> Attack -> Observe -> transit faults
///     -> ServerStep: Krum -> shard Aggregate -> Merge -> Apply
///
/// The ShardTransport seam decides where shards run: in-process (the
/// default) or over TCP to fedrec_shardd processes (SocketShardTransport).
/// The engine arms its owned in-process transport with the fault plan
/// exactly when faults are active, so FRWU/FRWD wire bytes are built only
/// then, and charges the step's retry backoff to the virtual clock.
///
/// Every upload of the round — the malicious ones produced by the Attack
/// stage included — flows through the same shard path, so poisoned
/// rows split across shards exactly like benign ones; a shard cannot tell
/// them apart any better than the single server could. The merged delta is
/// bit-identical to the single-server RoundEngine for every aggregation rule
/// and any shard count, so sharding is a pure deployment choice: attack
/// efficacy numbers carry over unchanged.

namespace fedrec {

/// Drives RoundEngine's client half and ServerStep's server half.
class ShardedRoundEngine {
 public:
  /// In-process deployment: constructs and owns the in-process
  /// transport. All pointers are borrowed and must outlive this engine.
  /// `engine` is the single-federation round engine whose client half is
  /// reused (its Aggregate/Apply are never called); `pool` fans both
  /// LocalTrain (via the engine) and the per-shard server work, and may be
  /// null.
  ShardedRoundEngine(RoundEngine* engine, MfModel* model,
                     const FedConfig* config, const ShardPlan& plan,
                     ThreadPool* pool);

  /// Custom-transport deployment (e.g. SocketShardTransport over TCP
  /// fedrec_shardd processes). `transport` is borrowed and must outlive this
  /// engine; its plan must cover the model's item rows at the model's dim.
  ShardedRoundEngine(RoundEngine* engine, MfModel* model,
                     const FedConfig* config, ShardTransport* transport,
                     ThreadPool* pool);

  void BeginEpoch(std::size_t epoch) { engine_->BeginEpoch(epoch); }
  bool HasNextRound() const { return engine_->HasNextRound(); }

  /// Runs one full round through the sharded server path; returns the summed
  /// benign BPR loss (same contract as RoundEngine::RunRound). `observer`
  /// may be null. With an enabled fault plan, transit faults thin the
  /// uploads (the engine's quorum rules apply), the owned transport injects
  /// wire faults, and ServerStep retries each failed shard up to
  /// config.max_shard_retries times before aggregating it locally.
  double RunRound(const RoundObserver& observer = {});

  const ShardServer& server() const { return step_.transport().server(); }
  ShardServer& server() { return step_.transport().server(); }
  ShardTransport& transport() { return step_.transport(); }
  const SparseRoundDelta& merged_delta() const { return step_.merged_delta(); }
  const RoundEngine& engine() const { return *engine_; }

  /// ServerStep's wire ledger (corrupt messages, outages, retries,
  /// fallbacks). Transit-fault counters live on the wrapped engine's
  /// fault_stats().
  const FaultStats& wire_fault_stats() const {
    return step_.wire_fault_stats();
  }

 private:
  RoundEngine* engine_;
  const FedConfig* config_;
  std::unique_ptr<InProcessShardTransport> owned_transport_;
  ServerStep step_;
};

}  // namespace fedrec

#endif  // FEDREC_SHARD_SHARDED_ROUND_ENGINE_H_
