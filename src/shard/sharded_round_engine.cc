#include "shard/sharded_round_engine.h"

namespace fedrec {

ShardedRoundEngine::ShardedRoundEngine(RoundEngine* engine, MfModel* model,
                                       const FedConfig* config,
                                       const ShardPlan& plan, ThreadPool* pool)
    : engine_(engine),
      config_(config),
      owned_transport_(
          std::make_unique<InProcessShardTransport>(plan, model->dim())),
      step_(model, owned_transport_.get(), pool) {
  FEDREC_CHECK(engine_ != nullptr);
  FEDREC_CHECK(config_ != nullptr);
}

ShardedRoundEngine::ShardedRoundEngine(RoundEngine* engine, MfModel* model,
                                       const FedConfig* config,
                                       ShardTransport* transport,
                                       ThreadPool* pool)
    : engine_(engine), config_(config), step_(model, transport, pool) {
  FEDREC_CHECK(engine_ != nullptr);
  FEDREC_CHECK(config_ != nullptr);
}

double ShardedRoundEngine::RunRound(const RoundObserver& observer) {
  const RoundEngine::ClientHalf half = engine_->RunClientHalf(observer);
  if (half.skipped) return half.loss;
  if (owned_transport_ != nullptr) {
    owned_transport_->set_fault_plan(
        engine_->faults_active() ? engine_->fault_plan() : nullptr);
  }
  const std::uint64_t backoff = step_.Run(
      engine_->live_updates(), config_->aggregator,
      config_->model.learning_rate,
      ShardRetryPolicy{config_->max_shard_retries,
                       config_->shard_retry_backoff_ticks},
      engine_->global_round());
  engine_->AdvanceClock(backoff);
  engine_->FinishRound();
  return half.loss;
}

}  // namespace fedrec
