#include "shard/transport.h"

namespace fedrec {

Status InProcessShardTransport::ExecuteShardRound(
    std::size_t s, const AggregatorOptions& options, std::size_t round_size,
    std::uint64_t krum_source, std::uint64_t round, std::uint64_t attempt) {
  if (fault_plan_ != nullptr) {
    if (fault_plan_->ShardOutage(round, s, attempt)) {
      return Status::IOError("injected shard outage");
    }
    ApplyWireFault(fault_plan_->UploadWireFault(round, s, attempt),
                   server_.inbox(s).mutable_buffer());
  }
  FEDREC_RETURN_NOT_OK(
      server_.AggregateShardRound(s, options, round_size, krum_source));
  if (fault_plan_ != nullptr) {
    ApplyWireFault(fault_plan_->DeltaWireFault(round, s, attempt),
                   server_.delta_writer(s).mutable_buffer());
  }
  return server_.DecodeShardDelta(s);
}

}  // namespace fedrec
