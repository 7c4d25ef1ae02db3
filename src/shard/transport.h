#ifndef FEDREC_SHARD_TRANSPORT_H_
#define FEDREC_SHARD_TRANSPORT_H_

#include <cstdint>

#include "common/fault.h"
#include "common/status.h"
#include "fed/config.h"
#include "shard/shard_server.h"

/// \file
/// The transport seam of the sharded server step: how a shard's routed FRWU
/// inbox reaches its compute and how the FRWD reply comes back. ServerStep
/// (shard/server_step.h) — the one server half that ShardedRoundEngine and
/// FederationService both run — talks only to ShardTransport, so the same
/// step runs in-process or over TCP connections to fedrec_shardd processes:
/// the deployment shape is a constructor argument, not a code path. FRWU and
/// FRWD bytes exist only when a transport is fallible (sockets, or an armed
/// fault plan); an infallible transport's rounds never touch the wire.
///
/// Failure taxonomy (what ServerStep's retry/fallback protocol keys on):
///   kIOError     the shard is out — refused/dead connection, timeout, or an
///                injected outage. A retry reconnects and resends.
///   kCorruption  the delivery or reply was damaged. A retry resends
///                pristinely re-routed bytes.
/// Both are environmental for a fallible transport; for the in-process
/// transport without an armed fault plan, any failure is a programming error
/// and ServerStep fails fast instead of retrying.

namespace fedrec {

/// How shard deliveries travel. Implementations own the coordinator-side
/// ShardServer (routing, receive slots, merge scratch, fallback compute).
class ShardTransport {
 public:
  virtual ~ShardTransport() = default;

  /// Coordinator-side server state. Routing, merge and the local-fallback
  /// math always run here, whatever carries the bytes.
  virtual ShardServer& server() = 0;
  const ShardServer& server() const {
    return const_cast<ShardTransport*>(this)->server();
  }

  /// True when ExecuteShardRound can fail for environmental reasons.
  /// ServerStep runs the retry/fallback protocol iff the transport is
  /// fallible; otherwise it fails fast on any error.
  virtual bool fallible() const = 0;

  /// Delivers shard `s`'s routed inbox to its compute and leaves the decoded
  /// FRWD reply in the coordinator's receive slot `s`. `round` and `attempt`
  /// key deterministic fault draws (in-process) and let a socket transport
  /// reconnect per attempt. Safe to call concurrently for distinct shards.
  [[nodiscard]] virtual Status ExecuteShardRound(
      std::size_t s, const AggregatorOptions& options, std::size_t round_size,
      std::uint64_t krum_source, std::uint64_t round,
      std::uint64_t attempt) = 0;

  /// Transport name for logs and bench labels ("inproc", "socket").
  virtual const char* name() const = 0;
};

/// The default deployment: shards run inside the coordinator process.
/// Unarmed it is infallible, and ServerStep aggregates each shard straight
/// from the uploads with no wire bytes. With an armed fault plan the wire is
/// a byte-buffer handoff that injects the deterministic outage/corruption
/// draws of the fault protocol.
class InProcessShardTransport final : public ShardTransport {
 public:
  InProcessShardTransport(const ShardPlan& plan, std::size_t dim)
      : server_(plan, dim) {}

  /// Arms (or disarms, with nullptr) deterministic fault injection. The plan
  /// is borrowed and must outlive the next ExecuteShardRound.
  void set_fault_plan(const FaultPlan* plan) { fault_plan_ = plan; }

  ShardServer& server() override { return server_; }
  bool fallible() const override { return fault_plan_ != nullptr; }
  const char* name() const override { return "inproc"; }

  [[nodiscard]] Status ExecuteShardRound(std::size_t s,
                                         const AggregatorOptions& options,
                                         std::size_t round_size,
                                         std::uint64_t krum_source,
                                         std::uint64_t round,
                                         std::uint64_t attempt) override;

 private:
  ShardServer server_;
  const FaultPlan* fault_plan_ = nullptr;
};

}  // namespace fedrec

#endif  // FEDREC_SHARD_TRANSPORT_H_
