#ifndef FEDREC_NET_CHAOS_PROXY_H_
#define FEDREC_NET_CHAOS_PROXY_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "net/epoll_loop.h"

/// \file
/// ChaosProxy: a deterministic fault-injecting TCP relay for the socket
/// federation. It sits between the coordinator and a `fedrec_shardd` (one
/// proxy per shard endpoint) and perturbs the byte stream — connection
/// resets, black-holed partitions, delivery delays, single-bit corruption —
/// as *pure functions* of `(chaos_seed, connection, window)`, never of wall
/// time or kernel scheduling.
///
/// Determinism model. TCP chunk boundaries are not reproducible, so chaos
/// draws are keyed on byte-count windows instead: each direction of each
/// connection is split into fixed-size windows of `window_bytes`, reads are
/// capped at the current window's remaining bytes so chunks never straddle a
/// boundary, and one decision is drawn per window via the same SplitMix64
/// keyed-stream chain the engine's FaultPlan uses. Because the federation
/// protocol is strict request/reply and the coordinator delivers shards
/// serially, per-connection byte counts — and therefore the fault schedule
/// and the downstream training transcript — replay bit-identically from
/// `(seed, chaos_seed)` alone. The proxy's own byte-level Stats replay
/// exactly too for faults that never sever a connection mid-flight (resets
/// fire at draw points the proxy controls; delays sever nothing); when a
/// corrupt or partitioned window makes a *peer* tear the connection down
/// while bytes are still in flight, kernel event order decides whether the
/// doomed tail is ever drawn, so only the transcript — not the byte ledger —
/// is the replay contract there. Delays sleep the proxy thread (ordering
/// within a connection is preserved; nothing downstream reads a clock), and
/// partitions discard whole windows, which desynchronises the peer's framing
/// and exercises the coordinator's teardown/retry path without any timer.
///
/// The proxy is a test/bench harness, not production plumbing: one thread,
/// blocking relay writes, full close on either side's EOF.

namespace fedrec {

/// Per-window fault probabilities. Draws are exclusive: a window suffers at
/// most one of reset / corrupt / delay / partition (cumulative thresholds in
/// the listed order), so rates must sum to <= 1.
struct ChaosSpec {
  std::uint64_t chaos_seed = 0;
  double reset_rate = 0.0;      ///< P(hard RST of both sides at window start)
  double corrupt_rate = 0.0;    ///< P(one bit flipped somewhere in window)
  double delay_rate = 0.0;      ///< P(window delivery held delay ms)
  double partition_rate = 0.0;  ///< P(this + next windows black-holed)
  std::uint32_t delay_max_ms = 5;       ///< delays drawn in [1, delay_max_ms]
  std::uint32_t partition_windows = 4;  ///< windows discarded per partition
  std::uint32_t window_bytes = 2048;    ///< draw granularity

  bool enabled() const {
    return reset_rate > 0.0 || corrupt_rate > 0.0 || delay_rate > 0.0 ||
           partition_rate > 0.0;
  }
};

/// What one window suffers.
enum class ChaosAction : std::uint32_t {
  kForward = 0,  ///< deliver verbatim
  kReset,        ///< RST both sides before the window's first byte moves
  kCorrupt,      ///< flip one bit at a drawn in-window offset
  kDelay,        ///< hold the window's first chunk for `delay_ms`
  kPartition,    ///< discard this window and the next partition_windows - 1
};

/// One window's decision, fully determined by (spec, connection, event).
struct ChaosDecision {
  ChaosAction action = ChaosAction::kForward;
  std::uint32_t corrupt_offset = 0;  ///< in-window byte offset (kCorrupt)
  std::uint32_t corrupt_bit = 0;     ///< bit index 0..7 (kCorrupt)
  std::uint32_t delay_ms = 0;        ///< hold duration (kDelay)
};

/// Draws the decision for one `(connection, event)` key — an independent
/// SplitMix64-derived stream per key, so decisions are order-free: any
/// interleaving of connections replays the same schedule. `event` encodes
/// the window index and direction: `window * 2 + direction`.
ChaosDecision DrawChaos(const ChaosSpec& spec, std::uint64_t connection,
                        std::uint64_t event);

/// Single-threaded epoll relay applying a ChaosSpec between one listen port
/// and one upstream endpoint.
class ChaosProxy {
 public:
  struct Options {
    std::string listen_host = "127.0.0.1";
    std::uint16_t listen_port = 0;  ///< 0 = pick a free port (see port())
    std::string upstream_host = "127.0.0.1";
    std::uint16_t upstream_port = 0;
    ChaosSpec chaos;
  };

  /// For a deterministic workload every counter here is a pure function of
  /// (seed, chaos_seed) as long as the spec's faults never make a peer
  /// sever a connection mid-flight (see the determinism caveat above) — the
  /// chaos_test replay suite asserts exactly that for resets + delays.
  struct Stats {
    std::uint64_t connections_accepted = 0;
    std::uint64_t windows_drawn = 0;
    std::uint64_t bytes_forwarded = 0;
    std::uint64_t bytes_blackholed = 0;
    std::uint64_t resets_injected = 0;
    std::uint64_t corruptions_injected = 0;
    std::uint64_t delays_injected = 0;
    std::uint64_t partitions_injected = 0;
  };

  explicit ChaosProxy(Options options);
  ~ChaosProxy();
  ChaosProxy(const ChaosProxy&) = delete;
  ChaosProxy& operator=(const ChaosProxy&) = delete;

  /// Binds and listens; after OK, port() is the proxy's client-facing port.
  [[nodiscard]] Status Listen();
  std::uint16_t port() const { return port_; }

  /// Relays until RequestStop(), then closes every relayed link, so both
  /// peers see EOF once Run returns. Blocks the caller (run it on a thread).
  void Run();

  /// Thread-safe stop signal (self-pipe wakeup into the event loop).
  void RequestStop();

  /// Read after Run() returns (tests) or from the relay thread.
  const Stats& stats() const { return stats_; }

  /// Live relayed-connection count (thread-safe). Once every peer process
  /// has exited this deterministically drains to zero — the replay tests
  /// poll it before RequestStop() so teardown cannot race the final draws.
  std::size_t open_links() const {
    return open_links_.load(std::memory_order_acquire);
  }

 private:
  /// One direction of one relayed connection.
  struct Flow {
    std::uint64_t bytes_seen = 0;       ///< bytes consumed from the source fd
    std::uint64_t blackhole_until = 0;  ///< discard while bytes_seen < this
    ChaosDecision decision;             ///< current window's decision
  };

  struct Link {
    std::uint64_t id = 0;  ///< accept-order connection id (chaos key)
    int fd[2] = {-1, -1};  ///< [0] = downstream (client), [1] = upstream
    Flow flow[2];          ///< [0] = downstream->upstream, [1] = reverse
    bool open = false;
  };

  void AcceptPending();
  /// Relays one readiness event for direction `dir` of `link`.
  void PumpFlow(Link& link, int dir);
  /// Applies the current window's decision to a chunk starting at in-window
  /// offset `window_off`; returns false when the link was reset.
  bool ApplyWindowStart(Link& link, int dir);
  void CloseLink(Link& link, bool hard_reset);
  Link* LinkOf(int fd, int& dir);

  Options options_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  int wake_read_ = -1;
  int wake_write_ = -1;
  EpollLoop loop_;
  std::atomic<bool> stop_{false};

  std::uint64_t next_connection_id_ = 0;
  std::atomic<std::size_t> open_links_{0};
  std::vector<std::unique_ptr<Link>> links_;
  std::vector<std::int32_t> fd_link_;  ///< fd -> index into links_, -1 = none
  std::vector<std::int8_t> fd_dir_;    ///< fd -> source direction (0/1)
  std::string chunk_;                  ///< relay scratch, window-sized
  Stats stats_;
};

}  // namespace fedrec

#endif  // FEDREC_NET_CHAOS_PROXY_H_
