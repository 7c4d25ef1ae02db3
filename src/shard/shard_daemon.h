#ifndef FEDREC_SHARD_SHARD_DAEMON_H_
#define FEDREC_SHARD_SHARD_DAEMON_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "net/deadline_wheel.h"
#include "obs/metrics.h"
#include "net/epoll_loop.h"
#include "net/frame.h"
#include "net/liveness.h"
#include "net/socket.h"
#include "shard/shard_protocol.h"
#include "shard/shard_server.h"

/// \file
/// ShardDaemon: the serving loop behind the fedrec_shardd binary. One
/// process (or thread, in tests) owns one shard's compute: a nonblocking
/// epoll event loop accepts coordinator connections, reassembles length-
/// framed deliveries from reused per-connection buffers, runs the shard's
/// decode + aggregate + FRWD re-encode step in place on those bytes (the
/// same `// fedrec:hot` codec path a fault-armed in-process round runs), and
/// streams the reply back through a short-write-safe send queue. Steady
/// state — one coordinator delivering round after round — allocates
/// nothing; buffers are high-water sized.
///
/// The daemon is deliberately stateless between rounds: everything a round
/// needs travels in its delivery, so a crashed-and-restarted shardd rejoins
/// by simply accepting the coordinator's reconnect. The Hello handshake
/// pins the run: geometry (plan shape, dim, shard index) plus the run
/// fingerprint — the same FRCK checkpoint fingerprint the coordinator's
/// restore validates — are adopted from the first coordinator and every
/// later connection must match, so a shardd can never serve rows for a run
/// it does not belong to.

namespace fedrec {

class ShardDaemon {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;          ///< 0 = pick a free port (see port())
    std::uint64_t shard_index = 0;   ///< which shard this daemon serves
    /// Liveness knobs (see net/liveness.h); all default off, so the daemon
    /// behaves exactly as before liveness existed unless configured.
    LivenessOptions liveness;
    /// Per-connection frame payload cap (see FrameReader::set_max_payload).
    std::uint64_t max_frame_payload = kMaxFramePayload;
    /// Frames served per connection per loop turn before yielding to other
    /// connections (0 = unbounded). A peer that pipelines thousands of
    /// frames then shares the loop instead of monopolising it.
    std::size_t max_frames_per_drain = 64;
  };

  struct Stats {
    std::uint64_t rounds_served = 0;
    std::uint64_t hellos_accepted = 0;
    std::uint64_t hellos_rejected = 0;
    std::uint64_t connections_accepted = 0;
    std::uint64_t recoverable_errors = 0;  ///< kError replies sent
    std::uint64_t heartbeats_sent = 0;     ///< idle probes emitted
    std::uint64_t peers_reaped = 0;        ///< half-open connections closed
    std::uint64_t slow_reads_closed = 0;   ///< partial-frame deadline closes
    std::uint64_t drain_deferrals = 0;     ///< fairness yields mid-drain
  };

  explicit ShardDaemon(Options options);
  ~ShardDaemon();
  ShardDaemon(const ShardDaemon&) = delete;
  ShardDaemon& operator=(const ShardDaemon&) = delete;

  /// Binds and listens; after OK, port() is the bound port. Run() may then
  /// be called (possibly on another thread) — connects issued in between
  /// queue in the listen backlog.
  [[nodiscard]] Status Listen();
  std::uint16_t port() const { return port_; }

  /// Serves until RequestStop() or a kShutdown frame. Blocks the caller.
  void Run();

  /// Thread-safe stop signal (self-pipe wakeup into the event loop).
  void RequestStop();

  /// Serving counters; read after Run() returns (tests) or from the serving
  /// thread.
  const Stats& stats() const { return stats_; }

 private:
  struct Connection {
    int fd = -1;
    FrameReader reader;
    SendQueue out;
    bool helloed = false;
    bool out_armed = false;  ///< EPOLLOUT currently in the epoll mask
    PeerLiveness live;       ///< activity timestamps for the deadline wheel
  };

  void AcceptPending();
  void HandleConnectionEvent(int fd, std::uint32_t events);
  /// Serves complete frames buffered on `fd`, up to max_frames_per_drain
  /// (unbounded when `drain_all`); re-queues the connection on deferral.
  void ServeBufferedFrames(int fd, bool drain_all);
  /// Returns false when the connection must be closed.
  bool HandleFrame(Connection& conn, const FrameView& frame);
  bool HandleHello(Connection& conn, std::string_view payload);
  bool HandleRound(Connection& conn, std::string_view payload);
  /// Serves a metrics scrape: mirrors Stats into the registry and replies
  /// with the full text exposition. Allowed pre-hello — scrapers are not
  /// coordinators and never touch round state.
  bool HandleStatsRequest(Connection& conn);
  /// Republishes the serving counters as `fedrec_shardd_*{shard="N"}`
  /// gauges (scrape-time only; the hot paths keep their plain counters).
  void PublishStats();
  /// Validates `hello` against the adopted geometry (adopting it first if
  /// this is the run's first coordinator).
  [[nodiscard]] Status CheckHello(const ShardHello& hello);
  void SendError(Connection& conn, const Status& status);
  /// Flushes the send queue and (de)arms EPOLLOUT to match.
  bool FlushConnection(Connection& conn);
  void CloseConnection(int fd);
  /// Re-arms (or disarms) `conn`'s slot on the deadline wheel from its
  /// current liveness state.
  void ArmLiveness(Connection& conn);
  /// Acts on one due wheel deadline (probe / reap / slow-read close).
  void HandleDeadline(int fd, std::uint64_t now_ms);
  /// Poll timeout for the next loop turn: 0 while deferred drains are
  /// queued, time-to-next-deadline while the wheel is armed, else -1.
  int NextWaitTimeout() const;
  /// SIGTERM path: serve already-buffered frames and give every connection
  /// a bounded window to flush queued replies before Run() returns.
  void DrainOnStop();

  Options options_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  int wake_read_ = -1;
  int wake_write_ = -1;
  EpollLoop loop_;
  std::atomic<bool> stop_{false};

  bool adopted_ = false;           ///< geometry pinned by the first hello
  ShardHello geometry_;
  std::unique_ptr<ShardServer> server_;

  std::vector<std::unique_ptr<Connection>> conns_;  ///< indexed by fd
  BinaryWriter scratch_;           ///< error / ack payload encode scratch
  DeadlineWheel wheel_;            ///< liveness deadlines keyed by fd
  std::vector<std::uint64_t> due_;       ///< ExpireDue scratch (reused)
  std::vector<int> deferred_;            ///< fds with frames still buffered
  std::vector<int> deferred_scratch_;    ///< swap buffer for the above
  Stats stats_;
  std::string stats_text_;               ///< kStatsReply render scratch
  /// Scrape-facing mirrors of Stats plus the probe round-trip histogram;
  /// registered once in the constructor, labelled by shard index so
  /// multi-daemon processes (tests) keep their fleets apart.
  struct ServingMetrics {
    obs::Gauge* rounds_served = nullptr;
    obs::Gauge* hellos_accepted = nullptr;
    obs::Gauge* hellos_rejected = nullptr;
    obs::Gauge* connections_accepted = nullptr;
    obs::Gauge* recoverable_errors = nullptr;
    obs::Gauge* heartbeats_sent = nullptr;
    obs::Gauge* peers_reaped = nullptr;
    obs::Gauge* slow_reads_closed = nullptr;
    obs::Gauge* drain_deferrals = nullptr;
    obs::Histogram* heartbeat_rtt_ms = nullptr;
  };
  ServingMetrics metrics_;
};

}  // namespace fedrec

#endif  // FEDREC_SHARD_SHARD_DAEMON_H_
