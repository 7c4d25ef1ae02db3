#include "net/chaos_proxy.h"

#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <chrono>
#include <string_view>
#include <thread>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "net/socket.h"

namespace fedrec {

namespace {

/// Salt separating the chaos stream from every other keyed stream in the
/// tree (arbitrary odd constant; only inequality matters).
constexpr std::uint64_t kChaosSalt = 0x6368616F73707831ULL;  // "chaospx1"

}  // namespace

ChaosDecision DrawChaos(const ChaosSpec& spec, std::uint64_t connection,
                        std::uint64_t event) {
  ChaosDecision decision;
  if (!spec.enabled()) return decision;
  // The FaultPlan keyed-stream fork: a SplitMix64 chain over the key words
  // seeds an independent generator per (connection, event), so the schedule
  // is order-free — any interleaving of connections replays identically.
  std::uint64_t sm = spec.chaos_seed ^ kChaosSalt;
  sm = SplitMix64(sm) ^ connection;
  sm = SplitMix64(sm) ^ event;
  std::uint64_t leaf = SplitMix64(sm);
  Rng stream(leaf);
  const double p = stream.NextDouble();
  double edge = spec.reset_rate;
  if (p < edge) {
    decision.action = ChaosAction::kReset;
    return decision;
  }
  edge += spec.corrupt_rate;
  if (p < edge) {
    decision.action = ChaosAction::kCorrupt;
    decision.corrupt_offset = static_cast<std::uint32_t>(
        stream.NextBounded(spec.window_bytes > 0 ? spec.window_bytes : 1));
    decision.corrupt_bit = static_cast<std::uint32_t>(stream.NextBounded(8));
    return decision;
  }
  edge += spec.delay_rate;
  if (p < edge) {
    decision.action = ChaosAction::kDelay;
    decision.delay_ms = 1 + static_cast<std::uint32_t>(stream.NextBounded(
                                spec.delay_max_ms > 0 ? spec.delay_max_ms : 1));
    return decision;
  }
  edge += spec.partition_rate;
  if (p < edge) {
    decision.action = ChaosAction::kPartition;
  }
  return decision;
}

ChaosProxy::ChaosProxy(Options options) : options_(std::move(options)) {
  FEDREC_CHECK_GT(options_.chaos.window_bytes, 0u);
  int pipe_fds[2];
  FEDREC_CHECK_EQ(::pipe(pipe_fds), 0) << "self-pipe creation failed";
  wake_read_ = pipe_fds[0];
  wake_write_ = pipe_fds[1];
  SetNonBlocking(wake_read_).CheckOK();
  SetNonBlocking(wake_write_).CheckOK();
  chunk_.resize(options_.chaos.window_bytes);
}

ChaosProxy::~ChaosProxy() {
  CloseSocket(listen_fd_);
  CloseSocket(wake_read_);
  CloseSocket(wake_write_);
}

Status ChaosProxy::Listen() {
  FEDREC_CHECK(listen_fd_ < 0) << "Listen() called twice";
  Result<int> fd = TcpListen(options_.listen_host, options_.listen_port,
                             /*backlog=*/128);
  if (!fd.ok()) return fd.status();
  listen_fd_ = fd.value();
  Status status = SetNonBlocking(listen_fd_);
  if (status.ok()) {
    Result<std::uint16_t> bound = BoundPort(listen_fd_);
    if (bound.ok()) {
      port_ = bound.value();
    } else {
      status = bound.status();
    }
  }
  if (!status.ok()) CloseSocket(listen_fd_);
  return status;
}

void ChaosProxy::RequestStop() {
  stop_.store(true, std::memory_order_release);
  const char byte = 0;
  const ssize_t written = ::write(wake_write_, &byte, 1);
  (void)written;  // a full pipe already guarantees a pending wakeup
}

void ChaosProxy::Run() {
  FEDREC_CHECK(listen_fd_ >= 0) << "Listen() must succeed before Run()";
  loop_.Watch(listen_fd_, EPOLLIN, static_cast<std::uint64_t>(listen_fd_))
      .CheckOK();
  loop_.Watch(wake_read_, EPOLLIN, static_cast<std::uint64_t>(wake_read_))
      .CheckOK();
  while (!stop_.load(std::memory_order_acquire)) {
    const std::span<const epoll_event> events = loop_.Wait(-1);
    for (const epoll_event& event : events) {
      const int fd = static_cast<int>(event.data.u64);
      if (fd == wake_read_) {
        char drain[64];
        while (::read(wake_read_, drain, sizeof(drain)) > 0) {
        }
        continue;  // stop_ is checked by the loop condition
      }
      if (fd == listen_fd_) {
        AcceptPending();
        continue;
      }
      int dir = 0;
      Link* link = LinkOf(fd, dir);
      if (link == nullptr) continue;  // stale event after close
      PumpFlow(*link, dir);
    }
  }
  loop_.Remove(listen_fd_);
  loop_.Remove(wake_read_);
  // A stopped relay holds no connection open: both peers of every link see
  // the close as soon as Run returns, not when the proxy is destroyed.
  for (std::unique_ptr<Link>& link : links_) {
    if (link != nullptr && link->open) CloseLink(*link, /*hard_reset=*/false);
  }
}

void ChaosProxy::AcceptPending() {
  for (;;) {
    int down = -1;
    if (!TcpAccept(listen_fd_, down).ok()) return;
    if (down < 0) return;  // backlog drained
    Result<int> up = TcpConnect(options_.upstream_host, options_.upstream_port);
    if (!up.ok()) {
      // Upstream refused (killed shardd): drop the client; its transport
      // surfaces the close as an outage and retries.
      CloseSocket(down);
      continue;
    }
    auto link = std::make_unique<Link>();
    link->id = next_connection_id_++;
    link->fd[0] = down;
    link->fd[1] = up.value();
    link->open = true;
    const std::size_t index = links_.size();
    const int max_fd = link->fd[0] > link->fd[1] ? link->fd[0] : link->fd[1];
    if (static_cast<std::size_t>(max_fd) >= fd_link_.size()) {
      fd_link_.resize(static_cast<std::size_t>(max_fd) + 1, -1);
      fd_dir_.resize(static_cast<std::size_t>(max_fd) + 1, 0);
    }
    bool watched = loop_.Watch(link->fd[0], EPOLLIN,
                               static_cast<std::uint64_t>(link->fd[0]))
                       .ok();
    watched = watched && loop_.Watch(link->fd[1], EPOLLIN,
                                     static_cast<std::uint64_t>(link->fd[1]))
                             .ok();
    if (!watched) {
      loop_.Remove(link->fd[0]);
      CloseSocket(link->fd[0]);
      CloseSocket(link->fd[1]);
      continue;
    }
    fd_link_[static_cast<std::size_t>(link->fd[0])] =
        static_cast<std::int32_t>(index);
    fd_dir_[static_cast<std::size_t>(link->fd[0])] = 0;
    fd_link_[static_cast<std::size_t>(link->fd[1])] =
        static_cast<std::int32_t>(index);
    fd_dir_[static_cast<std::size_t>(link->fd[1])] = 1;
    links_.push_back(std::move(link));
    ++stats_.connections_accepted;
    open_links_.fetch_add(1, std::memory_order_release);
  }
}

ChaosProxy::Link* ChaosProxy::LinkOf(int fd, int& dir) {
  if (fd < 0 || static_cast<std::size_t>(fd) >= fd_link_.size()) return nullptr;
  const std::int32_t index = fd_link_[static_cast<std::size_t>(fd)];
  if (index < 0) return nullptr;
  Link* link = links_[static_cast<std::size_t>(index)].get();
  if (link == nullptr || !link->open) return nullptr;
  dir = fd_dir_[static_cast<std::size_t>(fd)];
  return link;
}

bool ChaosProxy::ApplyWindowStart(Link& link, int dir) {
  Flow& flow = link.flow[dir];
  const std::uint64_t window =
      flow.bytes_seen / options_.chaos.window_bytes;
  flow.decision = DrawChaos(options_.chaos, link.id,
                            window * 2 + static_cast<std::uint64_t>(dir));
  ++stats_.windows_drawn;
  switch (flow.decision.action) {
    case ChaosAction::kReset:
      ++stats_.resets_injected;
      CloseLink(link, /*hard_reset=*/true);
      return false;
    case ChaosAction::kPartition:
      ++stats_.partitions_injected;
      // Window-aligned by construction: bytes_seen sits on a boundary here,
      // so the black hole ends exactly where a fresh draw begins.
      flow.blackhole_until =
          flow.bytes_seen + static_cast<std::uint64_t>(
                                options_.chaos.partition_windows > 0
                                    ? options_.chaos.partition_windows
                                    : 1) *
                                options_.chaos.window_bytes;
      break;
    case ChaosAction::kDelay:
      ++stats_.delays_injected;
      // Holding the relay thread preserves per-connection ordering and never
      // reaches a clock the deterministic core could observe.
      std::this_thread::sleep_for(
          std::chrono::milliseconds(flow.decision.delay_ms));
      break;
    case ChaosAction::kForward:
    case ChaosAction::kCorrupt:
      break;
  }
  return true;
}

void ChaosProxy::PumpFlow(Link& link, int dir) {
  // Exactly one read per readiness event: the relay fds stay blocking (so
  // WriteAllVec can loop over partial writes), and one read after a
  // level-triggered wakeup is guaranteed data or EOF. Remaining bytes
  // simply re-fire the loop.
  const std::uint64_t window_bytes = options_.chaos.window_bytes;
  Flow& flow = link.flow[dir];
  const int src = link.fd[dir];
  const int dst = link.fd[1 - dir];
  const std::uint64_t window_off = flow.bytes_seen % window_bytes;
  // Cap every read at the current window's remaining bytes: TCP chunk
  // boundaries are timing-dependent, but window membership of every byte is
  // then a pure function of the per-connection byte count.
  const std::size_t cap = static_cast<std::size_t>(window_bytes - window_off);
  ReadOutcome outcome;
  if (!ReadSome(src, chunk_.data(), cap, outcome).ok()) {
    CloseLink(link, /*hard_reset=*/false);
    return;
  }
  if (outcome.would_block) return;
  if (outcome.eof) {
    CloseLink(link, /*hard_reset=*/false);
    return;
  }
  const std::size_t n = outcome.bytes;
  const bool blackholed = flow.bytes_seen < flow.blackhole_until;
  if (!blackholed && window_off == 0) {
    if (!ApplyWindowStart(link, dir)) return;  // link was reset
  }
  if (flow.bytes_seen < flow.blackhole_until) {
    // Partitioned: the window's bytes vanish. The starved peer loses framing
    // and its next decode or read deadline tears the connection down — the
    // same recovery path a real network partition exercises.
    stats_.bytes_blackholed += n;
    flow.bytes_seen += n;
    return;
  }
  if (flow.decision.action == ChaosAction::kCorrupt) {
    const std::uint64_t target = flow.decision.corrupt_offset;
    if (target >= window_off && target < window_off + n) {
      const std::size_t at = static_cast<std::size_t>(target - window_off);
      chunk_[at] =
          static_cast<char>(static_cast<unsigned char>(chunk_[at]) ^
                            (1u << (flow.decision.corrupt_bit & 7u)));
      ++stats_.corruptions_injected;
    }
  }
  const std::array<std::string_view, 1> pieces = {
      std::string_view(chunk_.data(), n)};
  if (!WriteAllVec(dst, pieces).ok()) {
    CloseLink(link, /*hard_reset=*/false);
    return;
  }
  stats_.bytes_forwarded += n;
  flow.bytes_seen += n;
}

void ChaosProxy::CloseLink(Link& link, bool hard_reset) {
  for (int side = 0; side < 2; ++side) {
    int& fd = link.fd[side];
    if (fd < 0) continue;
    loop_.Remove(fd);
    if (static_cast<std::size_t>(fd) < fd_link_.size()) {
      fd_link_[static_cast<std::size_t>(fd)] = -1;
    }
    if (hard_reset) {
      // RST instead of FIN: both peers observe ECONNRESET, the failure a
      // crashed process produces, rather than an orderly close.
      struct linger lg;
      lg.l_onoff = 1;
      lg.l_linger = 0;
      (void)::setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
    }
    CloseSocket(fd);
  }
  if (link.open) open_links_.fetch_sub(1, std::memory_order_release);
  link.open = false;
}

}  // namespace fedrec
