// socket_fleet: FederationService over TCP, its shards in two in-process
// ShardDaemon threads reached through SocketShardTransport, driven by a
// single-thread epoll load generator: 4 connections x 16 simulated clients,
// 64 uploads per round, sum rule. The loop is closed — a client sends its
// next pre-encoded FRWU upload as soon as its kRoundAck arrives, as
// synchronous FL clients wait for the new model. Uploads are shaped like a
// benign ml-100k client's: a user's positives plus as many sampled
// negatives (the rows BPR touches), drawn from the seed's synthetic ml-100k.
//
// Traced runs hand the service a timing ShardTransport wrapper (per-shard
// exec time), record the service's own stage spans through the program's
// obs::TraceRing, and read the fedrec_stage_us series for the server stages.

#include <pthread.h>
#include <sys/epoll.h>
#include <time.h>

#include <array>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "data/synthetic.h"
#include "harness.h"
#include "model/bpr.h"
#include "model/mf_model.h"
#include "net/epoll_loop.h"
#include "net/frame.h"
#include "net/socket.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "shard/federation_service.h"
#include "shard/shard_daemon.h"
#include "shard/socket_transport.h"
#include "shard/wire.h"

namespace perfbench {
namespace {

constexpr std::size_t kConnections = 4;
constexpr std::size_t kClientsPerConnection = 16;
constexpr std::size_t kClients = kConnections * kClientsPerConnection;
constexpr std::size_t kShards = 2;
constexpr std::size_t kItems = 1682;
constexpr std::size_t kDim = 32;
/// Distinct pre-encoded uploads per client, cycled round by round.
constexpr std::size_t kUploadsPerClient = 4;
constexpr std::size_t kWarmupRounds = 20;
/// Rounds the traced window is compared over against an untraced replay.
constexpr std::size_t kOverheadRounds = 300;
/// A round that makes no progress for this long counts as failed.
constexpr int kStallMs = 5000;
/// Rounds the timing transport keeps per-delivery records for.
constexpr std::size_t kMaxRounds = 1 << 16;

/// Times every shard delivery the service makes. Calls are recorded by the
/// serving thread into preallocated storage and read after it is joined.
class TimedTransport final : public fedrec::ShardTransport {
 public:
  struct Call {
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::uint64_t round = 0;
    bool ok = true;
  };

  explicit TimedTransport(fedrec::ShardTransport* inner) : inner_(inner) {
    calls_.reserve(kMaxRounds * kShards * 2);
  }

  fedrec::ShardServer& server() override { return inner_->server(); }
  bool fallible() const override { return inner_->fallible(); }
  const char* name() const override { return "timed"; }

  fedrec::Status ExecuteShardRound(std::size_t s,
                                   const fedrec::AggregatorOptions& options,
                                   std::size_t round_size,
                                   std::uint64_t krum_source,
                                   std::uint64_t round,
                                   std::uint64_t attempt) override {
    const std::uint64_t start = NowNs();
    fedrec::Status status = inner_->ExecuteShardRound(
        s, options, round_size, krum_source, round, attempt);
    if (calls_.size() < calls_.capacity()) {
      calls_.push_back({start, NowNs(), round, status.ok()});
    }
    return status;
  }

  const std::vector<Call>& calls() const { return calls_; }

 private:
  fedrec::ShardTransport* inner_;
  std::vector<Call> calls_;
};

struct Connection {
  int fd = -1;
  fedrec::FrameReader reader;
  fedrec::SendQueue out;
  bool out_armed = false;
  /// Clients with an upload in flight on this connection, in send order
  /// (the service acks one connection's uploads in the order it read them).
  std::array<std::size_t, kClientsPerConnection> fifo{};
  std::size_t head = 0;
  std::size_t queued = 0;
};

struct Client {
  std::size_t conn = 0;
  std::uint64_t round = 0;  ///< round of the upload in flight
  std::uint64_t send_ns = 0;
  std::array<std::string, kUploadsPerClient> uploads;
};

/// What one closed-loop drive measured.
struct Drive {
  bool measure = false;
  std::uint64_t first_round = 0;
  std::uint64_t rounds = 0;
  std::uint64_t window_ns = 0;
  std::uint64_t first_rounds_ns = 0;  ///< time to finish kOverheadRounds
  double first_rounds_peak_heap_mb = 0.0;  ///< heap high-water by then
  std::uint64_t busy_ns = 0;          ///< generator time outside epoll_wait
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string error;
  SpanLog* log = nullptr;  ///< traced drives: one span per round
  Samples round_ms;
  Samples ack_ms;
};

/// Shard daemons, coordinator service and the fleet's connections.
class Topology {
 public:
  Topology(std::uint64_t seed, std::vector<Client> clients, bool timed)
      : state_(std::move(clients)) {
    fedrec::SocketShardTransport::Options transport_options;
    for (std::size_t s = 0; s < kShards; ++s) {
      fedrec::ShardDaemon::Options options;
      options.shard_index = s;
      daemons_.push_back(std::make_unique<fedrec::ShardDaemon>(options));
      daemons_.back()->Listen().CheckOK();
      fedrec::ShardEndpoint endpoint;
      endpoint.port = daemons_.back()->port();
      transport_options.endpoints.push_back(endpoint);
    }
    for (std::size_t s = 0; s < kShards; ++s) {
      daemon_threads_.emplace_back([d = daemons_[s].get()] { d->Run(); });
    }
    const fedrec::ShardPlan plan(kItems, kShards,
                                 fedrec::ShardPolicy::kContiguousRange);
    transport_ = std::make_unique<fedrec::SocketShardTransport>(
        plan, kDim, transport_options);
    if (timed) timed_ = std::make_unique<TimedTransport>(transport_.get());
    fedrec::MfHyperParams params;
    params.dim = kDim;
    fedrec::Rng model_rng(seed + 3);
    model_ = std::make_unique<fedrec::MfModel>(kItems, params, model_rng);
    fedrec::FederationService::Options service_options;
    service_options.round_size = kClients;
    service_options.learning_rate = params.learning_rate;
    service_ = std::make_unique<fedrec::FederationService>(
        model_.get(),
        timed_ != nullptr ? static_cast<fedrec::ShardTransport*>(timed_.get())
                          : transport_.get(),
        service_options);
    service_->Listen().CheckOK();
    service_thread_ = std::thread([this] { service_->Run(); });

    for (std::size_t c = 0; c < kConnections; ++c) {
      auto fd = fedrec::TcpConnect("127.0.0.1", service_->port());
      fd.status().CheckOK();
      conns_[c].fd = fd.value();
      fedrec::SetNonBlocking(conns_[c].fd).CheckOK();
      loop_.Watch(conns_[c].fd, EPOLLIN, c).CheckOK();
    }
  }

  ~Topology() { Stop(); }
  Topology(const Topology&) = delete;
  Topology& operator=(const Topology&) = delete;

  /// Runs closed-loop rounds until at least `min_rounds` rounds and
  /// `budget_ns` have passed, then lets the last round drain.
  void Run(std::size_t min_rounds, std::uint64_t budget_ns, Drive& drive);

  /// Stops and joins the service and the daemons. Afterwards every
  /// connection must hold no further frame (one ack per upload).
  bool Stop();

  /// CPU time used so far by the program's serving threads (coordinator
  /// and shard daemons; not the load generator), ns. Valid until Stop().
  std::uint64_t ProgramCpuNs() const;

  const fedrec::FederationService& service() const { return *service_; }
  const TimedTransport* timed() const { return timed_.get(); }
  std::uint64_t rounds_closed() const { return next_round_; }
  std::uint64_t bytes_sent() const { return bytes_sent_; }

 private:
  void Send(std::size_t client_index, std::uint64_t round);
  bool Flush(Connection& conn);

  std::vector<Client> state_;
  std::vector<std::unique_ptr<fedrec::ShardDaemon>> daemons_;
  std::vector<std::thread> daemon_threads_;
  std::unique_ptr<fedrec::SocketShardTransport> transport_;
  std::unique_ptr<TimedTransport> timed_;
  std::unique_ptr<fedrec::MfModel> model_;
  std::unique_ptr<fedrec::FederationService> service_;
  std::thread service_thread_;
  std::array<Connection, kConnections> conns_;
  fedrec::EpollLoop loop_;
  bool stopped_ = false;
  std::uint64_t next_round_ = 0;  ///< id the next round's acks carry
  std::uint64_t bytes_sent_ = 0;
  std::array<std::uint64_t, 2> round_start_ns_{};
  std::array<std::uint64_t, 2> round_started_{};  ///< round id + 1, 0 = none
};

bool Topology::Flush(Connection& conn) {
  bool blocked = false;
  if (!conn.out.Flush(conn.fd, blocked).ok()) return false;
  if (blocked != conn.out_armed) {
    const std::uint32_t events =
        blocked ? (EPOLLIN | EPOLLOUT) : static_cast<std::uint32_t>(EPOLLIN);
    const std::size_t index = static_cast<std::size_t>(&conn - conns_.data());
    if (!loop_.Modify(conn.fd, events, index).ok()) return false;
    conn.out_armed = blocked;
  }
  return true;
}

void Topology::Send(std::size_t client_index, std::uint64_t round) {
  Client& client = state_[client_index];
  Connection& conn = conns_[client.conn];
  client.round = round;
  client.send_ns = NowNs();
  const std::size_t slot = round & 1;
  if (round_started_[slot] != round + 1) {
    round_started_[slot] = round + 1;
    round_start_ns_[slot] = client.send_ns;
  }
  conn.fifo[(conn.head + conn.queued) % kClientsPerConnection] = client_index;
  ++conn.queued;
  const std::string& payload = client.uploads[round % kUploadsPerClient];
  const std::array<std::string_view, 1> pieces = {std::string_view(payload)};
  conn.out.AppendFrame(fedrec::FrameType::kClientUpload, pieces);
  bytes_sent_ += payload.size();
  Flush(conn);
}

void Topology::Run(std::size_t min_rounds, std::uint64_t budget_ns,
                   Drive& drive) {
  constexpr std::uint64_t kOpen = ~std::uint64_t{0};
  const std::uint64_t first = next_round_;
  std::uint64_t last = kOpen;  // fixed once the budget is spent
  std::array<std::size_t, 2> acks{};
  drive.first_round = first;
  const std::uint64_t start = NowNs();
  const auto fail = [&](const std::string& why) {
    std::uint64_t in_flight = 0;
    for (const Connection& conn : conns_) in_flight += conn.queued;
    drive.failed += in_flight;
    drive.error = why;
  };
  for (std::size_t c = 0; c < kClients; ++c) Send(c, first);
  drive.attempted += kClients;
  bool done = false;
  while (!done) {
    const std::span<const epoll_event> events = loop_.Wait(kStallMs);
    const std::uint64_t woke = NowNs();
    if (events.empty()) {
      fail("no ack within " + std::to_string(kStallMs) + " ms");
      return;
    }
    for (const epoll_event& event : events) {
      Connection& conn = conns_[event.data.u64];
      if ((event.events & EPOLLOUT) != 0 && !Flush(conn)) {
        fail("send failed");
        return;
      }
      if ((event.events & (EPOLLIN | EPOLLHUP | EPOLLERR)) == 0) continue;
      for (;;) {
        char* tail = conn.reader.PrepareWrite(1 << 12);
        fedrec::ReadOutcome outcome;
        if (!fedrec::ReadSome(conn.fd, tail, conn.reader.writable(), outcome)
                 .ok() ||
            outcome.eof) {
          fail("coordinator dropped a connection");
          return;
        }
        conn.reader.CommitWrite(outcome.bytes);
        if (outcome.would_block) break;
      }
      for (;;) {
        fedrec::FrameView frame;
        bool has_frame = false;
        if (!conn.reader.Next(frame, has_frame).ok()) {
          fail("unframeable bytes from the coordinator");
          return;
        }
        if (!has_frame) break;
        if (frame.type != fedrec::FrameType::kRoundAck) {
          fail("upload answered with frame type " +
               std::to_string(static_cast<int>(frame.type)));
          return;
        }
        if (conn.queued == 0) {
          fail("ack without an upload in flight");
          return;
        }
        const std::size_t c = conn.fifo[conn.head];
        conn.head = (conn.head + 1) % kClientsPerConnection;
        --conn.queued;
        Client& client = state_[c];
        fedrec::BinaryReader reader = fedrec::BinaryReader::View(frame.payload);
        const auto round_id = reader.ReadU64();
        if (!round_id.ok() || !reader.exhausted() ||
            round_id.value() != client.round) {
          fail("ack carries the wrong round id");
          return;
        }
        const std::uint64_t now = NowNs();
        if (drive.measure) drive.ack_ms.Add(NsToMs(now - client.send_ns));
        const std::size_t slot = client.round & 1;
        if (++acks[slot] == kClients) {
          acks[slot] = 0;
          ++drive.rounds;
          next_round_ = client.round + 1;
          if (drive.measure) {
            drive.round_ms.Add(NsToMs(now - round_start_ns_[slot]));
          }
          if (drive.log != nullptr) {
            drive.log->Append({"round", round_start_ns_[slot], now, -1,
                               static_cast<std::uint32_t>(client.round), 0});
          }
          if (drive.rounds == kOverheadRounds) {
            drive.first_rounds_ns = now - start;
            drive.first_rounds_peak_heap_mb = PeakHeapMb();
          }
          if (client.round == last) {
            done = true;
          } else if (last == kOpen && drive.rounds + 1 >= min_rounds &&
                     now - start >= budget_ns) {
            last = client.round + 1;
          }
        }
        if (client.round < last) {
          Send(c, client.round + 1);
          ++drive.attempted;
        }
      }
    }
    drive.busy_ns += NowNs() - woke;
  }
  drive.window_ns = NowNs() - start;
}

std::uint64_t Topology::ProgramCpuNs() const {
  std::uint64_t total = 0;
  const auto add = [&](const std::thread& thread) {
    clockid_t clock;
    timespec ts{};
    if (pthread_getcpuclockid(
            const_cast<std::thread&>(thread).native_handle(), &clock) == 0 &&
        clock_gettime(clock, &ts) == 0) {
      total += static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ULL +
               static_cast<std::uint64_t>(ts.tv_nsec);
    }
  };
  add(service_thread_);
  for (const std::thread& thread : daemon_threads_) add(thread);
  return total;
}

bool Topology::Stop() {
  if (stopped_) return true;
  stopped_ = true;
  service_->RequestStop();
  service_thread_.join();
  for (auto& daemon : daemons_) daemon->RequestStop();
  for (std::thread& thread : daemon_threads_) thread.join();
  bool clean = true;
  for (Connection& conn : conns_) {
    for (;;) {
      char* tail = conn.reader.PrepareWrite(1 << 12);
      fedrec::ReadOutcome outcome;
      if (!fedrec::ReadSome(conn.fd, tail, conn.reader.writable(), outcome)
               .ok() ||
          outcome.eof || outcome.would_block) {
        conn.reader.CommitWrite(outcome.bytes);
        break;
      }
      conn.reader.CommitWrite(outcome.bytes);
    }
    fedrec::FrameView frame;
    bool has_frame = false;
    if (!conn.reader.Next(frame, has_frame).ok() || has_frame ||
        conn.queued != 0) {
      clean = false;
    }
    fedrec::CloseSocket(conn.fd);
  }
  return clean;
}

/// Pre-encodes every client's uploads: a random ml-100k user's positives
/// plus as many sampled negatives, with small gradient values.
std::vector<Client> MakeClients(const fedrec::Dataset& data,
                                std::uint64_t seed, double& mean_rows) {
  std::vector<Client> clients(kClients);
  fedrec::Rng rng(seed + 1);
  fedrec::BinaryWriter writer;
  std::vector<std::uint32_t> negatives;
  double rows = 0.0;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients[c].conn = c % kConnections;
    for (std::string& encoded : clients[c].uploads) {
      const auto user = static_cast<std::size_t>(rng.NextBounded(data.num_users()));
      const std::vector<std::uint32_t>& positives = data.UserItems(user);
      fedrec::SampleNegativesInto(positives, data.num_items(), positives.size(),
                                  rng, negatives);
      fedrec::SparseRowMatrix upload(kDim);
      const std::array<const std::vector<std::uint32_t>*, 2> row_sources = {
          &positives, &negatives};
      for (const std::vector<std::uint32_t>* items : row_sources) {
        for (std::uint32_t item : *items) {
          if (upload.Contains(item)) continue;
          for (float& value : upload.RowMutable(item)) {
            value = static_cast<float>(rng.NextGaussian(0.0, 0.01));
          }
        }
      }
      rows += static_cast<double>(upload.row_ids().size());
      writer.Clear();
      fedrec::EncodeUpload(upload, c, writer);
      encoded = writer.buffer();
    }
  }
  mean_rows = rows / static_cast<double>(kClients * kUploadsPerClient);
  return clients;
}

struct StageSums {
  std::uint64_t sum[4] = {};
  std::uint64_t count[4] = {};
};

constexpr const char* kServiceStages[4] = {
    "stage=\"route\"", "stage=\"shard_aggregate\"", "stage=\"merge\"",
    "stage=\"apply\""};

StageSums ReadStages() {
  StageSums sums;
  fedrec::obs::Registry& registry = fedrec::obs::Registry::Global();
  for (std::size_t i = 0; i < 4; ++i) {
    fedrec::obs::Histogram* hist =
        registry.GetHistogram("fedrec_stage_us", kServiceStages[i]);
    sums.sum[i] = hist->Sum();
    sums.count[i] = hist->Count();
  }
  return sums;
}

}  // namespace

int RunSocketFleet(const Options& options) {
  PrintContext(options, 0);
  Report report(options);
  if (options.trace) fedrec::obs::TraceRing::Global().Enable(1 << 16);

  Samples setup_s;
  Samples generate_s;
  double mean_rows = 0.0;
  std::unique_ptr<Topology> topology;
  // Set-up: data, uploads, topology up, warm-up rounds. All but the last
  // set-up are torn down again; set-up time is their median.
  const auto set_up = [&](bool timed) {
    const std::uint64_t start = NowNs();
    const fedrec::Dataset data =
        fedrec::GenerateSynthetic(fedrec::MovieLens100KConfig(options.seed));
    generate_s.Add(NsToS(NowNs() - start));
    auto built = std::make_unique<Topology>(
        options.seed, MakeClients(data, options.seed, mean_rows), timed);
    Drive warmup;
    built->Run(kWarmupRounds, 0, warmup);
    report.Check(warmup.failed == 0, "warm-up failed: " + warmup.error);
    setup_s.Add(NsToS(NowNs() - start));
    return built;
  };
  for (int i = 0; i < kSetups; ++i) {
    topology.reset();
    topology = set_up(options.trace);
  }

  // Measured window.
  const std::uint64_t warm_rounds = topology->rounds_closed();
  const std::uint64_t warm_bytes = topology->bytes_sent();
  Drive drive;
  drive.measure = true;
  std::unique_ptr<SpanLog> log;
  if (options.trace) {
    log = std::make_unique<SpanLog>(std::size_t{1} << 20);
    drive.log = log.get();
  }
  const StageSums stages_before = ReadStages();
  const std::uint64_t allocs_before = AllocCount();
  ResetPeakHeap();
  const HostTicks ticks_before = ReadHostTicks();
  const std::uint64_t cpu_before = topology->ProgramCpuNs();
  topology->Run(kOverheadRounds,
                static_cast<std::uint64_t>(options.seconds * 1e9), drive);
  const std::uint64_t window_allocs = AllocCount() - allocs_before;
  const std::uint64_t window_cpu_ns = topology->ProgramCpuNs() - cpu_before;
  const double steal_pct = StealPercent(ticks_before, ReadHostTicks());
  const bool clean_stop = topology->Stop();
  const StageSums stages_after = ReadStages();

  const fedrec::FederationService::Stats& stats = topology->service().stats();
  const std::uint64_t total_rounds = warm_rounds + drive.rounds;
  report.Check(drive.failed == 0, "uploads failed: " + drive.error);
  report.Check(clean_stop, "a connection received an ack for no upload");
  report.Check(stats.rounds_completed == total_rounds,
               "service closed " + std::to_string(stats.rounds_completed) +
                   " rounds, fleet saw " + std::to_string(total_rounds));
  report.Check(stats.uploads_received == total_rounds * kClients,
               "service received " + std::to_string(stats.uploads_received) +
                   " uploads, expected " +
                   std::to_string(total_rounds * kClients));
  report.Check(stats.rejected_uploads == 0, "service rejected uploads");
  report.Check(stats.shed_frames == 0, "service shed replies");
  report.Check(stats.upload_bytes == topology->bytes_sent(),
               "service counted different upload bytes than were sent");
  report.Check(drive.ack_ms.size() == drive.rounds * kClients,
               "not exactly one ack per upload");

  const double rounds = static_cast<double>(drive.rounds);
  report.Set("setup_s", setup_s.Median(), setup_s.size());
  report.Set("round_cpu_ms", NsToMs(window_cpu_ns) / rounds, drive.rounds);
  report.Set("peak_heap_mb", drive.first_rounds_peak_heap_mb, kOverheadRounds);
  report.WallClock("rounds_per_s", rounds / NsToS(drive.window_ns),
                   drive.rounds);
  report.WallClock("round_p50_ms", drive.round_ms.Median(), drive.rounds);
  report.WallClock("round_p99_ms", drive.round_ms.Percentile(99.0),
                   drive.rounds);
  report.Info("peak_rss_mb", PeakRssMb(), "MB", 1);
  const double fail_ratio =
      drive.attempted > 0 ? static_cast<double>(drive.failed) /
                                static_cast<double>(drive.attempted)
                          : 0.0;
  report.Info("upload_ack_p50_ms", drive.ack_ms.Median(), "ms",
              drive.ack_ms.size());
  report.Info("upload_ack_p99_ms", drive.ack_ms.Percentile(99.0), "ms",
              drive.ack_ms.size());
  report.Info("upload_fail_ratio", fail_ratio, "ratio", drive.attempted);
  report.Info("host_steal_pct", steal_pct, "%", 1);
  report.CountOps(drive.attempted, drive.failed);

  if (options.trace) {
    fedrec::obs::TraceRing::Global().Disable();
    const auto stage_us = [&](std::size_t i) {
      return static_cast<double>(stages_after.sum[i] - stages_before.sum[i]) /
             rounds;
    };
    // Shard deliveries of the measured rounds, folded per round.
    std::uint64_t exec_calls = 0;
    std::uint64_t exec_failures = 0;
    std::uint64_t exec_ns = 0;
    std::uint64_t exec_max_ns = 0;
    std::uint64_t round_max = 0;
    std::uint64_t current = ~std::uint64_t{0};
    for (const TimedTransport::Call& call : topology->timed()->calls()) {
      if (call.round < drive.first_round) continue;
      if (call.round != current) {
        exec_max_ns += round_max;
        round_max = 0;
        current = call.round;
      }
      const std::uint64_t ns = call.end_ns - call.start_ns;
      ++exec_calls;
      exec_ns += ns;
      round_max = std::max(round_max, ns);
      if (!call.ok) ++exec_failures;
      log->Append({"shard.exec", call.start_ns, call.end_ns, -1,
                  static_cast<std::uint32_t>(call.round), 1});
    }
    exec_max_ns += round_max;
    const double interval_us = NsToUs(drive.window_ns) / rounds;
    double stages_us = 0.0;
    for (std::size_t i = 0; i < 4; ++i) stages_us += stage_us(i);
    const double busy_us = NsToUs(drive.busy_ns) / rounds;

    report.Set("data.generate_s", generate_s.Median(), generate_s.size());
    report.Set("fed.upload_rows", mean_rows, kClients * kUploadsPerClient);
    report.Set("shard.exec_us",
               exec_calls > 0 ? NsToUs(exec_ns) / static_cast<double>(exec_calls)
                              : 0.0,
               exec_calls);
    report.Set("shard.exec_sum_us", NsToUs(exec_ns) / rounds, drive.rounds);
    report.Set("shard.exec_max_us", NsToUs(exec_max_ns) / rounds,
               drive.rounds);
    report.Set("shard.exec_calls", static_cast<double>(exec_calls) / rounds,
               drive.rounds);
    report.Set("shard.exec_failures", static_cast<double>(exec_failures),
               exec_calls);
    report.Set("service.route_us", stage_us(0), drive.rounds);
    report.Set("service.merge_us", stage_us(2), drive.rounds);
    report.Set("service.apply_us", stage_us(3), drive.rounds);
    report.Set("service.client_plane_us", interval_us - stages_us,
               drive.rounds);
    report.Set("net.upload_bytes",
               static_cast<double>(stats.upload_bytes - warm_bytes) / rounds,
               drive.rounds);
    report.Set("service.rejected_uploads",
               static_cast<double>(stats.rejected_uploads), 1);
    report.Set("service.shed_frames", static_cast<double>(stats.shed_frames),
               1);
    report.Set("process.allocs_per_round",
               static_cast<double>(window_allocs) / rounds, drive.rounds);
    const double unattributed =
        (interval_us - stages_us - busy_us) / interval_us;
    PrintReconciliation(unattributed);
    report.Set("process.unattributed_share", unattributed, drive.rounds);
    report.Set("upload_ack_p50_ms", drive.ack_ms.Median(),
               drive.ack_ms.size());
    report.Set("upload_ack_p99_ms", drive.ack_ms.Percentile(99.0),
               drive.ack_ms.size());
    report.Set("upload_fail_ratio", fail_ratio, drive.attempted);

    std::string ring;
    fedrec::obs::TraceRing::Global().RenderJson(ring);
    const std::string prefix = "{\"traceEvents\":[";
    std::string events =
        ring.size() > prefix.size() + 2
            ? ring.substr(prefix.size(), ring.size() - prefix.size() - 2)
            : std::string();
    topology.reset();

    // Untraced replay on a fresh set-up (raw transport, ring off) prices
    // the tracing: same rounds, same uploads.
    std::unique_ptr<Topology> ref = set_up(false);
    Drive untraced;
    ref->Run(kOverheadRounds, 0, untraced);
    report.Check(untraced.failed == 0, "untraced replay failed");
    report.Set("trace.overhead_share",
               static_cast<double>(drive.first_rounds_ns) /
                       static_cast<double>(untraced.first_rounds_ns) -
                   1.0,
               kOverheadRounds);
    if (!options.trace_out.empty()) {
      report.Check(log->WriteChromeTrace(options.trace_out, events),
                   "cannot write " + options.trace_out);
      std::printf("chrome trace: %s\n", options.trace_out.c_str());
    }
  }
  return report.Emit();
}

}  // namespace perfbench
