/// Socket federation: the multi-process deployment of the sharded server.
///
/// Demonstrates the process model behind fedrec_shardd + SocketShardTransport:
///
///   clients (simulated)          coordinator                 shard servers
///   ───────────────────   ────────────────────────   ─────────────────────────
///   Select/LocalTrain  →  Route (FRWU per shard)  →  TCP: frame + round header
///   Attack uploads     →  writev fan-out          →  epoll shardd, in-place
///                         ← FRWD delta frames     ←  decode/aggregate/encode
///                         Merge → Apply
///
/// Three shard daemons run here as threads (the fedrec_shardd binary serves
/// the identical loop as a standalone process); the round loop runs once over
/// the in-process transport and once over TCP, and the two
/// model trajectories are checked bit-identical. Mid-run, one daemon is
/// killed — its rounds degrade through the outage/retry/fallback ledger and
/// stay bit-identical — and then restarted on the same port, rejoining via
/// the hello handshake.
///
///   ./socket_federation [--users=120] [--epochs=4] [--shards=3]

#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "data/synthetic.h"
#include "fed/simulation.h"
#include "shard/shard_daemon.h"
#include "shard/sharded_round_engine.h"
#include "shard/socket_transport.h"

using namespace fedrec;

namespace {

/// One epoch through a sharded engine; returns the summed benign loss.
double RunEpoch(ShardedRoundEngine& engine, std::size_t epoch) {
  engine.BeginEpoch(epoch);
  double loss = 0.0;
  while (engine.HasNextRound()) loss += engine.RunRound();
  return loss;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  flags.Parse(argc, argv).CheckOK();

  SyntheticConfig data_config;
  data_config.name = "socket-federation";
  data_config.num_users = static_cast<std::size_t>(flags.GetInt("users", 120));
  data_config.num_items = data_config.num_users * 3 / 2;
  data_config.mean_interactions_per_user = 14.0;
  data_config.seed = 7;
  const Dataset data = GenerateSynthetic(data_config);

  FedConfig config;
  config.model.dim = 16;
  config.model.learning_rate = 0.03f;
  config.clients_per_round = 24;
  config.epochs = static_cast<std::size_t>(flags.GetInt("epochs", 4));
  config.seed = 11;

  const auto num_shards =
      static_cast<std::size_t>(flags.GetInt("shards", 3));
  const ShardPlan plan(data.num_items(), num_shards,
                       ShardPolicy::kContiguousRange);
  std::printf("dataset: %zu users, %zu items; %zu shards, %zu epochs\n",
              data.num_users(), data.num_items(), num_shards, config.epochs);

  // Reference: the in-process deployment.
  Simulation reference(data, config, 0, nullptr, nullptr);
  ShardedRoundEngine inproc(&reference.engine(), &reference.model(), &config,
                            plan, nullptr);
  std::vector<double> inproc_losses;
  for (std::size_t e = 0; e < config.epochs; ++e) {
    inproc_losses.push_back(RunEpoch(inproc, e));
  }

  // Socket deployment: one daemon thread per shard (fedrec_shardd runs the
  // identical serving loop as a standalone process).
  std::vector<std::unique_ptr<ShardDaemon>> daemons;
  std::vector<std::thread> daemon_threads;
  SocketShardTransport::Options transport_options;
  for (std::size_t s = 0; s < num_shards; ++s) {
    ShardDaemon::Options options;
    options.shard_index = s;
    daemons.push_back(std::make_unique<ShardDaemon>(options));
    daemons.back()->Listen().CheckOK();
    ShardEndpoint endpoint;
    endpoint.port = daemons.back()->port();
    transport_options.endpoints.push_back(endpoint);
    std::printf("shardd %zu listening on port %u\n", s,
                static_cast<unsigned>(endpoint.port));
  }
  for (auto& daemon : daemons) {
    daemon_threads.emplace_back([&daemon] { daemon->Run(); });
  }

  SocketShardTransport transport(plan, config.model.dim, transport_options);
  Simulation socket_sim(data, config, 0, nullptr, nullptr);
  ShardedRoundEngine sharded(&socket_sim.engine(), &socket_sim.model(),
                             &config, &transport, nullptr);

  const std::size_t kill_shard = num_shards - 1;
  std::vector<double> socket_losses;
  for (std::size_t e = 0; e < config.epochs; ++e) {
    if (e == 1) {
      // Kill one shardd mid-run: its deliveries become connection-refused
      // outages and the coordinator aggregates that shard's rows locally
      // after the retry budget — the trajectory must not change.
      daemons[kill_shard]->RequestStop();
      daemon_threads[kill_shard].join();
      const std::uint16_t port = transport_options.endpoints[kill_shard].port;
      daemons[kill_shard].reset();
      std::printf("epoch 1: killed shardd %zu (port %u)\n", kill_shard,
                  static_cast<unsigned>(port));
    }
    if (e == 2) {
      // Restart it on the same port: the next delivery reconnects, the hello
      // handshake re-validates the run, and the shard serves again.
      ShardDaemon::Options options;
      options.shard_index = kill_shard;
      options.port = transport_options.endpoints[kill_shard].port;
      daemons[kill_shard] = std::make_unique<ShardDaemon>(options);
      daemons[kill_shard]->Listen().CheckOK();
      daemon_threads[kill_shard] = std::thread(
          [&daemons, kill_shard] { daemons[kill_shard]->Run(); });
      std::printf("epoch 2: restarted shardd %zu (rejoins via hello)\n",
                  kill_shard);
    }
    socket_losses.push_back(RunEpoch(sharded, e));
  }

  std::printf("\n%-8s %16s %16s\n", "epoch", "in-process", "socket");
  for (std::size_t e = 0; e < config.epochs; ++e) {
    std::printf("%-8zu %16.8f %16.8f\n", e, inproc_losses[e],
                socket_losses[e]);
    FEDREC_CHECK(inproc_losses[e] == socket_losses[e])
        << "trajectories diverged at epoch " << e;
  }
  FEDREC_CHECK(reference.model().item_factors() ==
               socket_sim.model().item_factors())
      << "final models diverged";

  const FaultStats& wire = sharded.wire_fault_stats();
  std::printf(
      "\nbit-identical over TCP; outage ledger: %llu outages, %llu retries, "
      "%llu fallback shards\n",
      static_cast<unsigned long long>(wire.shard_outages),
      static_cast<unsigned long long>(wire.shard_retries),
      static_cast<unsigned long long>(wire.fallback_shards));

  for (auto& daemon : daemons) {
    if (daemon != nullptr) daemon->RequestStop();
  }
  for (std::thread& thread : daemon_threads) {
    if (thread.joinable()) thread.join();
  }
  return 0;
}
