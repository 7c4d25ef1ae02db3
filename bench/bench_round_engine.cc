/// Round-engine throughput, two sections sharing one table:
///
/// 1. Server step: the cost of one round's Aggregate+Apply under the
///    historical dense path (materialize a num_items x dim gradient, apply
///    it densely) vs. the touched-row sparse path the round engine runs.
///    The gap is the point of the sparse server: per-round work scales with
///    what the clients uploaded, not with the catalogue.
///
/// 2. End to end: full rounds (Select + LocalTrain + Aggregate + Apply)
///    through Simulation in the sparse-participation uniform-per-round
///    regime, comparing the serial engine (no pool) with pool-parallel
///    LocalTrain + sharded aggregation. Steady-state sparse-container
///    allocations per round of the pooled path are reported via the counting
///    hook in SparseRowMatrix/SparseRoundDelta (zero = the allocation-free
///    claim).
///
///   ./bench_round_engine [--quick] [--clients=32] [--rows=60]
///                        [--e2e-clients=4] [--e2e-users=300]
///                        [--e2e-rounds=50] [--csv=path]

#include <algorithm>
#include <cstdio>

#include "bench_common.h"
#include "common/kernels.h"
#include "common/math.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "data/synthetic.h"
#include "fed/round_engine.h"
#include "model/bpr.h"

namespace fedrec {
namespace {

std::vector<ClientUpdate> MakeUpdates(std::size_t clients, std::size_t rows,
                                      std::size_t num_items, std::size_t dim,
                                      Rng& rng) {
  std::vector<ClientUpdate> updates;
  updates.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    ClientUpdate update;
    update.user = static_cast<std::uint32_t>(c);
    update.item_gradients = SparseRowMatrix(dim);
    for (std::size_t r = 0; r < rows; ++r) {
      auto row = update.item_gradients.RowMutable(rng.NextBounded(num_items));
      for (auto& v : row) v = static_cast<float>(rng.NextGaussian(0.0, 0.05));
    }
    updates.push_back(std::move(update));
  }
  return updates;
}

/// Runs `step` repeatedly for at least `min_seconds`; returns rounds/sec.
template <typename Step>
double MeasureRoundsPerSec(Step&& step, double min_seconds) {
  step();  // warm-up (first dense pass pays the page faults)
  Stopwatch timer;
  std::size_t iterations = 0;
  do {
    step();
    ++iterations;
  } while (timer.ElapsedSeconds() < min_seconds);
  return static_cast<double>(iterations) / timer.ElapsedSeconds();
}

struct EndToEndResult {
  double rounds_per_sec = 0.0;
  double allocs_per_round = 0.0;   ///< sparse-container growths (hook)
};

// ---------------------------------------------------------------------------
// PR 3-equivalent baseline: the round loop as it stood before the
// allocation-free client path. Reproduced here from public APIs so the bench
// can keep measuring what this PR replaced: fresh upload buffers for every
// client every round (the returning ComputeLocalBprGradients, as the old
// Client::TrainRound used), per-epoch negative resampling through an
// O(catalogue) rejection bitmap, serial aggregation.
// ---------------------------------------------------------------------------

struct LegacyClient {
  std::vector<std::uint32_t> positives;  // sorted
  std::vector<std::uint32_t> negatives;
  std::vector<float> user_vector;
  Rng rng;
};

/// The pre-PR sparse-regime sampler: rejection sampling with a taken-bitmap
/// sized to the whole catalogue (allocated and zeroed per client per epoch).
std::vector<std::uint32_t> LegacySampleNegatives(
    const std::vector<std::uint32_t>& positives, std::size_t num_items,
    std::size_t count, Rng& rng) {
  const std::size_t complement =
      num_items > positives.size() ? num_items - positives.size() : 0;
  const std::size_t want = std::min(count, complement);
  std::vector<std::uint32_t> negatives;
  negatives.reserve(want);
  std::vector<bool> taken(num_items, false);
  while (negatives.size() < want) {
    const auto item = static_cast<std::uint32_t>(rng.NextBounded(num_items));
    if (taken[item]) continue;
    if (std::binary_search(positives.begin(), positives.end(), item)) continue;
    taken[item] = true;
    negatives.push_back(item);
  }
  return negatives;
}

/// The PR 3 gradient pass verbatim: fresh SparseRowMatrix and gradient
/// vector per call, plain dependent loads (no row prefetching).
LocalBprGradients LegacyComputeGradients(
    std::span<const float> user_vector, const Matrix& item_factors,
    const std::vector<std::uint32_t>& positives,
    const std::vector<std::uint32_t>& negatives) {
  LocalBprGradients out;
  out.item_gradients = SparseRowMatrix(item_factors.cols());
  out.user_gradient.assign(user_vector.size(), 0.0f);
  const std::size_t pairs = std::min(positives.size(), negatives.size());
  for (std::size_t p = 0; p < pairs; ++p) {
    const auto v_pos = item_factors.Row(positives[p]);
    const auto v_neg = item_factors.Row(negatives[p]);
    const double x = static_cast<double>(Dot(user_vector, v_pos)) -
                     static_cast<double>(Dot(user_vector, v_neg));
    const BprPairResult pair = BprPairLossAndCoefficient(x);
    out.loss += pair.loss;
    const float c = static_cast<float>(pair.coefficient);
    std::span<float> grad_u(out.user_gradient);
    Axpy(c, v_pos, grad_u);
    Axpy(-c, v_neg, grad_u);
    Axpy(c, user_vector, out.item_gradients.RowMutable(positives[p]));
    Axpy(-c, user_vector, out.item_gradients.RowMutable(negatives[p]));
    ++out.pair_count;
  }
  return out;
}

/// One legacy local training step: fresh gradient buffers, exactly the old
/// TrainRound sequence (compute, clip, local u update, move into the upload).
ClientUpdate LegacyTrainRound(LegacyClient& client, const Matrix& item_factors,
                              const FedConfig& config) {
  std::vector<std::uint32_t> paired_positives = client.positives;
  LocalBprGradients grads = LegacyComputeGradients(
      client.user_vector, item_factors, paired_positives, client.negatives);
  grads.item_gradients.ClipRows(config.clip_norm);
  for (std::size_t d = 0; d < client.user_vector.size(); ++d) {
    client.user_vector[d] -= config.model.learning_rate * grads.user_gradient[d];
  }
  ClientUpdate update;
  update.user = 0;
  update.item_gradients = std::move(grads.item_gradients);
  update.loss = grads.loss;
  update.pair_count = grads.pair_count;
  return update;
}

/// PR 3's sum aggregation verbatim: stable_sort the flat row index (temp
/// buffer per call), then accumulate each group's contributors onto a
/// zero-filled appended delta row.
void LegacyAggregate(const std::vector<ClientUpdate>& updates, std::size_t dim,
                     AggregationWorkspace& workspace, SparseRoundDelta& out) {
  out.Reset(dim);
  if (updates.empty()) return;
  std::vector<RowContribution>& entries = workspace.row_index;
  entries.clear();
  std::size_t total_rows = 0;
  for (const ClientUpdate& update : updates) {
    total_rows += update.item_gradients.row_count();
  }
  entries.reserve(total_rows);
  for (const ClientUpdate& update : updates) {
    const auto& rows = update.item_gradients.row_ids();
    for (std::size_t slot = 0; slot < rows.size(); ++slot) {
      entries.push_back({rows[slot], update.item_gradients.RowAtSlot(slot).data()});
    }
  }
  std::stable_sort(entries.begin(), entries.end(),
                   [](const RowContribution& a, const RowContribution& b) {
                     return a.row < b.row;
                   });
  for (std::size_t group_begin = 0; group_begin < entries.size();) {
    const std::size_t row = entries[group_begin].row;
    std::size_t group_end = group_begin;
    while (group_end < entries.size() && entries[group_end].row == row) {
      ++group_end;
    }
    auto acc = out.AppendRow(row);
    for (std::size_t i = group_begin; i < group_end; ++i) {
      kernels::Axpy(1.0f, entries[i].data, acc.data(), dim);
    }
    group_begin = group_end;
  }
}

/// The PR 3 round loop as a window-capable path, symmetric with EnginePath.
class LegacyPath {
 public:
  LegacyPath(const Dataset& data, const FedConfig& config)
      : data_(data), config_(config), rng_(config.seed) {
    MfHyperParams params = config.model;
    Rng model_rng = rng_;
    model_ = MfModel(data.num_items(), params, model_rng);
    clients_.reserve(data.num_users());
    for (std::uint32_t u = 0; u < data.num_users(); ++u) {
      LegacyClient client{data.UserItems(u), {}, {}, rng_.Fork(u)};
      std::sort(client.positives.begin(), client.positives.end());
      client.user_vector = InitUserVector(config.model, client.rng);
      clients_.push_back(std::move(client));
    }
    order_.resize(clients_.size());
    for (std::size_t i = 0; i < order_.size(); ++i) {
      order_[i] = static_cast<std::uint32_t>(i);
    }
    rounds_per_epoch_ =
        config.rounds_per_epoch > 0
            ? config.rounds_per_epoch
            : (clients_.size() + config.clients_per_round - 1) /
                  config.clients_per_round;
    for (int warm = 0; warm < 3; ++warm) RunEpoch();
  }

  void RunWindow(double min_seconds) {
    Stopwatch timer;
    std::size_t rounds = 0;
    do {
      RunEpoch();
      rounds += rounds_per_epoch_;
    } while (timer.ElapsedSeconds() < min_seconds);
    window_rps_.push_back(static_cast<double>(rounds) /
                          timer.ElapsedSeconds());
  }

  double RoundsPerSec() const {
    std::vector<double> sorted = window_rps_;
    std::sort(sorted.begin(), sorted.end());
    return sorted[sorted.size() / 2];
  }

 private:
  void RunEpoch() {
    for (LegacyClient& client : clients_) {
      client.negatives = LegacySampleNegatives(
          client.positives, data_.num_items(), client.positives.size(),
          client.rng);
      client.rng.Shuffle(client.negatives);
    }
    for (std::size_t round = 0; round < rounds_per_epoch_; ++round) {
      const std::size_t k = std::min<std::size_t>(config_.clients_per_round,
                                                  clients_.size());
      // Per-round allocated upload vector, as the old engine's LocalTrain
      // effectively produced (move-assigning fresh updates into slots).
      std::vector<ClientUpdate> updates(k);
      for (std::size_t i = 0; i < k; ++i) {
        const std::size_t j =
            i + static_cast<std::size_t>(rng_.NextBounded(order_.size() - i));
        std::swap(order_[i], order_[j]);
        updates[i] = LegacyTrainRound(clients_[order_[i]],
                                      model_.item_factors(), config_);
      }
      LegacyAggregate(updates, model_.dim(), workspace_, delta_);
      model_.ApplySparseGradient(delta_, config_.model.learning_rate);
    }
  }

  const Dataset& data_;
  FedConfig config_;
  Rng rng_;
  MfModel model_;
  std::vector<LegacyClient> clients_;
  std::vector<std::uint32_t> order_;
  AggregationWorkspace workspace_;
  SparseRoundDelta delta_;
  std::size_t rounds_per_epoch_ = 0;
  std::vector<double> window_rps_;
};

/// One engine-backed measurement path: a warmed Simulation that can run
/// timed windows on demand. Paths are measured in interleaved windows (see
/// the e2e section) so machine-load swings hit every path alike; the median
/// window is each path's rounds/s figure.
class EnginePath {
 public:
  EnginePath(const Dataset& data, const FedConfig& config, ThreadPool* pool)
      : sim_(data, config, 0, nullptr, pool) {
    for (int warm = 0; warm < 3; ++warm) sim_.RunEpoch();
  }

  void RunWindow(double min_seconds) {
    const std::size_t rounds_before = sim_.global_round();
    Stopwatch timer;
    do {
      sim_.RunEpoch();
    } while (timer.ElapsedSeconds() < min_seconds);
    window_rps_.push_back(
        static_cast<double>(sim_.global_round() - rounds_before) /
        timer.ElapsedSeconds());
  }

  /// Steady-state sparse-container allocations per round, from a dedicated
  /// timed pass (the counter is process-wide, so each path measures alone).
  double MeasureAllocsPerRound(double min_seconds) {
    ResetSparseAllocationCount();
    const std::size_t rounds_before = sim_.global_round();
    Stopwatch timer;
    do {
      sim_.RunEpoch();
    } while (timer.ElapsedSeconds() < min_seconds);
    return static_cast<double>(SparseAllocationCount()) /
           static_cast<double>(sim_.global_round() - rounds_before);
  }

  EndToEndResult Result() const {
    std::vector<double> sorted = window_rps_;
    std::sort(sorted.begin(), sorted.end());
    EndToEndResult result;
    result.rounds_per_sec = sorted[sorted.size() / 2];
    return result;
  }

 private:
  Simulation sim_;
  std::vector<double> window_rps_;
};

int Main(int argc, const char* const* argv) {
  FlagParser flags;
  flags.Parse(argc, argv).CheckOK();
  BenchOptions options = ParseBenchOptions(flags);
  const bool quick = flags.GetBool("quick", false);
  const double min_seconds = quick ? 0.10 : 0.40;
  const std::size_t clients =
      static_cast<std::size_t>(flags.GetInt("clients", 32));
  const std::size_t rows = static_cast<std::size_t>(flags.GetInt("rows", 60));
  const std::size_t dim = 32;
  const float lr = 0.01f;

  const std::vector<std::size_t> item_scales = {1682, 16820, 67280};
  const std::vector<std::pair<AggregatorKind, const char*>> rules = {
      {AggregatorKind::kSum, "sum"},
      {AggregatorKind::kTrimmedMean, "trimmed-mean"},
      {AggregatorKind::kMedian, "median"},
      {AggregatorKind::kNormBound, "norm-bound"},
      {AggregatorKind::kKrum, "krum"},
  };

  TextTable table(
      "Round engine: server-side rounds/s, dense gradient vs touched-row "
      "sparse delta (" + std::to_string(clients) +
      " clients x " + std::to_string(rows) + " rows, dim=32)");
  std::vector<std::string> header{"Aggregator / path"};
  for (std::size_t num_items : item_scales) {
    header.push_back("items=" + std::to_string(num_items));
  }
  table.SetHeader(header);

  for (const auto& [kind, name] : rules) {
    AggregatorOptions agg;
    agg.kind = kind;
    std::vector<std::string> dense_row{std::string(name) + " dense r/s"};
    std::vector<std::string> sparse_row{std::string(name) + " sparse r/s"};
    std::vector<std::string> speedup_row{std::string(name) + " speedup"};
    for (std::size_t num_items : item_scales) {
      Rng rng(42);
      const auto updates = MakeUpdates(clients, rows, num_items, dim, rng);
      Matrix dense_items(num_items, dim);
      dense_items.FillGaussian(rng, 0.0f, 0.1f);
      Matrix sparse_items = dense_items;

      const double dense_rps = MeasureRoundsPerSec(
          [&] {
            const Matrix gradient =
                AggregateUpdates(updates, num_items, dim, agg);
            dense_items.Add(gradient, -lr);
          },
          min_seconds);

      AggregationWorkspace workspace;
      SparseRoundDelta delta;
      const double sparse_rps = MeasureRoundsPerSec(
          [&] {
            AggregateUpdates(updates, dim, agg, workspace, delta);
            delta.AddTo(sparse_items, -lr);
          },
          min_seconds);

      dense_row.push_back(FormatDouble(dense_rps, 1));
      sparse_row.push_back(FormatDouble(sparse_rps, 1));
      speedup_row.push_back(FormatDouble(sparse_rps / dense_rps, 2) + "x");
    }
    table.AddRow(dense_row);
    table.AddRow(sparse_row);
    table.AddRow(speedup_row);
  }

  // -- End-to-end rounds/s: serial vs parallel-agg ---------------------------
  // Sparse cross-device participation (4 of 300 users per round ~ 1.3%):
  // the regime the motivating long-horizon attacks assume, and the one
  // where per-round constant costs dominate wall time.
  const std::size_t e2e_clients =
      static_cast<std::size_t>(flags.GetInt("e2e-clients", 4));
  const std::size_t e2e_users =
      static_cast<std::size_t>(flags.GetInt("e2e-users", 300));
  const std::size_t e2e_rounds =
      static_cast<std::size_t>(flags.GetInt("e2e-rounds", 50));
  // The e2e rows feed the committed BENCH json; keep their windows long
  // enough to be trustworthy even under --quick (5 interleaved windows per
  // path, median taken).
  const double e2e_min_seconds = quick ? 0.3 : 0.4;
  auto pool = MakePool(options);

  std::vector<std::string> legacy_row{"e2e pr3-equivalent r/s"};
  std::vector<std::string> serial_row{"e2e serial r/s"};
  std::vector<std::string> parallel_row{"e2e parallel-agg r/s"};
  std::vector<std::string> e2e_speedup_row{"e2e speedup (best vs pr3)"};
  std::vector<std::string> allocs_row{"e2e allocs/round steady"};
  for (std::size_t num_items : item_scales) {
    // Sparse-participation regime (the paper's cross-device setting): tiny
    // uniform draws from a large, evenly-popular catalogue, where per-round
    // constant costs dominate wall time.
    SyntheticConfig data_config;
    data_config.num_users = e2e_users;
    data_config.num_items = num_items;
    data_config.mean_interactions_per_user = 8.0;
    data_config.popularity_exponent = 0.05;
    data_config.popularity_mix = 0.0;
    data_config.seed = options.seed;
    const Dataset data = GenerateSynthetic(data_config);

    FedConfig config;
    config.model.dim = dim;
    config.model.learning_rate = lr;
    config.clients_per_round = e2e_clients;
    config.participation = ParticipationMode::kUniformPerRound;
    config.rounds_per_epoch = e2e_rounds;
    config.seed = options.seed;

    // Warm all three paths, then measure them in interleaved windows: on a
    // shared machine, load swings over seconds would otherwise skew whole
    // paths measured back to back; interleaving gives every path the same
    // mix of conditions and the median window drops the outliers.
    LegacyPath legacy(data, config);
    EnginePath serial_path(data, config, nullptr);
    EnginePath parallel_path(data, config, pool.get());
    for (int window = 0; window < 5; ++window) {
      legacy.RunWindow(e2e_min_seconds);
      serial_path.RunWindow(e2e_min_seconds);
      parallel_path.RunWindow(e2e_min_seconds);
    }

    const double legacy_rps = legacy.RoundsPerSec();
    const EndToEndResult serial = serial_path.Result();
    EndToEndResult parallel = parallel_path.Result();
    parallel.allocs_per_round =
        parallel_path.MeasureAllocsPerRound(e2e_min_seconds);
    const double best_rps =
        std::max(serial.rounds_per_sec, parallel.rounds_per_sec);

    legacy_row.push_back(FormatDouble(legacy_rps, 1));
    serial_row.push_back(FormatDouble(serial.rounds_per_sec, 1));
    parallel_row.push_back(FormatDouble(parallel.rounds_per_sec, 1));
    e2e_speedup_row.push_back(FormatDouble(best_rps / legacy_rps, 2) + "x");
    allocs_row.push_back(FormatDouble(parallel.allocs_per_round, 3));
  }
  table.AddRow(legacy_row);
  table.AddRow(serial_row);
  table.AddRow(parallel_row);
  table.AddRow(e2e_speedup_row);
  table.AddRow(allocs_row);

  EmitTable(table, options);
  std::puts(
      "(dense = materialize num_items x dim gradient + dense apply; sparse = "
      "touched rows only, reused workspace. e2e = full Select/LocalTrain/"
      "Aggregate/Apply rounds, uniform-per-round sampling: pr3-equivalent = "
      "fresh upload buffers per round + bitmap negative resampling (the "
      "pre-PR client path); serial = recycled buffers, no pool; parallel-agg "
      "= pool LocalTrain + sharded aggregation. allocs = sparse-container "
      "heap growths per steady-state parallel-agg round)");
  return 0;
}

}  // namespace
}  // namespace fedrec

int main(int argc, char** argv) { return fedrec::Main(argc, argv); }
