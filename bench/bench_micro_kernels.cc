/// Micro-benchmarks (google-benchmark) of the hot kernels behind the
/// simulation and the attack: BPR local step, full-catalog scoring, top-K
/// selection, poisoned-gradient computation, the aggregation rules, the
/// shard wire's CRC-32 and FRWU decode, and building a client upload.

#include <algorithm>
#include <span>
#include <vector>

#include <benchmark/benchmark.h>

#include "attack/fedrecattack.h"
#include "common/kernels.h"
#include "common/math.h"
#include "data/public_view.h"
#include "data/synthetic.h"
#include "fed/aggregator.h"
#include "fed/client.h"
#include "model/bpr.h"
#include "model/topk.h"
#include "shard/wire.h"

namespace fedrec {
namespace {

void BM_Dot(benchmark::State& state) {
  const std::size_t dim = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  std::vector<float> a(dim), b(dim);
  for (auto& v : a) v = rng.NextFloat();
  for (auto& v : b) v = rng.NextFloat();
  for (auto _ : state) {
    benchmark::DoNotOptimize(Dot(a, b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(dim));
}
BENCHMARK(BM_Dot)->Arg(32)->Arg(128);

void BM_DotScalar(benchmark::State& state) {
  const std::size_t dim = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  std::vector<float> a(dim), b(dim);
  for (auto& v : a) v = rng.NextFloat();
  for (auto& v : b) v = rng.NextFloat();
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernels::ScalarDot(a.data(), b.data(), dim));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(dim));
}
BENCHMARK(BM_DotScalar)->Arg(32)->Arg(128);

/// Baseline for the tentpole comparison: a block of users scored with one
/// scalar ascending-order dot per (user, item) pair — the shape of the loop
/// that used to live in the evaluator and the attack.
void BM_ScoreBlockScalarDot(benchmark::State& state) {
  const std::size_t items = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kUsers = 8;
  constexpr std::size_t kDim = 32;
  Rng rng(2);
  Matrix V(items, kDim);
  V.FillGaussian(rng, 0.0f, 0.1f);
  Matrix U(kUsers, kDim);
  U.FillGaussian(rng, 0.0f, 0.1f);
  std::vector<float> scores(kUsers * items);
  for (auto _ : state) {
    kernels::ScalarScoreBlock(U.Data().data(), kUsers, V.Data().data(), items,
                              kDim, scores.data(), items);
    benchmark::DoNotOptimize(scores.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(items * kUsers));
}
BENCHMARK(BM_ScoreBlockScalarDot)->Arg(1682)->Arg(3706);

/// The vectorized register-tiled batch-scoring kernel on the identical
/// workload. The acceptance bar for this PR is >= 3x over
/// BM_ScoreBlockScalarDot in items_per_second.
void BM_ScoreBlock(benchmark::State& state) {
  const std::size_t items = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kUsers = 8;
  constexpr std::size_t kDim = 32;
  Rng rng(2);
  Matrix V(items, kDim);
  V.FillGaussian(rng, 0.0f, 0.1f);
  Matrix U(kUsers, kDim);
  U.FillGaussian(rng, 0.0f, 0.1f);
  std::vector<float> scores(kUsers * items);
  for (auto _ : state) {
    kernels::ScoreBlock(U.Data().data(), kUsers, V.Data().data(), items, kDim,
                        scores.data(), items);
    benchmark::DoNotOptimize(scores.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(items * kUsers));
}
BENCHMARK(BM_ScoreBlock)->Arg(1682)->Arg(3706);

/// The packed-panel scoring kernel (the evaluator/attack production path):
/// items are packed once per round, then every user block is pure vertical
/// SIMD over contiguous micro-panels. The pack itself is excluded — it is
/// amortized over num_users / 8 block calls per evaluation pass.
void BM_ScoreBlockPacked(benchmark::State& state) {
  const std::size_t items = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kUsers = 8;
  constexpr std::size_t kDim = 32;
  Rng rng(2);
  Matrix V(items, kDim);
  V.FillGaussian(rng, 0.0f, 0.1f);
  Matrix U(kUsers, kDim);
  U.FillGaussian(rng, 0.0f, 0.1f);
  std::vector<float> packed(kernels::PackedItemsSize(items, kDim));
  kernels::PackItems(V.Data().data(), items, kDim, packed.data());
  std::vector<float> scores(kUsers * items);
  for (auto _ : state) {
    kernels::ScoreBlockPacked(U.Data().data(), kUsers, packed.data(), items,
                              kDim, scores.data(), items);
    benchmark::DoNotOptimize(scores.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(items * kUsers));
}
BENCHMARK(BM_ScoreBlockPacked)->Arg(1682)->Arg(3706);

void BM_ScoreAllItems(benchmark::State& state) {
  const std::size_t items = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  Matrix V(items, 32);
  V.FillGaussian(rng, 0.0f, 0.1f);
  std::vector<float> user(32), scores(items);
  for (auto& v : user) v = rng.NextFloat();
  for (auto _ : state) {
    for (std::size_t j = 0; j < items; ++j) scores[j] = Dot(user, V.Row(j));
    benchmark::DoNotOptimize(scores.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(items));
}
BENCHMARK(BM_ScoreAllItems)->Arg(1682)->Arg(3706);

/// The evaluator's and the attack's selection: sorted exclusion list (a
/// user's ~100 interacted items) and a reused output buffer. Each iteration
/// takes the next of many distinct score rows (256 at 1682 items, about 4 MB
/// of rows at 67280), as the evaluator does user after user; one repeated
/// row lets the branch predictor learn its comparisons.
void BM_TopKExcludingSorted(benchmark::State& state) {
  const std::size_t items = static_cast<std::size_t>(state.range(0));
  const std::size_t k = static_cast<std::size_t>(state.range(1));
  const std::size_t excluded_count = static_cast<std::size_t>(state.range(2));
  const std::size_t score_rows =
      std::clamp<std::size_t>((std::size_t{1} << 20) / items, 4, 256);
  Rng rng(3);
  std::vector<float> scores(score_rows * items);
  for (auto& s : scores) s = rng.NextFloat();
  std::vector<std::uint32_t> excluded;
  for (std::size_t idx : rng.SampleWithoutReplacement(items, excluded_count)) {
    excluded.push_back(static_cast<std::uint32_t>(idx));
  }
  std::sort(excluded.begin(), excluded.end());
  std::vector<std::uint32_t> out;
  std::size_t row = 0;
  for (auto _ : state) {
    TopKIndicesExcludingSortedInto(
        std::span<const float>(scores.data() + row * items, items), k,
        excluded, out);
    benchmark::DoNotOptimize(out.data());
    row = row + 1 == score_rows ? 0 : row + 1;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(items));
}
BENCHMARK(BM_TopKExcludingSorted)
    ->Args({1682, 10, 100})
    ->Args({67280, 10, 100});

void BM_ClientTrainRound(benchmark::State& state) {
  const std::size_t interactions = static_cast<std::size_t>(state.range(0));
  Rng rng(4);
  FedConfig config;
  config.model.dim = 32;
  Matrix V(2000, 32);
  V.FillGaussian(rng, 0.0f, 0.1f);
  std::vector<std::uint32_t> positives;
  for (std::size_t i = 0; i < interactions; ++i) {
    positives.push_back(static_cast<std::uint32_t>(i * 7 % 2000));
  }
  std::sort(positives.begin(), positives.end());
  positives.erase(std::unique(positives.begin(), positives.end()),
                  positives.end());
  Client client(0, positives, config.model, Rng(5));
  client.ResampleNegatives(2000, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(client.TrainRound(V, config));
  }
}
BENCHMARK(BM_ClientTrainRound)->Arg(30)->Arg(106);

/// Builds one benign-sized upload of `rows` distinct 32-dim rows from ids
/// that change every iteration (64 sampled id sets over ml-100k's 1682
/// items, cycled): the id->slot inserts and lookups of a client round.
void BM_BuildClientUpload(benchmark::State& state) {
  const std::size_t rows = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kIdSets = 64;
  Rng rng(12);
  std::vector<std::vector<std::size_t>> id_sets(kIdSets);
  for (auto& ids : id_sets) ids = rng.SampleWithoutReplacement(1682, rows);
  std::vector<float> user(32, 0.25f);
  SparseRowMatrix upload(32);
  std::size_t set = 0;
  for (auto _ : state) {
    upload.Reset(32);
    for (const std::size_t id : id_sets[set]) {
      Axpy(0.5f, user, upload.RowMutable(id));
    }
    benchmark::DoNotOptimize(upload.RowAtSlot(0).data());
    benchmark::ClobberMemory();
    set = set + 1 == kIdSets ? 0 : set + 1;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows));
}
BENCHMARK(BM_BuildClientUpload)->Arg(213);

void BM_PoisonGradient(benchmark::State& state) {
  const std::size_t users = static_cast<std::size_t>(state.range(0));
  SyntheticConfig data_config;
  data_config.num_users = users;
  data_config.num_items = 1682;
  data_config.mean_interactions_per_user = 30.0;
  data_config.seed = 6;
  const Dataset data = GenerateSynthetic(data_config);
  Rng rng(7);
  const auto view = PublicInteractions::Sample(data, 0.01, rng,
                                               PublicSamplingMode::kCeil);
  FedRecAttackConfig config;
  config.target_items = {11};
  config.approx_epochs_first = 1;
  FedRecAttack attack(config, &view, users, 32);
  Matrix V(1682, 32);
  V.FillGaussian(rng, 0.0f, 0.1f);
  attack.ApproximateUsers(V, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(attack.ComputePoisonGradient(V, nullptr));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(users));
}
BENCHMARK(BM_PoisonGradient)->Arg(256)->Arg(943)->Unit(benchmark::kMillisecond);

/// 64 clients x 60 random rows of 1682 items, dim 32 — the shared round
/// shape for the dense and sparse aggregation benchmarks below (they must
/// measure the identical workload).
std::vector<ClientUpdate> MakeRoundUpdates() {
  Rng rng(8);
  std::vector<ClientUpdate> updates;
  for (std::uint32_t c = 0; c < 64; ++c) {
    ClientUpdate update;
    update.user = c;
    update.item_gradients = SparseRowMatrix(32);
    for (int r = 0; r < 60; ++r) {
      auto row = update.item_gradients.RowMutable(rng.NextBounded(1682));
      for (auto& v : row) v = static_cast<float>(rng.NextGaussian(0.0, 0.05));
    }
    updates.push_back(std::move(update));
  }
  return updates;
}

void BM_Aggregate(benchmark::State& state) {
  const auto kind = static_cast<AggregatorKind>(state.range(0));
  const std::vector<ClientUpdate> updates = MakeRoundUpdates();
  AggregatorOptions options;
  options.kind = kind;
  for (auto _ : state) {
    benchmark::DoNotOptimize(AggregateUpdates(updates, 1682, 32, options));
  }
}
BENCHMARK(BM_Aggregate)
    ->Arg(static_cast<int>(AggregatorKind::kSum))
    ->Arg(static_cast<int>(AggregatorKind::kTrimmedMean))
    ->Arg(static_cast<int>(AggregatorKind::kMedian))
    ->Arg(static_cast<int>(AggregatorKind::kKrum))
    ->Unit(benchmark::kMillisecond);

void BM_AggregateSparse(benchmark::State& state) {
  const auto kind = static_cast<AggregatorKind>(state.range(0));
  const std::vector<ClientUpdate> updates = MakeRoundUpdates();
  AggregatorOptions options;
  options.kind = kind;
  AggregationWorkspace workspace;
  SparseRoundDelta delta;
  for (auto _ : state) {
    AggregateUpdates(updates, 32, options, workspace, delta);
    benchmark::DoNotOptimize(delta.row_count());
  }
}
BENCHMARK(BM_AggregateSparse)
    ->Arg(static_cast<int>(AggregatorKind::kSum))
    ->Arg(static_cast<int>(AggregatorKind::kTrimmedMean))
    ->Arg(static_cast<int>(AggregatorKind::kMedian))
    ->Arg(static_cast<int>(AggregatorKind::kKrum))
    ->Unit(benchmark::kMillisecond);

/// A catalogue-shaped round: 64 clients x 60 rows of 67280 items, dim 32.
/// A head of 32 popular items has 3..64 contributors each (item h is
/// uploaded by clients 0 .. count_h - 1); every other row is drawn from the
/// long tail, so most row groups have one contributor. This is the shape
/// where the coordinate-wise rules spend their time on the popular rows.
std::vector<ClientUpdate> MakeSkewedRoundUpdates() {
  constexpr std::size_t kClients = 64, kRows = 60, kHead = 32;
  constexpr std::size_t kItems = 67280;
  Rng rng(12);
  std::vector<ClientUpdate> updates(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    updates[c].user = static_cast<std::uint32_t>(c);
    updates[c].item_gradients = SparseRowMatrix(32);
  }
  auto fill = [&rng](std::span<float> row) {
    for (auto& v : row) v = static_cast<float>(rng.NextGaussian(0.0, 0.05));
  };
  for (std::size_t h = 0; h < kHead; ++h) {
    const std::size_t count = 3 + h * (kClients - 3) / (kHead - 1);
    for (std::size_t c = 0; c < count; ++c) {
      fill(updates[c].item_gradients.RowMutable(h));
    }
  }
  for (ClientUpdate& update : updates) {
    while (update.item_gradients.row_count() < kRows) {
      fill(update.item_gradients.RowMutable(
          kHead + rng.NextBounded(kItems - kHead)));
    }
  }
  return updates;
}

void BM_AggregateSparseSkewed(benchmark::State& state) {
  const std::vector<ClientUpdate> updates = MakeSkewedRoundUpdates();
  AggregatorOptions options;
  options.kind = static_cast<AggregatorKind>(state.range(0));
  AggregationWorkspace workspace;
  SparseRoundDelta delta;
  for (auto _ : state) {
    AggregateUpdates(updates, 32, options, workspace, delta);
    benchmark::DoNotOptimize(delta.row_count());
  }
}
BENCHMARK(BM_AggregateSparseSkewed)
    ->Arg(static_cast<int>(AggregatorKind::kTrimmedMean))
    ->Arg(static_cast<int>(AggregatorKind::kMedian))
    ->Unit(benchmark::kMicrosecond);

void BM_WeightedSample(benchmark::State& state) {
  Rng rng(9);
  std::vector<double> weights(3706);
  for (auto& w : weights) w = rng.NextDouble();
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.WeightedSampleWithoutReplacement(weights, 60));
  }
}
BENCHMARK(BM_WeightedSample);

/// CRC-32 over one shard's slice of an upload (~7.5 KB) and over one full
/// 219-row x 32-dim upload (~30 KB).
void BM_Crc32(benchmark::State& state) {
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
  Rng rng(10);
  std::vector<unsigned char> buffer(bytes);
  for (auto& b : buffer) b = static_cast<unsigned char>(rng.Next());
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32(0, buffer.data(), buffer.size()));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_Crc32)->Arg(7500)->Arg(30000);

/// Decodes one FRWU upload of `rows` 32-dim rows (unsorted ids, as clients
/// send them) into a recycled matrix: checksum verify plus row load.
void BM_DecodeUpload(benchmark::State& state) {
  const std::size_t rows = static_cast<std::size_t>(state.range(0));
  Rng rng(11);
  SparseRowMatrix upload(32);
  for (std::size_t i = 0; i < rows; ++i) {
    for (float& v : upload.RowMutable(i * 7919 % 67280)) {
      v = static_cast<float>(rng.NextGaussian(0.0, 0.1));
    }
  }
  BinaryWriter writer;
  EncodeUpload(upload, /*source=*/1, writer);
  SparseRowMatrix decoded;
  for (auto _ : state) {
    BinaryReader reader = BinaryReader::View(writer.buffer());
    benchmark::DoNotOptimize(DecodeUpload(reader, decoded).ok());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(writer.buffer().size()));
}
BENCHMARK(BM_DecodeUpload)->Arg(219);

}  // namespace
}  // namespace fedrec

BENCHMARK_MAIN();
