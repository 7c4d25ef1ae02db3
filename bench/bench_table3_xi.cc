/// Reproduces Table III: impact of the proportion of public interactions (xi)
/// on FedRecAttack effectiveness. MovieLens-100K, rho = 5%, kappa = 60.
/// Expected shape: already highly effective at xi = 1%, saturating fast.

#include "bench_common.h"

namespace fedrec {
namespace {

int Main(int argc, const char* const* argv) {
  FlagParser flags;
  flags.Parse(argc, argv).CheckOK();
  BenchOptions options = ParseBenchOptions(flags);
  auto pool = MakePool(options);

  const std::vector<double> xis =
      flags.GetDoubleList("xi", {0.01, 0.02, 0.03, 0.05, 0.10});

  TextTable table(
      "Table III: impact of xi on FedRecAttack (ml-100k, rho=5%, kappa=60)");
  table.SetHeader({"Metric", "xi=1%", "xi=2%", "xi=3%", "xi=5%", "xi=10%"});

  std::vector<ExperimentResult> results;
  for (double xi : xis) {
    ExperimentSpec spec;
    spec.dataset = "ml-100k";
    spec.attack = "fedrecattack";
    spec.xi = xi;
    spec.rho = 0.05;
    ApplyScale(options, spec);
    results.push_back(RunExperiment(spec, pool.get()));
  }

  std::vector<std::string> er5{"ER@5"}, er10{"ER@10"}, ndcg{"NDCG@10"};
  for (const ExperimentResult& r : results) {
    er5.push_back(Fmt4(r.final_metrics.er_at[0]));
    er10.push_back(Fmt4(r.final_metrics.er_at[1]));
    ndcg.push_back(Fmt4(r.final_metrics.ndcg));
  }
  table.AddRow(er5);
  table.AddRow(er10);
  table.AddRow(ndcg);
  AddThroughputRow(table, results);
  EmitTable(table, options);
  std::puts("(paper ER@5 row: 0.9400 0.9818 0.9882 0.9936 0.9914)");
  // Full-digit rows for the table3_golden gate (a 4-decimal cell hides any
  // drift below 5e-5).
  for (std::size_t i = 0; i < results.size(); ++i) {
    const MetricsResult& m = results[i].final_metrics;
    std::printf("table3 xi=%.4f ER@5=%.10f ER@10=%.10f NDCG@10=%.10f\n",
                xis[i], m.er_at[0], m.er_at[1], m.ndcg);
  }
  return 0;
}

}  // namespace
}  // namespace fedrec

int main(int argc, char** argv) { return fedrec::Main(argc, argv); }
