// Experiment E8: reliability evaluation -- the role the paper assigns to
// Fault Tree Plus ("import those fault trees in Fault Tree Plus for
// further analysis and reliability evaluation"). Compares the evaluation
// methods (rare-event, Esary-Proschan, truncated inclusion-exclusion,
// exact BDD) on the demonstrator's trees, and produces the
// unavailability-vs-mission-time series.

#include <benchmark/benchmark.h>

#include "analysis/importance.h"
#include "analysis/probability.h"
#include "casestudy/setta.h"
#include "casestudy/synthetic.h"
#include "fta/synthesis.h"

namespace {

using namespace ftsynth;

struct Fixture {
  Model model = setta::build_bbw();
  FaultTree tree = Synthesiser(model).synthesise("Omission-brake_force_fl");
  CutSetAnalysis cut_sets = minimal_cut_sets(tree);
};

Fixture& fixture() {
  static Fixture instance;
  return instance;
}

void BM_RareEventBound(benchmark::State& state) {
  ProbabilityOptions options;
  options.mission_time_hours = 1000.0;
  double p = 0.0;
  for (auto _ : state) p = rare_event_bound(fixture().cut_sets, options);
  state.counters["p"] = p;
}
BENCHMARK(BM_RareEventBound);

void BM_EsaryProschanBound(benchmark::State& state) {
  ProbabilityOptions options;
  options.mission_time_hours = 1000.0;
  double p = 0.0;
  for (auto _ : state) p = esary_proschan_bound(fixture().cut_sets, options);
  state.counters["p"] = p;
}
BENCHMARK(BM_EsaryProschanBound);

void BM_InclusionExclusion(benchmark::State& state) {
  ProbabilityOptions options;
  options.mission_time_hours = 1000.0;
  double p = 0.0;
  for (auto _ : state) {
    p = inclusion_exclusion(fixture().cut_sets, options,
                            static_cast<std::size_t>(state.range(0)));
  }
  state.counters["p"] = p;
  state.counters["terms"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_InclusionExclusion)->DenseRange(1, 4, 1);

void BM_ExactBdd(benchmark::State& state) {
  ProbabilityOptions options;
  options.mission_time_hours = 1000.0;
  double p = 0.0;
  for (auto _ : state) p = exact_probability(fixture().tree, options);
  state.counters["p"] = p;
}
BENCHMARK(BM_ExactBdd);

// Unavailability vs mission time: the classic reliability figure. One row
// per decade of mission time; p_* counters are the series.
void BM_UnavailabilityVsMissionTime(benchmark::State& state) {
  ProbabilityOptions options;
  options.mission_time_hours = static_cast<double>(state.range(0));
  double exact = 0.0;
  double rare = 0.0;
  for (auto _ : state) {
    exact = exact_probability(fixture().tree, options);
    rare = rare_event_bound(fixture().cut_sets, options);
  }
  state.counters["t_hours"] = options.mission_time_hours;
  state.counters["p_exact"] = exact;
  state.counters["p_rare_event"] = rare;
  state.SetLabel("Omission-brake_force_fl");
}
BENCHMARK(BM_UnavailabilityVsMissionTime)
    ->Arg(1)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

void BM_ImportanceRankingBbw(benchmark::State& state) {
  ProbabilityOptions options;
  options.mission_time_hours = 1000.0;
  std::size_t entries = 0;
  for (auto _ : state) {
    std::vector<ImportanceEntry> ranking =
        importance_ranking(fixture().tree, fixture().cut_sets, options);
    entries = ranking.size();
    benchmark::DoNotOptimize(ranking.data());
  }
  state.counters["events"] = static_cast<double>(entries);
}
BENCHMARK(BM_ImportanceRankingBbw);

// The analysis tail on the inputs where it dominates (the lanes of the
// perfbench `lanes_cutsets` workload). adv14: the 14-pair adversarial
// product, whose whole-tree BDD has 32,766 nodes, so RAW/RRW's 56
// conditional evaluations are the cost. c4s19: 4 replicated lanes of 19
// stages, 130,325 minimal cut sets, so putting the family in canonical
// order and pricing it are the cost.
struct LaneFixture {
  explicit LaneFixture(const Model& model)
      : tree(Synthesiser(model).synthesise("Omission-sink")) {}
  FaultTree tree;
};

const LaneFixture& adversarial_fixture() {
  static const LaneFixture instance(synthetic::build_adversarial_product(14));
  return instance;
}

const LaneFixture& replicated_fixture() {
  static const LaneFixture instance([] {
    synthetic::ReplicatedConfig config;
    config.channels = 4;
    config.stages = 19;
    return synthetic::build_replicated(config);
  }());
  return instance;
}

void BM_ImportanceAdversarialProduct(benchmark::State& state) {
  const FaultTree& tree = adversarial_fixture().tree;
  CutSetOptions cut_options;
  cut_options.engine = CutSetEngine::kZbdd;
  cut_options.order = OrderPolicy::kSift;
  const CutSetAnalysis cut_sets = compute_cut_sets(tree, cut_options);
  ProbabilityOptions options;
  options.mission_time_hours = 1000.0;
  double p = 0.0;
  for (auto _ : state) {
    ReliabilitySummary summary = analyse_reliability(tree, cut_sets, options);
    p = summary.p_exact;
    benchmark::DoNotOptimize(summary.importance.data());
  }
  state.counters["p_exact"] = p;
  state.counters["cut_sets"] = static_cast<double>(cut_sets.cut_sets.size());
}
BENCHMARK(BM_ImportanceAdversarialProduct)->Unit(benchmark::kMillisecond);

void BM_CanonicaliseLargeFamily(benchmark::State& state) {
  const FaultTree& tree = replicated_fixture().tree;
  CutSetOptions options;
  options.engine = CutSetEngine::kZbdd;
  std::size_t sets = 0;
  for (auto _ : state) {
    CutSetAnalysis analysis = compute_cut_sets(tree, options);
    sets = analysis.cut_sets.size();
    benchmark::DoNotOptimize(analysis.cut_sets.data());
  }
  state.counters["cut_sets"] = static_cast<double>(sets);
}
BENCHMARK(BM_CanonicaliseLargeFamily)->Unit(benchmark::kMillisecond);

}  // namespace
