// Traced pipeline for the ftsynth benchmark.
//
// Times each layer from outside, around calls into its public functions,
// so the program under test stays unchanged. Two modes:
//
//   perfbench_trace pipeline MODEL OUT [--jobs N] [--engine E] [--order O]
//       Re-composes `ftsynth analyse MODEL` with no --top from the public
//       calls: parse_mdl_file, the default-top probe (a kPrune synthesis of
//       every output x class candidate, as the service runner does),
//       Synthesiser::synthesise without its built-in dedup, deduplicate,
//       compute_cut_sets, analyse_common_cause, analyse_reliability and
//       render. Writes the report bytes to OUT (the caller compares them with
//       the CLI's stdout) and prints one JSON object of spans and counters.
//
//   perfbench_trace service JOBS SCRIPT...
//       Replays one request script per connection, each on its own thread,
//       against one warm in-process ServiceRunner (the daemon's command
//       layer), timing ServiceRunner::execute per request. Script lines are
//       "W<TAB>dst<TAB>src" (copy src over dst: an edit) or
//       "R<TAB>class<TAB>wire-json". Prints one line per request
//       "conn index class execute_ms exit_code output_fnv", then one JSON
//       line with the Open-PSA import time and the cone-cache counters.

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "analysis/cache.h"
#include "analysis/common_cause.h"
#include "analysis/cutsets.h"
#include "analysis/importance.h"
#include "analysis/ordering.h"
#include "analysis/report.h"
#include "core/diagnostics.h"
#include "core/parallel.h"
#include "core/thread_pool.h"
#include "fta/simplify.h"
#include "fta/synthesis.h"
#include "mdl/parser.h"
#include "openpsa/mef_reader.h"
#include "service/protocol.h"
#include "service/runner.h"

namespace {

using namespace ftsynth;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Accumulated wall time per span name.
class Spans {
 public:
  template <typename F>
  auto time(const std::string& name, F&& body) {
    const Clock::time_point start = Clock::now();
    if constexpr (std::is_void_v<decltype(body())>) {
      body();
      add(name, seconds_since(start));
    } else {
      auto result = body();
      add(name, seconds_since(start));
      return result;
    }
  }

  void add(const std::string& name, double seconds) { totals_[name] += seconds; }
  const std::map<std::string, double>& totals() const { return totals_; }

 private:
  std::map<std::string, double> totals_;
};

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  for (unsigned char byte : bytes) {
    hash ^= byte;
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

/// The engines the benchmark runs.
std::optional<CutSetEngine> parse_engine(const std::string& text) {
  if (text == "micsup") return CutSetEngine::kMicsup;
  if (text == "zbdd") return CutSetEngine::kZbdd;
  return std::nullopt;
}

int run_pipeline(const std::vector<std::string>& args) {
  if (args.size() < 2) return 2;
  const std::string& model_path = args[0];
  const std::string& out_path = args[1];
  int jobs = 1;
  AnalysisOptions options;
  for (std::size_t i = 2; i + 1 < args.size(); i += 2) {
    if (args[i] == "--jobs") {
      jobs = std::atoi(args[i + 1].c_str());
    } else if (args[i] == "--engine") {
      std::optional<CutSetEngine> engine = parse_engine(args[i + 1]);
      if (!engine) return 2;
      options.cut_sets.engine = *engine;
    } else if (args[i] == "--order") {
      std::optional<OrderPolicy> order = parse_order_policy(args[i + 1]);
      if (!order) return 2;
      options.cut_sets.order = *order;
    } else {
      return 2;
    }
  }

  const Clock::time_point start = Clock::now();
  Spans spans;
  std::optional<ThreadPool> pool;
  if (jobs > 1) pool.emplace(jobs);
  ThreadPool* pool_ptr = pool ? &*pool : nullptr;

  DiagnosticSink sink;
  const Model model = spans.time(
      "mdl.parse", [&] { return parse_mdl_file(model_path, sink); });

  // The default-top probe of the service runner: every (output x class)
  // candidate, pruned synthesis, kept when the tree is non-empty.
  std::vector<Deviation> tops = spans.time("fta.probe", [&] {
    SynthesisOptions prune;
    prune.unannotated = SynthesisOptions::UnannotatedPolicy::kPrune;
    DiagnosticSink probe_sink;
    prune.sink = &probe_sink;
    std::vector<Deviation> candidates;
    for (const Port* port : model.root().outputs())
      for (FailureClass cls : model.registry().all())
        candidates.push_back(Deviation{cls, port->name()});
    std::vector<char> derivable(candidates.size(), 0);
    parallel_for(pool_ptr, candidates.size(), [&](std::size_t i) {
      Synthesiser probe(model, prune);
      derivable[i] = probe.synthesise(candidates[i]).top() != nullptr ? 1 : 0;
    });
    std::vector<Deviation> kept;
    for (std::size_t i = 0; i < candidates.size(); ++i)
      if (derivable[i] != 0) kept.push_back(candidates[i]);
    return kept;
  });

  // What analyse_tree derives from the options, mirrored call for call.
  const bool want_diagram = options.prob_mode != ProbMode::kCutSets &&
                            options.cut_sets.engine == CutSetEngine::kZbdd;
  CutSetOptions cut_options = options.cut_sets;
  cut_options.keep_diagram = want_diagram;
  cut_options.bound_mission_time_hours = options.probability.mission_time_hours;
  cut_options.bound_default_probability =
      options.probability.default_event_probability;
  cut_options.pool = pool_ptr;
  ConeCache cones(cone_keyspace(options.cut_sets));
  cut_options.cone_cache = &cones;

  SynthesisOptions synthesis;
  synthesis.deduplicate = false;  // timed separately below
  synthesis.sink = &sink;

  std::size_t resolutions = 0, memo_hits = 0, loops_cut = 0;
  std::size_t nodes_raw = 0, nodes = 0;
  std::size_t cut_sets = 0, peak_sets = 0, truncated = 0;
  std::size_t root_nodes = 0, swaps = 0;
  std::vector<FaultTree> trees;
  std::vector<TreeAnalysis> analyses;
  trees.reserve(tops.size());
  analyses.reserve(tops.size());
  std::string text;
  for (const Deviation& top : tops) {
    Synthesiser synthesiser(model, synthesis);
    FaultTree raw = spans.time("fta.synthesise",
                               [&] { return synthesiser.synthesise(top); });
    resolutions += synthesiser.stats().resolutions;
    memo_hits += synthesiser.stats().cache_hits;
    loops_cut += synthesiser.stats().loops_cut;
    nodes_raw += raw.nodes().size();
    trees.push_back(spans.time("fta.deduplicate", [&] {
      FaultTree deduplicated = deduplicate(raw);
      raw = FaultTree("");  // the raw tree's teardown belongs to dedup
      return deduplicated;
    }));
    const FaultTree& tree = trees.back();
    nodes += tree.nodes().size();

    TreeAnalysis analysis;
    analysis.top_event = tree.top_description();
    analysis.tree_stats =
        spans.time("analysis.tree_stats", [&] { return tree.stats(); });
    analysis.cut_sets = spans.time(
        "analysis.cut_sets", [&] { return compute_cut_sets(tree, cut_options); });
    analysis.common_cause = spans.time("analysis.common_cause", [&] {
      return analyse_common_cause(tree, analysis.cut_sets);
    });
    spans.time("analysis.reliability", [&] {
      ReliabilitySummary reliability = analyse_reliability(
          tree, analysis.cut_sets, options.probability,
          want_diagram ? ProbMode::kDiagram : ProbMode::kCutSets);
      analysis.importance = std::move(reliability.importance);
      analysis.p_rare_event = reliability.p_rare_event;
      analysis.p_esary_proschan = reliability.p_esary_proschan;
      analysis.p_mcub = reliability.p_mcub;
      analysis.p_exact = reliability.p_exact;
      analysis.diagram_native = reliability.diagram_native;
      analysis.cut_sets.diagram.reset();
    });
    analysis.p_lower = analysis.cut_sets.p_lower;
    analysis.p_upper = analysis.cut_sets.p_upper;
    analysis.bound_converged = analysis.cut_sets.converged;
    analysis.frontier_stats = analysis.cut_sets.frontier_stats;

    cut_sets += analysis.cut_sets.cut_sets.size();
    peak_sets = std::max(peak_sets, analysis.cut_sets.peak_sets);
    if (analysis.cut_sets.truncated) ++truncated;
    if (analysis.cut_sets.reorder) {
      root_nodes += analysis.cut_sets.reorder->root_nodes;
      swaps += analysis.cut_sets.reorder->swaps;
    }
    spans.time("analysis.render",
               [&] { text += render(tree, analysis, options) + "\n"; });
    analyses.push_back(std::move(analysis));
  }

  bool written = false;
  spans.time("output.write", [&] {
    std::ofstream out(out_path, std::ios::binary);
    out << text;
    written = out.good();
  });
  spans.time("teardown", [&] {
    analyses.clear();
    trees.clear();
  });
  const double wall = seconds_since(start);
  if (!written) {
    std::cerr << "perfbench_trace: cannot write " << out_path << "\n";
    return 1;
  }

  const ConeCacheStats cone_stats = cones.stats();
  std::ostringstream json;
  json.precision(9);
  json << "{\"wall_s\": " << wall << ", \"tops\": " << tops.size()
       << ", \"spans\": {";
  bool first = true;
  for (const auto& [name, seconds] : spans.totals()) {
    json << (first ? "" : ", ") << "\"" << name << "\": " << seconds;
    first = false;
  }
  json << "}, \"counts\": {\"fta.resolutions\": " << resolutions
       << ", \"fta.memo_hits\": " << memo_hits
       << ", \"fta.loops_cut\": " << loops_cut
       << ", \"fta.nodes_raw\": " << nodes_raw << ", \"fta.nodes\": " << nodes
       << ", \"analysis.cut_sets\": " << cut_sets
       << ", \"analysis.peak_sets\": " << peak_sets
       << ", \"analysis.truncated_tops\": " << truncated
       << ", \"bdd.zbdd_root_nodes\": " << root_nodes
       << ", \"bdd.sift_swaps\": " << swaps
       << ", \"cone.hits\": " << cone_stats.hits
       << ", \"cone.misses\": " << cone_stats.misses << "}}\n";
  std::cout << json.str();
  return 0;
}

struct ScriptStep {
  bool write = false;
  std::string a;  ///< write: destination; request: class
  std::string b;  ///< write: source; request: wire JSON line
};

std::vector<ScriptStep> read_script(const std::string& path) {
  std::ifstream file(path);
  std::vector<ScriptStep> steps;
  std::string line;
  while (std::getline(file, line)) {
    if (line.empty()) continue;
    const std::size_t tab1 = line.find('\t');
    const std::size_t tab2 = line.find('\t', tab1 + 1);
    if (tab1 == std::string::npos || tab2 == std::string::npos)
      throw std::runtime_error("bad script line in " + path);
    ScriptStep step;
    step.write = line.substr(0, tab1) == "W";
    step.a = line.substr(tab1 + 1, tab2 - tab1 - 1);
    step.b = line.substr(tab2 + 1);
    steps.push_back(std::move(step));
  }
  return steps;
}

int run_service(const std::vector<std::string>& args) {
  if (args.size() < 2) return 2;
  service::ServiceRunner::Options runner_options;
  runner_options.warm = true;
  runner_options.jobs = std::atoi(args[0].c_str());
  service::ServiceRunner runner(runner_options);

  std::vector<std::vector<ScriptStep>> scripts;
  for (std::size_t i = 1; i < args.size(); ++i)
    scripts.push_back(read_script(args[i]));

  // The MEF import layer, timed on its own over every distinct XML model.
  std::set<std::string> xml_models;
  for (const auto& script : scripts) {
    for (const ScriptStep& step : script) {
      if (step.write) continue;
      auto parsed = service::parse_wire_request(step.b);
      if (auto* wire = std::get_if<service::WireRequest>(&parsed)) {
        const std::string& path = wire->request.model_path;
        if (path.size() > 4 && path.substr(path.size() - 4) == ".xml")
          xml_models.insert(path);
      }
    }
  }
  const Clock::time_point import_start = Clock::now();
  for (const std::string& path : xml_models) {
    DiagnosticSink sink;
    openpsa::read_openpsa_file(path, sink);
  }
  const double import_s = seconds_since(import_start);

  std::mutex out_mutex;
  std::vector<std::string> lines;
  std::vector<std::thread> threads;
  bool failed = false;
  for (std::size_t conn = 0; conn < scripts.size(); ++conn) {
    threads.emplace_back([&, conn] {
      std::size_t index = 0;
      for (const ScriptStep& step : scripts[conn]) {
        if (step.write) {
          std::filesystem::copy_file(
              step.b, step.a, std::filesystem::copy_options::overwrite_existing);
          continue;
        }
        auto parsed = service::parse_wire_request(step.b);
        auto* wire = std::get_if<service::WireRequest>(&parsed);
        if (wire == nullptr) {
          std::lock_guard<std::mutex> lock(out_mutex);
          failed = true;
          return;
        }
        const Clock::time_point start = Clock::now();
        const service::ServiceResult result = runner.execute(wire->request);
        const double ms = seconds_since(start) * 1000.0;
        char line[256];
        std::snprintf(line, sizeof line, "%zu %zu %s %.6f %d %016" PRIx64, conn,
                      index, step.a.c_str(), ms, result.exit_code,
                      fnv1a(result.output));
        std::lock_guard<std::mutex> lock(out_mutex);
        lines.emplace_back(line);
        ++index;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  if (failed) {
    std::cerr << "perfbench_trace: unparsable request in a script\n";
    return 1;
  }
  for (const std::string& line : lines) std::cout << line << "\n";

  std::uint64_t hits = 0, misses = 0;
  for (CutSetEngine engine : {CutSetEngine::kMicsup, CutSetEngine::kZbdd}) {
    CutSetOptions keyspace;
    keyspace.engine = engine;
    const ConeCacheStats stats = runner.warm_cone_cache(keyspace, nullptr)->stats();
    hits += stats.hits;
    misses += stats.misses;
  }
  std::cout << "{\"openpsa.import_s\": " << import_s
            << ", \"xml_models\": " << xml_models.size()
            << ", \"cone.hits\": " << hits << ", \"cone.misses\": " << misses
            << "}\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  try {
    if (!args.empty() && args[0] == "pipeline")
      return run_pipeline({args.begin() + 1, args.end()});
    if (!args.empty() && args[0] == "service")
      return run_service({args.begin() + 1, args.end()});
  } catch (const std::exception& error) {
    std::cerr << "perfbench_trace: " << error.what() << "\n";
    return 1;
  }
  std::cerr << "usage: perfbench_trace pipeline MODEL OUT [--jobs N] "
               "[--engine E] [--order O] | service JOBS SCRIPT...\n";
  return 2;
}
