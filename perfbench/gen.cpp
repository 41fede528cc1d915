// Input generator for the ftsynth benchmark.
//
// Writes the benchmark's model files with the repository's own model
// generators, so the ftsynth binary under test only ever sees files. Seed
// handling (which model, which rate scale, which edit) lives in run.py; this
// program is deterministic for its arguments.
//
//   perfbench_gen bbw OUT.mdl                 full SETTA brake-by-wire model
//   perfbench_gen replicated OUT.mdl C S      C lanes of S stages, voted
//   perfbench_gen adversarial OUT.mdl N       N-pair adversarial product
//   perfbench_gen openpsa-tops MODEL.mdl DIR  one Open-PSA file per derivable
//                                             top event of MODEL, written with
//                                             the single-tree write_openpsa
//
// openpsa-tops prints one "<index> <top>" line per file written.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "casestudy/setta.h"
#include "casestudy/synthetic.h"
#include "fta/synthesis.h"
#include "ftp/openpsa_writer.h"
#include "mdl/parser.h"
#include "mdl/writer.h"

namespace {

using namespace ftsynth;

int usage() {
  std::cerr << "usage: perfbench_gen bbw OUT | replicated OUT C S | "
               "adversarial OUT N | openpsa-tops MODEL DIR\n";
  return 2;
}

// The tops `ftsynth analyse` derives when none is given: every (boundary
// output x failure class) whose pruned synthesis is non-empty.
std::vector<Deviation> derivable_tops(const Model& model) {
  SynthesisOptions prune;
  prune.unannotated = SynthesisOptions::UnannotatedPolicy::kPrune;
  std::vector<Deviation> tops;
  for (const Port* port : model.root().outputs()) {
    for (FailureClass cls : model.registry().all()) {
      Deviation candidate{cls, port->name()};
      Synthesiser probe(model, prune);
      if (probe.synthesise(candidate).top() != nullptr)
        tops.push_back(candidate);
    }
  }
  return tops;
}

int write_openpsa_tops(const std::string& model_path, const std::string& dir) {
  const Model model = parse_mdl_file(model_path);
  Synthesiser synthesiser(model);
  int index = 0;
  for (const Deviation& top : derivable_tops(model)) {
    const FaultTree tree = synthesiser.synthesise(top);
    const std::string path = dir + "/top" + std::to_string(index) + ".xml";
    std::ofstream file(path, std::ios::binary);
    file << write_openpsa(tree);
    if (!file.good()) {
      std::cerr << "perfbench_gen: cannot write " << path << "\n";
      return 1;
    }
    std::cout << index << " " << top.to_string() << "\n";
    ++index;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (args.size() < 2) return usage();
  try {
    const std::string& kind = args[0];
    const std::string& out = args[1];
    if (kind == "bbw" && args.size() == 2) {
      write_mdl_file(setta::build_bbw(), out);
    } else if (kind == "replicated" && args.size() == 4) {
      synthetic::ReplicatedConfig config;
      config.channels = std::atoi(args[2].c_str());
      config.stages = std::atoi(args[3].c_str());
      write_mdl_file(synthetic::build_replicated(config), out);
    } else if (kind == "adversarial" && args.size() == 3) {
      write_mdl_file(
          synthetic::build_adversarial_product(std::atoi(args[2].c_str())),
          out);
    } else if (kind == "openpsa-tops" && args.size() == 3) {
      return write_openpsa_tops(out, args[2]);
    } else {
      return usage();
    }
  } catch (const std::exception& error) {
    std::cerr << "perfbench_gen: " << error.what() << "\n";
    return 1;
  }
  return 0;
}
