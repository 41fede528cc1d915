// The differential-fuzz tree generator: seeded random AND/OR/NOT fault
// trees (shared subtrees included, so they are DAGs), shared by the
// cross-engine sweep (test_reorder_fuzz.cpp) and the kernel oracles
// (test_kernels.cpp) so both run over the same 250 trees.

#pragma once

#include <random>
#include <string>
#include <vector>

#include "core/symbol.h"
#include "fta/fault_tree.h"

namespace ftsynth {

/// The sweep: kFuzzSeeds seeds of kTreesPerSeed trees each.
inline constexpr int kFuzzSeeds = 25;
inline constexpr int kTreesPerSeed = 10;

/// The generator state behind one seed's trees.
inline std::mt19937 fuzz_rng(int seed) {
  return std::mt19937(static_cast<unsigned>(seed) * 2654435761u + 1u);
}

/// Builds one random fault tree. Shapes are deliberately small enough
/// that no engine truncates: truncated enumerations may legitimately
/// differ across variable orders, so only CLEAN analyses are compared.
inline FaultTree random_fuzz_tree(std::mt19937& rng, int tag) {
  FaultTree tree("fuzz_" + std::to_string(tag));
  std::uniform_int_distribution<int> event_count(4, 10);
  const int events = event_count(rng);

  // Leaves: basic events with varied rates, plus up to two NOT-over-leaf
  // gates (NOT over composite subtrees is rejected by the non-coherent
  // front end, so the generator stays within the supported fragment).
  std::vector<FtNode*> pool;
  std::uniform_real_distribution<double> rate(1e-6, 1e-2);
  for (int i = 0; i < events; ++i)
    pool.push_back(tree.add_basic(Symbol("e" + std::to_string(i)), rate(rng),
                                  "fuzz event", "fuzz"));
  std::uniform_int_distribution<int> not_count(0, 2);
  std::uniform_int_distribution<int> leaf_pick(0, events - 1);
  const int nots = not_count(rng);
  for (int i = 0; i < nots; ++i)
    pool.push_back(tree.add_gate(GateKind::kNot, "not gate",
                                 {pool[leaf_pick(rng)]}));

  // Internal gates draw children from everything built so far, so shared
  // subtrees (DAG structure) arise naturally.
  std::uniform_int_distribution<int> gate_count(3, 8);
  std::uniform_int_distribution<int> child_count(2, 4);
  std::uniform_int_distribution<int> kind_pick(0, 1);
  const int gates = gate_count(rng);
  FtNode* last = nullptr;
  for (int g = 0; g < gates; ++g) {
    std::uniform_int_distribution<int> pick(0,
                                            static_cast<int>(pool.size()) - 1);
    const int arity = child_count(rng);
    std::vector<FtNode*> children;
    for (int c = 0; c < arity; ++c) {
      FtNode* child = pool[pick(rng)];
      bool duplicate = false;
      for (FtNode* seen : children) duplicate |= seen == child;
      if (!duplicate) children.push_back(child);
    }
    if (children.size() < 2) children.push_back(pool[leaf_pick(rng)]);
    last = tree.add_gate(kind_pick(rng) == 0 ? GateKind::kAnd : GateKind::kOr,
                         "gate " + std::to_string(g), std::move(children));
    pool.push_back(last);
  }
  tree.set_top(last);
  tree.set_top_description("fuzz top " + std::to_string(tag));
  return tree;
}

}  // namespace ftsynth
