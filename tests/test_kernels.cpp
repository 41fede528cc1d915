// Bit-identity oracles for the analysis tail's integer kernels. Each
// kernel is compared, with exact ==, against a test-local copy of the
// straightforward code it replaced:
//
//   * canonical order -- cut sets re-sorted by event-name comparison
//     (literals by (name, polarity), sets by (size, literals)), every
//     literal pointing at the original tree's equally-named leaf;
//   * family probability -- the three separate bound loops (rare-event,
//     Esary-Proschan, MCUB) and the per-literal Fussell-Vesely / count /
//     min-order loop, each pricing every literal with event_probability;
//   * BDD conditionals -- the recursive Shannon evaluation and the
//     recursive P(f | v = b) over hash-map memos, plus the Birnbaum sweep
//     over a hash-map postorder index.
//
// Inputs: the 250 differential-fuzz trees (tests/fuzz_trees.h), the
// adversarial example models, and a hand-built tree whose name order
// reverses its depth-first order and which holds negated literals.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/cutsets.h"
#include "analysis/importance.h"
#include "analysis/probability.h"
#include "bdd/bdd_prob.h"
#include "fta/synthesis.h"
#include "fuzz_trees.h"
#include "mdl/parser.h"

namespace ftsynth {
namespace {

// -- Reference copies of the replaced code ------------------------------------

bool literal_less(const CutLiteral& a, const CutLiteral& b) {
  if (a.event->name() != b.event->name())
    return a.event->name() < b.event->name();
  return a.negated < b.negated;
}

bool set_less_by_name(const CutSet& a, const CutSet& b) {
  if (a.size() != b.size()) return a.size() < b.size();
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].event->name() != b[i].event->name())
      return a[i].event->name() < b[i].event->name();
    if (a[i].negated != b[i].negated) return a[i].negated < b[i].negated;
  }
  return false;
}

/// The family scrambled (set order and literal order) and re-sorted by
/// name comparison, with every literal re-looked-up by name.
std::vector<CutSet> name_sorted(const FaultTree& tree,
                                std::vector<CutSet> sets) {
  std::mt19937 rng(12345u);
  std::shuffle(sets.begin(), sets.end(), rng);
  for (CutSet& cs : sets) {
    std::shuffle(cs.begin(), cs.end(), rng);
    for (CutLiteral& literal : cs)
      literal.event = tree.find_event(literal.event->name());
    std::sort(cs.begin(), cs.end(), literal_less);
  }
  std::sort(sets.begin(), sets.end(), set_less_by_name);
  return sets;
}

double reference_rare_event(const CutSetAnalysis& analysis,
                            const ProbabilityOptions& options) {
  double sum = 0.0;
  for (const CutSet& cs : analysis.cut_sets)
    sum += cut_set_probability(cs, options);
  return sum;
}

double reference_esary_proschan(const CutSetAnalysis& analysis,
                                const ProbabilityOptions& options) {
  double product = 1.0;
  for (const CutSet& cs : analysis.cut_sets)
    product *= 1.0 - cut_set_probability(cs, options);
  return 1.0 - product;
}

double reference_mcub(const CutSetAnalysis& analysis,
                      const ProbabilityOptions& options) {
  double log_q = 0.0;
  for (const CutSet& cs : analysis.cut_sets) {
    const double p = cut_set_probability(cs, options);
    if (p >= 1.0) return 1.0;
    log_q += std::log1p(-p);
  }
  return -std::expm1(log_q);
}

struct ReferenceEntry {
  double fussell_vesely = 0.0;
  std::size_t cut_set_count = 0;
  std::size_t smallest_order = 0;
};

std::unordered_map<const FtNode*, ReferenceEntry> reference_family_entries(
    const FaultTree& tree, const CutSetAnalysis& analysis,
    const ProbabilityOptions& options) {
  std::unordered_map<const FtNode*, ReferenceEntry> entries;
  for (const FtNode* event : tree.basic_events()) entries[event];
  const double total = reference_rare_event(analysis, options);
  for (const CutSet& cs : analysis.cut_sets) {
    const double p = cut_set_probability(cs, options);
    for (const CutLiteral& literal : cs) {
      auto it = entries.find(literal.event);
      if (it == entries.end()) continue;
      ReferenceEntry& entry = it->second;
      if (total > 0.0) entry.fussell_vesely += p / total;
      ++entry.cut_set_count;
      if (entry.smallest_order == 0 || cs.size() < entry.smallest_order)
        entry.smallest_order = cs.size();
    }
  }
  return entries;
}

using Memo = std::unordered_map<Bdd::Ref, double>;

double reference_probability(const Bdd& bdd, Bdd::Ref f,
                             const std::vector<double>& probabilities,
                             Memo& memo) {
  if (bdd.is_false(f)) return 0.0;
  if (bdd.is_true(f)) return 1.0;
  if (auto it = memo.find(f); it != memo.end()) return it->second;
  const Bdd::Node& n = bdd.node(f);
  const double p = probabilities[static_cast<std::size_t>(n.var)];
  const double result =
      p * reference_probability(bdd, n.high, probabilities, memo) +
      (1.0 - p) * reference_probability(bdd, n.low, probabilities, memo);
  memo.emplace(f, result);
  return result;
}

double reference_conditional(const Bdd& bdd, Bdd::Ref f, int v, bool value,
                             const std::vector<double>& probabilities,
                             Memo& shared_memo, Memo& memo) {
  if (bdd.is_false(f)) return 0.0;
  if (bdd.is_true(f)) return 1.0;
  const Bdd::Node& n = bdd.node(f);
  if (bdd.level_of(n.var) > bdd.level_of(v))
    return reference_probability(bdd, f, probabilities, shared_memo);
  if (n.var == v)
    return reference_probability(bdd, value ? n.high : n.low, probabilities,
                                 shared_memo);
  if (auto it = memo.find(f); it != memo.end()) return it->second;
  const double p = probabilities[static_cast<std::size_t>(n.var)];
  const double result =
      p * reference_conditional(bdd, n.high, v, value, probabilities,
                                shared_memo, memo) +
      (1.0 - p) * reference_conditional(bdd, n.low, v, value, probabilities,
                                        shared_memo, memo);
  memo.emplace(f, result);
  return result;
}

std::vector<double> reference_birnbaum_all(
    const Bdd& bdd, Bdd::Ref f, const std::vector<double>& probabilities) {
  std::vector<double> result(probabilities.size(), 0.0);
  if (bdd.is_terminal(f)) return result;
  std::vector<Bdd::Ref> order;
  std::unordered_map<Bdd::Ref, std::uint32_t> index;
  struct Frame {
    Bdd::Ref ref;
    int stage;
  };
  std::vector<Frame> stack{{f, 0}};
  while (!stack.empty()) {
    Frame& frame = stack.back();
    if (frame.stage == 2) {
      if (index.find(frame.ref) == index.end()) {
        index.emplace(frame.ref, static_cast<std::uint32_t>(order.size()));
        order.push_back(frame.ref);
      }
      stack.pop_back();
      continue;
    }
    const Bdd::Node& n = bdd.node(frame.ref);
    const Bdd::Ref child = frame.stage == 0 ? n.low : n.high;
    ++frame.stage;
    if (!bdd.is_terminal(child) && index.find(child) == index.end())
      stack.push_back({child, 0});
  }
  Memo memo;
  reference_probability(bdd, f, probabilities, memo);
  auto value = [&](Bdd::Ref ref) {
    if (bdd.is_false(ref)) return 0.0;
    if (bdd.is_true(ref)) return 1.0;
    return memo.at(ref);
  };
  std::vector<double> reach(order.size(), 0.0);
  reach[index.at(f)] = 1.0;
  for (std::size_t i = order.size(); i-- > 0;) {
    const Bdd::Node& n = bdd.node(order[i]);
    const double p = probabilities[static_cast<std::size_t>(n.var)];
    const double r = reach[i];
    if (!bdd.is_terminal(n.low)) reach[index.at(n.low)] += (1.0 - p) * r;
    if (!bdd.is_terminal(n.high)) reach[index.at(n.high)] += p * r;
    result[static_cast<std::size_t>(n.var)] +=
        r * (value(n.high) - value(n.low));
  }
  return result;
}

// -- The comparisons ------------------------------------------------------------

/// Canonical order: every engine's family equals the name-sorted one,
/// literal for literal and pointer for pointer.
void expect_canonical(const FaultTree& tree, const std::string& where) {
  for (CutSetEngine engine : {CutSetEngine::kMicsup, CutSetEngine::kZbdd}) {
    CutSetOptions options;
    options.engine = engine;
    options.order = OrderPolicy::kSift;  // the set engine ignores it
    const CutSetAnalysis analysis = compute_cut_sets(tree, options);
    const std::vector<CutSet> expected = name_sorted(tree, analysis.cut_sets);
    ASSERT_EQ(analysis.cut_sets.size(), expected.size()) << where;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_TRUE(analysis.cut_sets[i] == expected[i])
          << where << " engine " << static_cast<int>(engine) << " set " << i;
    }
  }
}

/// Family probability: the one-pass kernel, its wrappers and
/// analyse_reliability's family numbers against the separate loops.
void expect_family_identical(const FaultTree& tree,
                             const std::string& where) {
  const CutSetAnalysis analysis = compute_cut_sets(tree);
  for (double hours : {1.0, 1000.0}) {
    ProbabilityOptions options;
    options.mission_time_hours = hours;
    options.default_event_probability = 0.01;
    const FamilyProbability family = family_probability(analysis, options);
    ASSERT_EQ(family.set_probability.size(), analysis.cut_sets.size());
    for (std::size_t i = 0; i < analysis.cut_sets.size(); ++i)
      EXPECT_EQ(family.set_probability[i],
                cut_set_probability(analysis.cut_sets[i], options))
          << where << " set " << i;
    const double rare = reference_rare_event(analysis, options);
    const double ep = reference_esary_proschan(analysis, options);
    const double mcub = reference_mcub(analysis, options);
    EXPECT_EQ(family.rare_event, rare) << where;
    EXPECT_EQ(family.esary_proschan, ep) << where;
    EXPECT_EQ(family.mcub, mcub) << where;
    EXPECT_EQ(rare_event_bound(analysis, options), rare) << where;
    EXPECT_EQ(esary_proschan_bound(analysis, options), ep) << where;
    EXPECT_EQ(mcub_bound(analysis, options), mcub) << where;

    const ReliabilitySummary summary =
        analyse_reliability(tree, analysis, options);
    EXPECT_EQ(summary.p_rare_event, rare) << where;
    EXPECT_EQ(summary.p_esary_proschan, ep) << where;
    EXPECT_EQ(summary.p_mcub, mcub) << where;
    const auto reference = reference_family_entries(tree, analysis, options);
    ASSERT_EQ(summary.importance.size(), reference.size()) << where;
    for (const ImportanceEntry& entry : summary.importance) {
      const ReferenceEntry& expected = reference.at(entry.event);
      EXPECT_EQ(entry.fussell_vesely, expected.fussell_vesely)
          << where << " event " << entry.event->name().view();
      EXPECT_EQ(entry.cut_set_count, expected.cut_set_count) << where;
      EXPECT_EQ(entry.smallest_order, expected.smallest_order) << where;
    }
  }
}

/// BDD conditionals: P(top), every P(top | v = b) and the Birnbaum sweep.
void expect_conditionals_identical(const FaultTree& tree,
                                   const std::string& where) {
  ProbabilityOptions options;
  options.mission_time_hours = 100.0;
  options.default_event_probability = 0.01;
  const BddEncoding encoding = encode_bdd(tree);
  const std::vector<double> probabilities = encoding.probabilities(options);
  BddProbabilityEngine engine(encoding.bdd, probabilities);
  Memo shared;
  EXPECT_EQ(engine.probability(encoding.root),
            reference_probability(encoding.bdd, encoding.root, probabilities,
                                  shared))
      << where;
  for (std::size_t v = 0; v < encoding.events.size(); ++v) {
    for (bool value : {true, false}) {
      Memo memo;
      EXPECT_EQ(
          engine.probability_given(encoding.root, static_cast<int>(v), value),
          reference_conditional(encoding.bdd, encoding.root,
                                static_cast<int>(v), value, probabilities,
                                shared, memo))
          << where << " var " << v << " value " << value;
    }
  }
  const std::vector<double> sweep = engine.birnbaum_all(encoding.root);
  const std::vector<double> expected =
      reference_birnbaum_all(encoding.bdd, encoding.root, probabilities);
  ASSERT_EQ(sweep.size(), expected.size()) << where;
  for (std::size_t v = 0; v < sweep.size(); ++v)
    EXPECT_EQ(sweep[v], expected[v]) << where << " var " << v;
}

void expect_all_identical(const FaultTree& tree, const std::string& where) {
  expect_canonical(tree, where);
  expect_family_identical(tree, where);
  expect_conditionals_identical(tree, where);
}

/// Name order is the reverse of depth-first order (z is met first, a
/// last), and NOT literals appear in several sets.
FaultTree reversed_names_tree() {
  FaultTree tree("reversed");
  std::vector<FtNode*> events;
  for (char c = 'z'; c >= 'q'; --c)
    events.push_back(tree.add_basic(Symbol(std::string("e_") + c),
                                    1e-4 * (1 + ('z' - c)), "", ""));
  auto not_of = [&](int i) {
    return tree.add_gate(GateKind::kNot, "", {events[i]});
  };
  std::vector<FtNode*> terms;
  terms.push_back(tree.add_gate(GateKind::kAnd, "", {events[0], not_of(1)}));
  terms.push_back(tree.add_gate(GateKind::kAnd, "", {events[1], events[2]}));
  terms.push_back(
      tree.add_gate(GateKind::kAnd, "", {not_of(2), events[3], events[4]}));
  terms.push_back(tree.add_gate(GateKind::kAnd, "", {events[5], not_of(0)}));
  terms.push_back(tree.add_gate(GateKind::kAnd, "",
                                {events[6], events[7], not_of(8)}));
  terms.push_back(tree.add_gate(GateKind::kAnd, "", {events[8], events[9]}));
  terms.push_back(events[9]);
  tree.set_top(tree.add_gate(GateKind::kOr, "top", std::move(terms)));
  return tree;
}

TEST(KernelOracle, FuzzTreesMatchTheReferenceCode) {
  for (int seed = 0; seed < kFuzzSeeds; ++seed) {
    std::mt19937 rng = fuzz_rng(seed);
    for (int t = 0; t < kTreesPerSeed; ++t) {
      const FaultTree tree = random_fuzz_tree(rng, seed * kTreesPerSeed + t);
      expect_all_identical(tree, "seed " + std::to_string(seed) + " tree " +
                                     std::to_string(t));
    }
  }
}

TEST(KernelOracle, AdversarialExamplesMatchTheReferenceCode) {
  for (const char* name : {"adversarial_product_small", "adversarial_product",
                           "adversarial_voters"}) {
    const Model model = parse_mdl_file(std::string(FTSYNTH_EXAMPLES_DIR) +
                                       "/" + name + ".mdl");
    const FaultTree tree = Synthesiser(model).synthesise("Omission-sink");
    expect_all_identical(tree, name);
  }
}

TEST(KernelOracle, ReversedNameOrderWithNegationsMatchesTheReferenceCode) {
  const FaultTree tree = reversed_names_tree();
  const CutSetAnalysis analysis = compute_cut_sets(tree);
  // The tree exercises what it claims: several sets, negated literals, and
  // a first set whose name order differs from its depth-first order.
  ASSERT_GE(analysis.cut_sets.size(), 4u);
  bool negated = false;
  for (const CutSet& cs : analysis.cut_sets)
    for (const CutLiteral& literal : cs) negated |= literal.negated;
  EXPECT_TRUE(negated);
  expect_all_identical(tree, "reversed");
}

}  // namespace
}  // namespace ftsynth
