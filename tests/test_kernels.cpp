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
//     over a hash-map postorder index;
//   * minimisation -- the flat-row kernel (popcount levels, hash dedup,
//     lowest-literal screen) against the sort-based kernel over per-set
//     word vectors, both directly (minimise_literal_sets) and inside the
//     bottom-up engine (minimal_cut_sets against a reference engine built
//     on the old kernel), limits that truncate included.
//
// Inputs: the 250 differential-fuzz trees (tests/fuzz_trees.h), the
// adversarial example models, a hand-built tree whose name order
// reverses its depth-first order and which holds negated literals, and
// for minimisation also replicated 3x12, the BBW tops and random literal
// families over multi-word universes.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/cutsets.h"
#include "analysis/importance.h"
#include "analysis/ordering.h"
#include "analysis/probability.h"
#include "bdd/bdd_prob.h"
#include "casestudy/setta.h"
#include "casestudy/synthetic.h"
#include "fta/simplify.h"
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

// The sort-based minimisation kernel: one heap word vector per set, the
// family comparison-sorted (popcount, then ascending literal sequence),
// adjacent duplicates removed, then the lowest-literal subsumption screen.
struct RefSet {
  std::vector<std::uint64_t> words;
  std::uint32_t count = 0;
  std::uint64_t signature = 0;
};

void ref_insert(RefSet& set, int literal) {
  std::uint64_t& word = set.words[static_cast<std::size_t>(literal) >> 6];
  const std::uint64_t bit = 1ULL << (literal & 63);
  if ((word & bit) == 0) {
    word |= bit;
    ++set.count;
    set.signature |= bit;
  }
}

RefSet ref_or(const RefSet& a, const RefSet& b) {
  RefSet out;
  out.words.resize(a.words.size());
  for (std::size_t i = 0; i < a.words.size(); ++i) {
    out.words[i] = a.words[i] | b.words[i];
    out.count += static_cast<std::uint32_t>(std::popcount(out.words[i]));
  }
  out.signature = a.signature | b.signature;
  return out;
}

bool ref_contradictory(const RefSet& set) {
  for (const std::uint64_t word : set.words)
    if ((word & (word >> 1) & 0x5555555555555555ULL) != 0) return true;
  return false;
}

bool ref_subset(const RefSet& small, const RefSet& big) {
  if (small.count > big.count) return false;
  if ((small.signature & ~big.signature) != 0) return false;
  for (std::size_t i = 0; i < small.words.size(); ++i)
    if ((small.words[i] & ~big.words[i]) != 0) return false;
  return true;
}

bool ref_equal(const RefSet& a, const RefSet& b) {
  return a.count == b.count && a.words == b.words;
}

bool ref_less(const RefSet& a, const RefSet& b) {
  if (a.count != b.count) return a.count < b.count;
  for (std::size_t i = 0; i < a.words.size(); ++i) {
    if (a.words[i] == b.words[i]) continue;
    const std::uint64_t diff = a.words[i] ^ b.words[i];
    return (a.words[i] & (diff & -diff)) != 0;
  }
  return false;
}

std::vector<RefSet> reference_minimise(std::vector<RefSet> sets) {
  std::sort(sets.begin(), sets.end(), ref_less);
  sets.erase(std::unique(sets.begin(), sets.end(), ref_equal), sets.end());
  if (sets.empty()) return {};
  if (sets[0].count == 0) return {sets[0]};
  struct Entry {
    std::uint32_t count;
    std::uint32_t index;
    std::uint64_t signature;
  };
  std::vector<std::vector<Entry>> buckets(sets[0].words.size() * 64);
  std::vector<RefSet> kept;
  for (RefSet& candidate : sets) {
    if (ref_contradictory(candidate)) continue;
    bool subsumed = false;
    for (std::size_t w = 0; w < candidate.words.size() && !subsumed; ++w) {
      std::uint64_t bits = candidate.words[w];
      while (bits != 0 && !subsumed) {
        const std::size_t literal =
            w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
        bits &= bits - 1;
        for (const Entry& entry : buckets[literal]) {
          if (entry.count >= candidate.count) break;
          if ((entry.signature & ~candidate.signature) != 0) continue;
          if (ref_subset(kept[entry.index], candidate)) {
            subsumed = true;
            break;
          }
        }
      }
    }
    if (subsumed) continue;
    for (std::size_t w = 0; w < candidate.words.size(); ++w) {
      if (candidate.words[w] == 0) continue;
      buckets[w * 64 + static_cast<std::size_t>(
                           std::countr_zero(candidate.words[w]))]
          .push_back({candidate.count, static_cast<std::uint32_t>(kept.size()),
                      candidate.signature});
      break;
    }
    kept.push_back(std::move(candidate));
  }
  return kept;
}

/// The bottom-up engine as it ran on the sort-based kernel (no cone
/// cache, no deadline): the reference for minimal_cut_sets' listing,
/// truncation flag and peak_sets under every limit.
class ReferenceBottomUp {
 public:
  ReferenceBottomUp(const FaultTree& tree, const CutSetOptions& options)
      : original_(tree), flat_(normalise(tree)), options_(options) {
    events_ = dfs_variable_order(flat_);
    for (std::size_t i = 0; i < events_.size(); ++i)
      index_.emplace(events_[i], static_cast<int>(i));
    words_ = (2 * events_.size() + 63) / 64;
  }

  CutSetAnalysis run() {
    CutSetAnalysis analysis;
    if (flat_.top() != nullptr) {
      for (const RefSet& set : resolve(flat_.top())) {
        CutSet cs;
        for (std::size_t w = 0; w < set.words.size(); ++w) {
          std::uint64_t bits = set.words[w];
          while (bits != 0) {
            const int literal =
                static_cast<int>(w * 64) + std::countr_zero(bits);
            bits &= bits - 1;
            cs.push_back(
                {original_.find_event(
                     events_[static_cast<std::size_t>(literal / 2)]->name()),
                 (literal & 1) != 0});
          }
        }
        std::sort(cs.begin(), cs.end(), literal_less);
        analysis.cut_sets.push_back(std::move(cs));
      }
      std::sort(analysis.cut_sets.begin(), analysis.cut_sets.end(),
                set_less_by_name);
    }
    analysis.truncated = truncated_;
    analysis.peak_sets = peak_;
    return analysis;
  }

 private:
  RefSet literal_set(const FtNode* event, bool negated) const {
    RefSet set{std::vector<std::uint64_t>(words_), 0, 0};
    ref_insert(set, index_.at(event) * 2 + (negated ? 1 : 0));
    return set;
  }

  std::vector<RefSet> clamp(std::vector<RefSet> sets) {
    std::vector<RefSet> kept;
    for (RefSet& set : sets) {
      if (set.count > options_.max_order) {
        truncated_ = true;
        continue;
      }
      kept.push_back(std::move(set));
    }
    if (kept.size() > options_.max_sets) {
      truncated_ = true;
      std::sort(kept.begin(), kept.end(), ref_less);
      kept.resize(options_.max_sets);
    }
    return kept;
  }

  const std::vector<RefSet>& resolve(const FtNode* node) {
    if (auto it = memo_.find(node); it != memo_.end()) return it->second;
    std::vector<RefSet> result = resolve_uncached(node);
    peak_ = std::max(peak_, result.size());
    return memo_.emplace(node, std::move(result)).first->second;
  }

  std::vector<RefSet> resolve_uncached(const FtNode* node) {
    switch (node->kind()) {
      case NodeKind::kHouse:
        return {RefSet{std::vector<std::uint64_t>(words_), 0, 0}};
      case NodeKind::kBasic:
      case NodeKind::kUndeveloped:
      case NodeKind::kLoop:
        return {literal_set(node, false)};
      case NodeKind::kGate:
        break;
    }
    if (node->gate() == GateKind::kNot)
      return {literal_set(node->children().front(), true)};
    std::vector<RefSet> acc;
    bool first = true;
    for (const FtNode* child : node->children()) {
      const std::vector<RefSet>& sets = resolve(child);
      if (node->gate() == GateKind::kOr) {
        acc.insert(acc.end(), sets.begin(), sets.end());
      } else if (first) {
        acc = sets;
      } else {
        std::vector<RefSet> product;
        for (const RefSet& a : acc) {
          for (const RefSet& b : sets) {
            RefSet merged = ref_or(a, b);
            if (!ref_contradictory(merged))
              product.push_back(std::move(merged));
          }
          if (product.size() > options_.max_sets * 4)
            product = clamp(reference_minimise(std::move(product)));
        }
        acc = std::move(product);
      }
      first = false;
      peak_ = std::max(peak_, acc.size());
    }
    return clamp(reference_minimise(std::move(acc)));
  }

  const FaultTree& original_;
  FaultTree flat_;
  const CutSetOptions& options_;
  std::vector<const FtNode*> events_;
  std::unordered_map<const FtNode*, int> index_;
  std::size_t words_ = 0;
  std::unordered_map<const FtNode*, std::vector<RefSet>> memo_;
  bool truncated_ = false;
  std::size_t peak_ = 0;
};

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

/// Minimisation inside the bottom-up engine: listing, truncation flag and
/// peak working-set count equal the reference engine's, with no limit and
/// under order and count limits that bite (a max_sets of 1-3 also forces
/// the mid-product minimise-and-clamp). Returns how many of the limit
/// settings truncated.
int expect_minimisation_identical(const FaultTree& tree,
                                  const std::string& where) {
  int truncated = 0;
  const std::vector<std::pair<std::size_t, std::size_t>> limits = {
      {64, 1u << 20}, {2, 1u << 20}, {3, 1u << 20}, {64, 1},
      {64, 2},        {64, 3},       {64, 17},      {3, 5}};
  for (const auto& [max_order, max_sets] : limits) {
    CutSetOptions options;
    options.max_order = max_order;
    options.max_sets = max_sets;
    const CutSetAnalysis analysis = minimal_cut_sets(tree, options);
    const CutSetAnalysis expected = ReferenceBottomUp(tree, options).run();
    const std::string label = where + " max_order " +
                              std::to_string(max_order) + " max_sets " +
                              std::to_string(max_sets);
    EXPECT_EQ(analysis.truncated, expected.truncated) << label;
    EXPECT_EQ(analysis.peak_sets, expected.peak_sets) << label;
    EXPECT_TRUE(analysis.cut_sets == expected.cut_sets)
        << label << " (" << analysis.cut_sets.size() << " vs "
        << expected.cut_sets.size() << " sets)";
    truncated += expected.truncated ? 1 : 0;
  }
  return truncated;
}

void expect_all_identical(const FaultTree& tree, const std::string& where) {
  expect_canonical(tree, where);
  expect_family_identical(tree, where);
  expect_conditionals_identical(tree, where);
  expect_minimisation_identical(tree, where);
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

TEST(KernelOracle, ReplicatedAndBbwMinimiseLikeTheSortBasedKernel) {
  synthetic::ReplicatedConfig config;
  config.channels = 3;
  config.stages = 12;
  const Model replicated = synthetic::build_replicated(config);
  const FaultTree lanes = Synthesiser(replicated).synthesise("Omission-sink");
  ASSERT_GT(lanes.basic_events().size(), 32u);  // a multi-word universe
  EXPECT_GT(expect_minimisation_identical(lanes, "replicated 3x12"), 0);

  const Model bbw = setta::build_bbw();
  Synthesiser synthesiser(bbw);
  for (const std::string& top : setta::bbw_top_events()) {
    const FaultTree tree = synthesiser.synthesise(top);
    EXPECT_GT(expect_minimisation_identical(tree, "bbw " + top), 0);
  }
}

TEST(KernelOracle, HouseEventsMinimiseLikeTheSortBasedKernel) {
  // normalise() folds TRUE house events: OR with TRUE is TRUE (the empty
  // cut set), AND with TRUE drops the house.
  for (bool top_is_true : {true, false}) {
    FaultTree tree("house");
    FtNode* house = tree.add_house(Symbol("h"), "");
    std::vector<FtNode*> events;
    for (int i = 0; i < 6; ++i)
      events.push_back(
          tree.add_basic(Symbol("e" + std::to_string(i)), 1e-4, "", ""));
    FtNode* lanes = tree.add_gate(
        GateKind::kAnd, "",
        {tree.add_gate(GateKind::kOr, "", {events[2], events[3]}),
         tree.add_gate(GateKind::kOr, "",
                       {events[4],
                        tree.add_gate(GateKind::kNot, "", {events[5]})})});
    FtNode* pair = tree.add_gate(GateKind::kAnd, "", {events[0], events[1]});
    tree.set_top(top_is_true
                     ? tree.add_gate(GateKind::kOr, "", {pair, lanes, house})
                     : tree.add_gate(GateKind::kAnd, "", {pair, lanes, house}));
    const std::string where = top_is_true ? "house or" : "house and";
    const int truncated = expect_minimisation_identical(tree, where);
    const CutSetAnalysis analysis = minimal_cut_sets(tree);
    if (top_is_true) {
      ASSERT_EQ(analysis.cut_sets.size(), 1u);
      EXPECT_TRUE(analysis.cut_sets.front().empty());
    } else {
      EXPECT_EQ(analysis.cut_sets.size(), 4u);
      EXPECT_GT(truncated, 0);
    }
  }
}

TEST(KernelOracle, LiteralFamiliesMinimiseLikeTheSortBasedKernel) {
  // Random families over one- to four-word universes, with duplicates,
  // contradictions (both polarities of an event), the empty set and
  // literals on word boundaries.
  std::mt19937 rng(20011105u);
  for (int universe : {6, 64, 130, 192, 256}) {
    for (int round = 0; round < 20; ++round) {
      std::uniform_int_distribution<int> literal(0, universe - 1);
      std::uniform_int_distribution<int> size(0, 6);
      std::uniform_int_distribution<int> count(1, 400);
      std::vector<std::vector<int>> sets(static_cast<std::size_t>(count(rng)));
      for (std::vector<int>& set : sets) {
        const int n = size(rng);
        for (int i = 0; i < n; ++i) set.push_back(literal(rng));
      }
      for (std::size_t i = 0; i + 1 < sets.size(); i += 7)
        sets[i + 1] = sets[i];  // duplicates, literal order kept
      if (round % 5 == 4) sets.push_back({});
      std::vector<RefSet> packed;
      const std::size_t words = (static_cast<std::size_t>(universe) + 63) / 64;
      for (const std::vector<int>& set : sets) {
        RefSet ref{std::vector<std::uint64_t>(words), 0, 0};
        for (int id : set) ref_insert(ref, id);
        packed.push_back(std::move(ref));
      }
      std::vector<std::vector<int>> expected;
      for (const RefSet& set : reference_minimise(std::move(packed))) {
        std::vector<int> ids;
        for (int id = 0; id < universe; ++id)
          if ((set.words[static_cast<std::size_t>(id) >> 6] >> (id & 63)) & 1)
            ids.push_back(id);
        expected.push_back(std::move(ids));
      }
      EXPECT_EQ(minimise_literal_sets(sets, universe), expected)
          << "universe " << universe << " round " << round;
    }
  }
}

TEST(KernelOracle, HashTagCollisionIsNotADuplicate) {
  // The dedup table keeps the high 32 bits of a row's hash beside the row
  // id, so two distinct rows can share a tag and a probe chain. Search the
  // 4-event sets over 64 events for such a pair, hashing with a copy of
  // the kernel's row hash: same tag and same low two bits, which is the
  // starting slot in the 4-slot table a two-row level gets. Both rows
  // must survive. (A change to the hash makes the pair an ordinary one.)
  const auto row_hash = [](const std::uint64_t* row) {
    std::uint64_t h = 0x9E3779B97F4A7C15ULL;
    for (std::size_t w = 0; w < 2; ++w) {
      h ^= row[w];
      h ^= h >> 30;
      h *= 0xBF58476D1CE4E5B9ULL;
      h ^= h >> 27;
      h *= 0x94D049BB133111EBULL;
      h ^= h >> 31;
    }
    return h;
  };
  std::vector<std::vector<int>> sets;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> keys;
  for (int a = 0; a < 64; ++a)
    for (int b = a + 1; b < 64; ++b)
      for (int c = b + 1; c < 64; ++c)
        for (int d = c + 1; d < 64; ++d) {
          std::uint64_t row[2] = {0, 0};
          for (int event : {a, b, c, d})
            row[event / 32] |= 1ULL << (2 * event % 64);
          const std::uint64_t hash = row_hash(row);
          keys.emplace_back((hash & ~0xFFFFFFFFULL) | (hash & 3),
                            static_cast<std::uint32_t>(sets.size()));
          sets.push_back({2 * a, 2 * b, 2 * c, 2 * d});
        }
  std::sort(keys.begin(), keys.end());
  const auto pair = std::adjacent_find(
      keys.begin(), keys.end(),
      [](const auto& x, const auto& y) { return x.first == y.first; });
  ASSERT_NE(pair, keys.end()) << "no tag collision among 4-event sets";
  std::vector<std::vector<int>> colliding = {sets[pair->second],
                                             sets[(pair + 1)->second]};
  std::vector<std::vector<int>> expected = colliding;
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(minimise_literal_sets(colliding, 128), expected);
}

}  // namespace
}  // namespace ftsynth
