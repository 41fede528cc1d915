#include "bdd/bdd_prob.h"

#include <algorithm>
#include <vector>

#include "core/error.h"

namespace ftsynth {

double bdd_probability(const Bdd& bdd, Bdd::Ref f,
                       const std::vector<double>& probabilities) {
  BddProbabilityEngine engine(bdd, probabilities);
  return engine.probability(f);
}

double bdd_birnbaum(const Bdd& bdd, Bdd::Ref f,
                    const std::vector<double>& probabilities, int v) {
  BddProbabilityEngine engine(bdd, probabilities);
  return engine.birnbaum(f, v);
}

double bdd_probability_given(const Bdd& bdd, Bdd::Ref f,
                             const std::vector<double>& probabilities, int v,
                             bool value) {
  BddProbabilityEngine engine(bdd, probabilities);
  return engine.probability_given(f, v, value);
}

BddProbabilityEngine::BddProbabilityEngine(const Bdd& bdd,
                                           std::vector<double> probabilities)
    : bdd_(bdd), probabilities_(std::move(probabilities)) {}

void BddProbabilityEngine::index(Bdd::Ref f) {
  if (f == root_) return;
  root_ = f;
  // Reachable internal nodes in postorder (low subgraph first). Iterative
  // so adversarially deep diagrams cannot overflow the stack; the visit
  // order depends only on the diagram's structure, never on Ref numbering,
  // which keeps the Birnbaum sweep's summation order deterministic across
  // runs and cache states. dense_ holds postorder position + 2 while the
  // walk runs (0 = unvisited).
  constexpr std::uint32_t kUnvisited = 0;
  dense_.assign(bdd_.size(), kUnvisited);
  std::vector<Bdd::Ref> order;
  struct Frame {
    Bdd::Ref ref;
    int stage;  // 0 = visit low, 1 = visit high, 2 = emit
  };
  std::vector<Frame> stack;
  stack.push_back({f, 0});
  while (!stack.empty()) {
    Frame& frame = stack.back();
    if (frame.stage == 2) {
      if (dense_[frame.ref] == kUnvisited) {
        dense_[frame.ref] = static_cast<std::uint32_t>(order.size() + 2);
        order.push_back(frame.ref);
      }
      stack.pop_back();
      continue;
    }
    const Bdd::Node& n = bdd_.node(frame.ref);
    const Bdd::Ref child = frame.stage == 0 ? n.low : n.high;
    ++frame.stage;
    // Defer duplicates to the emit stage (a child pushed twice before its
    // first emit collapses there).
    if (!bdd_.is_terminal(child) && dense_[child] == kUnvisited)
      stack.push_back({child, 0});
  }

  // Dense ids: deepest level first (stable in postorder), so every child
  // gets a smaller id than its parents and the nodes at or above any level
  // form one suffix of the id range.
  // (A counting sort: levels are small integers.)
  std::vector<int> levels(order.size());
  std::vector<std::uint32_t> slot(static_cast<std::size_t>(bdd_.var_count()) + 1,
                                  0);
  for (std::size_t i = 0; i < order.size(); ++i) {
    const int var = bdd_.node(order[i]).var;
    check_internal(static_cast<std::size_t>(var) < probabilities_.size(),
                   "probability vector too short for BDD");
    levels[i] = bdd_.level_of(var);
    ++slot[static_cast<std::size_t>(levels[i])];
  }
  std::uint32_t next = 0;
  for (std::size_t level = slot.size(); level-- > 0;) {
    const std::uint32_t count = slot[level];
    slot[level] = next;
    next += count;
  }
  std::vector<std::uint32_t> by_level(order.size());
  for (std::size_t i = 0; i < order.size(); ++i)
    by_level[slot[static_cast<std::size_t>(levels[i])]++] =
        static_cast<std::uint32_t>(i);
  for (std::size_t id = 0; id < by_level.size(); ++id)
    dense_[order[by_level[id]]] = static_cast<std::uint32_t>(id + 2);

  const std::size_t count = order.size() + 2;
  nodes_.assign(count, Node{0, 0, 0, 0});
  value_.assign(count, 0.0);
  value_[Bdd::kTrue] = 1.0;
  for (std::size_t id = 2; id < count; ++id) {
    const std::uint32_t position = by_level[id - 2];
    const Bdd::Node& n = bdd_.node(order[position]);
    Node& node = nodes_[id];
    node.var = n.var;
    node.level = levels[position];
    node.low = id_of(n.low);
    node.high = id_of(n.high);
    const double p = probabilities_[static_cast<std::size_t>(n.var)];
    value_[id] = p * value_[node.high] + (1.0 - p) * value_[node.low];
  }
  postorder_.resize(order.size());
  for (std::size_t i = 0; i < order.size(); ++i)
    postorder_[i] = dense_[order[i]];
  scratch_.assign(count, 0.0);
}

double BddProbabilityEngine::probability(Bdd::Ref f) {
  if (bdd_.is_terminal(f)) return bdd_.is_true(f) ? 1.0 : 0.0;
  index(f);
  return value_[id_of(f)];
}

double BddProbabilityEngine::probability_given(Bdd::Ref f, int v,
                                               bool value) {
  if (bdd_.is_terminal(f)) return bdd_.is_true(f) ? 1.0 : 0.0;
  index(f);
  const int level = bdd_.level_of(v);
  // First id at or above v's level; everything below keeps P[node].
  const auto first = std::partition_point(
      nodes_.begin() + 2, nodes_.end(),
      [&](const Node& node) { return node.level > level; });
  const std::uint32_t start =
      static_cast<std::uint32_t>(first - nodes_.begin());
  auto given = [&](std::uint32_t id) {
    return id >= start ? scratch_[id] : value_[id];
  };
  for (std::uint32_t id = start; id < nodes_.size(); ++id) {
    const Node& node = nodes_[id];
    if (node.var == v) {
      // Only the forced branch contributes, without v's factor.
      scratch_[id] = value_[value ? node.high : node.low];
      continue;
    }
    const double p = probabilities_[static_cast<std::size_t>(node.var)];
    scratch_[id] = p * given(node.high) + (1.0 - p) * given(node.low);
  }
  return given(id_of(f));
}

double BddProbabilityEngine::birnbaum(Bdd::Ref f, int v) {
  return probability_given(f, v, true) - probability_given(f, v, false);
}

std::vector<double> BddProbabilityEngine::birnbaum_all(Bdd::Ref f) {
  std::vector<double> result(probabilities_.size(), 0.0);
  if (bdd_.is_terminal(f)) return result;
  index(f);

  // Downward sweep in reverse postorder (a topological order: every
  // parent precedes both children), accumulating the probability that a
  // root-to-terminal walk reaches each node. Terminal slots absorb
  // contributions nobody reads.
  std::vector<double> reach(nodes_.size(), 0.0);
  reach[id_of(f)] = 1.0;
  for (std::size_t i = postorder_.size(); i-- > 0;) {
    const std::uint32_t id = postorder_[i];
    const Node& node = nodes_[id];
    const double p = probabilities_[static_cast<std::size_t>(node.var)];
    const double r = reach[id];
    reach[node.low] += (1.0 - p) * r;
    reach[node.high] += p * r;
    // Variables skipped between this node and its children marginalise to
    // a factor of 1, so level skipping needs no correction term.
    result[static_cast<std::size_t>(node.var)] +=
        r * (value_[node.high] - value_[node.low]);
  }
  return result;
}

}  // namespace ftsynth
