#include "fta/synthesis.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/error.h"
#include "core/parallel.h"
#include "core/thread_pool.h"
#include "failure/expr_parser.h"
#include "fta/simplify.h"

namespace ftsynth {

namespace {

/// Traversal target: memoisation and cycle-detection key. A Run numbers the
/// keys it meets densely; its per-key state is indexed by that number.
struct Key {
  const Port* port;
  ChannelRange range;  // always concrete
  FailureClass cls;

  friend bool operator==(const Key& a, const Key& b) noexcept {
    return a.port == b.port && a.range == b.range && a.cls == b.cls;
  }
};

struct KeyHash {
  std::size_t operator()(const Key& k) const noexcept {
    std::size_t h = std::hash<const void*>{}(k.port);
    h = h * 1000003u ^ static_cast<std::size_t>(k.range.lo + 1);
    h = h * 1000003u ^ static_cast<std::size_t>(k.range.hi + 1);
    h = h * 1000003u ^ k.cls.hash();
    return h;
  }
};

/// A set of keys on feedback loops: bit n stands for the key with loop
/// number n. Only keys found on a loop are numbered, so the sets grow with
/// the loops, not with the model.
using LoopSet = std::vector<std::uint64_t>;

void add(LoopSet& set, std::uint32_t loop) {
  if (set.size() <= loop / 64) set.resize(loop / 64 + 1);
  set[loop / 64] |= std::uint64_t{1} << (loop % 64);
}

void drop(LoopSet& set, std::uint32_t loop) {
  if (loop / 64 < set.size())
    set[loop / 64] &= ~(std::uint64_t{1} << (loop % 64));
}

void unite(LoopSet& into, const LoopSet& from) {
  if (into.size() < from.size()) into.resize(from.size());
  for (std::size_t i = 0; i < from.size(); ++i) into[i] |= from[i];
}

bool none(const LoopSet& set) {
  return std::all_of(set.begin(), set.end(),
                     [](std::uint64_t word) { return word == 0; });
}

/// What a subtree's shape depends on besides its own key: `cut` holds the
/// enclosing open frames it was cut against (never its own key); `expanded`
/// the keys of those same feedback loops that it expanded. A key outside
/// every loop has both empty. Only keys on a common cycle with the subtree's
/// root can ever be open when that root is resolved again, so keys of other
/// loops are left out of `expanded`.
struct Context {
  LoopSet cut;
  LoopSet expanded;
};

/// One synthesise() invocation. Builds a single FaultTree.
///
/// FtNode* result semantics throughout: nullptr == the deviation cannot
/// occur (constant false); a kHouse node == constant true; anything else is
/// a proper event.
class Run {
 public:
  Run(const Model& model, const SynthesisOptions& options,
      SynthesisStats& stats, FaultTree& tree)
      : model_(model),
        options_(options),
        stats_(stats),
        tree_(tree),
        budget_(options.budget),
        omission_(model.registry().omission()) {
    // One model walk up front turns every per-port lookup into O(1); the
    // naive connection scan made synthesis quadratic on flat models.
    model_.for_each_block([&](const Block& block) {
      if (block.is_subsystem()) {
        for (const Connection& connection : block.connections())
          feed_.emplace(connection.to, &connection);
      }
      if (block.kind() == BlockKind::kDataStoreWrite)
        writers_[block.store_name()].push_back(&block);
    });
  }

  /// Entry point: resolve a deviation at a boundary output of `subsystem`
  /// (used for the model root, and internally when crossing nested
  /// subsystem boundaries).
  FtNode* resolve_subsystem_output(const Block& subsystem, const Port& port,
                                   ChannelRange range, FailureClass cls) {
    // Inner propagation: through the Outport proxy of the same name.
    const Block* proxy = subsystem.find_child(port.name());
    if (options_.sink != nullptr &&
        (proxy == nullptr || proxy->kind() != BlockKind::kOutport ||
         proxy->inputs().size() != 1)) {
      // Partial model (recovered parse): the proxy is missing or mangled.
      return degraded(Deviation{cls, port.name()}, subsystem.path(),
                      "missing Outport proxy for " + port.qualified_name());
    }
    check_internal(proxy != nullptr && proxy->kind() == BlockKind::kOutport,
                   "missing Outport proxy for " + port.qualified_name());
    std::vector<Port*> proxy_inputs = proxy->inputs();
    check_internal(proxy_inputs.size() == 1, "malformed Outport proxy");
    FtNode* inner = resolve_input(*proxy_inputs.front(), range, cls);

    // Enclosing-level (hardware / environment) common cause: Figure 3.
    FtNode* common = nullptr;
    if (options_.subsystem_common_cause) {
      bool any_row = false;
      common = convert_rows(subsystem, Deviation{cls, port.name()}, any_row);
    }
    return make_or({inner, common},
                   describe(cls, port.name(), subsystem.path()));
  }

 private:
  // -- Gate construction (nullptr = false, kHouse = true) ---------------------

  static bool is_house(const FtNode* node) noexcept {
    return node != nullptr && node->kind() == NodeKind::kHouse;
  }

  FtNode* house() {
    return tree_.add_house(Symbol("always"), "condition fixed true");
  }

  FtNode* make_or(std::vector<FtNode*> children, std::string description) {
    std::vector<FtNode*> kept;
    for (FtNode* child : children) {
      if (child == nullptr) continue;
      if (is_house(child)) return child;
      if (std::find(kept.begin(), kept.end(), child) == kept.end())
        kept.push_back(child);
    }
    if (kept.empty()) return nullptr;
    if (kept.size() == 1) return kept.front();
    return tree_.add_gate(GateKind::kOr, std::move(description),
                          std::move(kept));
  }

  FtNode* make_and(std::vector<FtNode*> children, std::string description) {
    std::vector<FtNode*> kept;
    for (FtNode* child : children) {
      if (child == nullptr) return nullptr;
      if (is_house(child)) continue;
      if (std::find(kept.begin(), kept.end(), child) == kept.end())
        kept.push_back(child);
    }
    if (kept.empty()) return house();
    if (kept.size() == 1) return kept.front();
    return tree_.add_gate(GateKind::kAnd, std::move(description),
                          std::move(kept));
  }

  FtNode* make_not(FtNode* child, std::string description) {
    if (child == nullptr) return house();
    if (is_house(child)) return nullptr;
    return tree_.add_gate(GateKind::kNot, std::move(description), {child});
  }

  static std::string describe(FailureClass cls, Symbol port,
                              const std::string& where) {
    return Deviation{cls, port}.to_string() + " at " + where;
  }

  // -- Degraded mode and resource budget ---------------------------------------

  /// Degraded-mode cut: records a warning diagnostic and stands in an
  /// explicitly-marked undeveloped event for the unresolvable deviation.
  /// Only called when options_.sink is set.
  FtNode* degraded(const Deviation& deviation, const std::string& where,
                   const std::string& why) {
    ++stats_.degraded;
    options_.sink->warning(ErrorKind::kAnalysis,
                           deviation.to_string() + " left undeveloped: " + why,
                           {}, where);
    return tree_.add_undeveloped(
        Symbol("und:" + deviation.to_string() + "@" + where),
        deviation.to_string() + " at " + where + " left undeveloped (" + why +
            ")",
        where);
  }

  /// Budget cut: the traversal hit a resource limit. The cut point becomes
  /// a distinct "und:budget:" undeveloped leaf so truncated regions are
  /// visible in the tree; the (first) violation is reported once.
  FtNode* budget_cut(const Port& port, FailureClass cls, const char* why,
                     bool& flag) {
    if (!flag) {
      flag = true;
      if (options_.sink != nullptr) {
        options_.sink->warning(
            ErrorKind::kAnalysis,
            std::string("synthesis ") + why +
                "; the fault tree is truncated at marked undeveloped events",
            {}, port.owner().path());
      }
    }
    const Deviation d{cls, port.name()};
    return tree_.add_undeveloped(
        Symbol("und:budget:" + d.to_string() + "@" + port.owner().path()),
        d.to_string() + " truncated at " + port.owner().path() + " (" + why +
            ")",
        port.owner().path());
  }

  // -- Expression conversion ---------------------------------------------------

  /// Converts a local failure expression of `block` into fault tree nodes:
  /// malfunctions become basic events, input deviations recurse upstream.
  FtNode* convert(const Expr& expr, const Block& block) {
    switch (expr.op()) {
      case ExprOp::kFalse:
        return nullptr;
      case ExprOp::kTrue:
        return house();
      case ExprOp::kMalfunction: {
        Symbol name = expr.malfunction();
        double rate = 0.0;
        std::string description;
        if (auto malfunction = block.annotation().find_malfunction(name)) {
          rate = malfunction->rate;
          description = malfunction->description;
        }
        if (description.empty())
          description = "malfunction of " + block.path();
        return tree_.add_basic(Symbol(block.path() + "." + name.str()), rate,
                               std::move(description), block.path());
      }
      case ExprOp::kDeviation: {
        const Deviation& d = expr.deviation();
        const Port* port = block.find_port(d.port);
        if (port == nullptr || !port->is_input()) {
          const std::string why =
              port == nullptr
                  ? "cause expression references unknown port '" +
                        d.port.str() + "'"
                  : "cause expression references non-input deviation " +
                        d.to_string();
          if (options_.sink != nullptr) return degraded(d, block.path(), why);
          require(port != nullptr, ErrorKind::kLookup,
                  "block '" + block.path() + "' has no port '" +
                      d.port.str() + "'");
          throw Error(ErrorKind::kAnalysis, "cause expression of '" +
                                                block.path() +
                                                "' references non-input "
                                                "deviation " +
                                                d.to_string());
        }
        return resolve_input(*port, ChannelRange::whole(), d.failure_class);
      }
      case ExprOp::kNot:
        return make_not(convert(*expr.children().front(), block),
                        "NOT at " + block.path());
      case ExprOp::kAtLeast: {
        // Expand the k-of-N vote into the OR of all k-subsets; every
        // downstream engine then works unchanged. N is the handful of
        // redundant channels a voter sees, so C(N, k) stays small.
        std::vector<FtNode*> resolved;
        resolved.reserve(expr.children().size());
        for (const ExprPtr& child : expr.children())
          resolved.push_back(convert(*child, block));
        const int n = static_cast<int>(resolved.size());
        const int k = expr.threshold();
        std::vector<FtNode*> alternatives;
        std::vector<int> pick;
        auto choose = [&](auto&& self, int start) -> void {
          if (static_cast<int>(pick.size()) == k) {
            std::vector<FtNode*> conjuncts;
            for (int index : pick) {
              conjuncts.push_back(resolved[static_cast<std::size_t>(index)]);
            }
            alternatives.push_back(
                make_and(std::move(conjuncts),
                         std::to_string(k) + "-of-" + std::to_string(n) +
                             " at " + block.path()));
            return;
          }
          for (int i = start; i <= n - (k - static_cast<int>(pick.size()));
               ++i) {
            pick.push_back(i);
            self(self, i + 1);
            pick.pop_back();
          }
        };
        choose(choose, 0);
        return make_or(std::move(alternatives),
                       "vote causes at " + block.path());
      }
      case ExprOp::kAnd:
      case ExprOp::kOr: {
        std::vector<FtNode*> children;
        children.reserve(expr.children().size());
        for (const ExprPtr& child : expr.children())
          children.push_back(convert(*child, block));
        std::string description = "causes at " + block.path();
        return expr.op() == ExprOp::kAnd
                   ? make_and(std::move(children), std::move(description))
                   : make_or(std::move(children), std::move(description));
      }
    }
    throw Error(ErrorKind::kInternal, "corrupt ExprOp in synthesis");
  }

  /// Converts every annotation row of `block` explaining `deviation`,
  /// OR-ing the rows together. Data-dependent rows (condition probability
  /// below 1, the paper's stuck-register discussion) are AND-ed with a
  /// fixed-probability condition event. Returns nullptr with any_row=false
  /// when no row matches.
  FtNode* convert_rows(const Block& block, const Deviation& deviation,
                       bool& any_row) {
    any_row = false;
    std::vector<FtNode*> alternatives;
    const std::vector<AnnotationRow>& rows = block.annotation().rows();
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const AnnotationRow& row = rows[i];
      if (!(row.output == deviation)) continue;
      any_row = true;
      FtNode* node = convert(*row.cause, block);
      if (row.condition_probability < 1.0) {
        FtNode* condition = tree_.add_basic(
            Symbol(condition_event_name(block, deviation, i)), 0.0,
            row.description.empty()
                ? "data condition enabling " + deviation.to_string()
                : row.description,
            block.path());
        condition->set_fixed_probability(row.condition_probability);
        node = make_and({node, condition},
                        describe(deviation.failure_class, deviation.port,
                                 block.path()) +
                            " [data-dependent]");
      }
      alternatives.push_back(node);
    }
    if (!any_row) return nullptr;
    return make_or(std::move(alternatives),
                   describe(deviation.failure_class, deviation.port,
                            block.path()));
  }

  // -- Backward traversal ------------------------------------------------------

  /// Resolves a deviation to be observed at input port `port`: follows the
  /// connection feeding it (or reports an environment event at the model
  /// boundary).
  FtNode* resolve_input(const Port& port, ChannelRange range,
                        FailureClass cls) {
    const Block& owner = port.owner();
    const Block* parent = owner.parent();
    if (parent == nullptr) {
      // Boundary input of the model root: the deviation originates in the
      // environment (sensor stimulus, pedal demand, ...).
      if (options_.environment ==
          SynthesisOptions::EnvironmentPolicy::kPrune)
        return nullptr;
      Deviation d{cls, port.name()};
      return tree_.add_basic(Symbol("env:" + d.to_string()), 0.0,
                             d.to_string() + " at the system boundary",
                             owner.path());
    }
    auto it = feed_.find(&port);
    const Connection* connection = it == feed_.end() ? nullptr : it->second;
    if (connection == nullptr) {
      // Validation normally rejects this; keep the synthesis total anyway.
      Deviation d{cls, port.name()};
      return tree_.add_undeveloped(
          Symbol("und:" + d.to_string() + "@" + owner.path()),
          d.to_string() + " on unconnected input", owner.path());
    }
    return resolve_output(*connection->from, range, cls);
  }

  /// Resolves a deviation at output port `port` against the block producing
  /// it. Memoised; cycles are cut here.
  ///
  /// A result is reused only where a fresh traversal would make the same
  /// cut-or-expand decision at every key of its subtree: each frame it was
  /// cut against is open again and none of the loop keys it expanded is.
  /// Results computed inside feedback loops are thus shared like any other,
  /// and after deduplicate() the tree equals the memo-free one.
  FtNode* resolve_output(const Port& port, ChannelRange range,
                         FailureClass cls) {
    // Resource guards: a deadline or depth violation cuts the traversal
    // with a marked undeveloped leaf instead of running away (or blowing
    // the stack). Cut results are never memoised -- they bypass the memo
    // entirely.
    if (budget_.poll()) {
      return budget_cut(port, cls, "exceeded its deadline",
                        stats_.budget.deadline_exceeded);
    }
    if (frames_.size() >= budget_.max_depth) {
      return budget_cut(port, cls, "hit the traversal depth limit",
                        stats_.budget.depth_limited);
    }
    if (budget_.max_nodes != 0 && tree_.nodes().size() >= budget_.max_nodes) {
      return budget_cut(port, cls, "hit the fault-tree node ceiling",
                        stats_.budget.truncated);
    }

    Key key{&port, range.concrete(port.width()), cls};
    ++stats_.resolutions;
    const std::uint32_t id = intern(key);

    if (keys_[id].open) {
      // Feedback loop: cut at the repeated target.
      ++stats_.loops_cut;
      add(frames_.back().cut, loop_number(id));
      if (options_.loops == SynthesisOptions::LoopPolicy::kPrune)
        return nullptr;
      Deviation d{cls, port.name()};
      return tree_.add_loop(
          Symbol("loop:" + d.to_string() + "@" + port.owner().path()),
          d.to_string() + " feeds back to itself through a control loop",
          port.owner().path());
    }
    if (options_.memoise) {
      for (const Entry& entry : keys_[id].entries) {
        if (!reusable(entry.context)) continue;
        ++stats_.cache_hits;
        fold_into_frame(id, entry.context);
        return entry.node;
      }
    }

    frames_.emplace_back();
    set_open(id, true);
    FtNode* result = resolve_output_uncached(port, key.range, cls);
    set_open(id, false);
    Context context = std::move(frames_.back());
    frames_.pop_back();

    if (keys_[id].loop != kNoLoop) drop(context.cut, keys_[id].loop);
    fold_into_frame(id, context);
    if (result != nullptr && result->kind() == NodeKind::kGate) {
      const auto node_id = static_cast<std::size_t>(result->id());
      if (published_.size() <= node_id) published_.resize(node_id + 1);
      published_[node_id] = true;
    }
    if (options_.memoise)
      keys_[id].entries.push_back(Entry{result, std::move(context)});
    return result;
  }

  std::uint32_t intern(const Key& key) {
    auto [it, inserted] =
        ids_.emplace(key, static_cast<std::uint32_t>(keys_.size()));
    if (inserted) keys_.emplace_back();
    return it->second;
  }

  /// Key `id`'s loop number, assigned when the key is first found on a
  /// feedback loop.
  std::uint32_t loop_number(std::uint32_t id) {
    KeyState& state = keys_[id];
    if (state.loop == kNoLoop) {
      state.loop = next_loop_++;
      if (state.open) add(open_loops_, state.loop);
    }
    return state.loop;
  }

  void set_open(std::uint32_t id, bool open) {
    KeyState& state = keys_[id];
    state.open = open;
    if (state.loop == kNoLoop) return;
    if (open) {
      add(open_loops_, state.loop);
    } else {
      drop(open_loops_, state.loop);
    }
  }

  /// Folds a resolution of key `id` into the enclosing frame's context. A
  /// resolution cut against no enclosing frame closes its loops itself, so
  /// nothing in it can be open when the enclosing frame is resolved again.
  void fold_into_frame(std::uint32_t id, const Context& context) {
    if (frames_.empty() || none(context.cut)) return;
    Context& frame = frames_.back();
    unite(frame.cut, context.cut);
    unite(frame.expanded, context.expanded);
    add(frame.expanded, loop_number(id));
  }

  bool reusable(const Context& context) const {
    auto open = [&](std::size_t word) {
      return word < open_loops_.size() ? open_loops_[word] : 0;
    };
    for (std::size_t word = 0; word < context.cut.size(); ++word) {
      if ((context.cut[word] & ~open(word)) != 0) return false;
    }
    for (std::size_t word = 0; word < context.expanded.size(); ++word) {
      if ((context.expanded[word] & open(word)) != 0) return false;
    }
    return true;
  }

  /// True for a gate some resolve_output() returned: the memo may share it,
  /// so it must not be changed in place.
  bool published(const FtNode* node) const {
    const auto node_id = static_cast<std::size_t>(node->id());
    return node_id < published_.size() && published_[node_id];
  }

  FtNode* resolve_output_uncached(const Port& port, ChannelRange range,
                                  FailureClass cls) {
    const Block& block = port.owner();
    switch (block.kind()) {
      case BlockKind::kBasic:
        return resolve_basic(block, port, cls);
      case BlockKind::kSubsystem:
        return resolve_subsystem_output(block, port, range, cls);
      case BlockKind::kInport: {
        // Proxy inside a subsystem: continue from the subsystem's own
        // boundary input port of the same name (connected in the
        // grandparent, or the environment at the root).
        const Block* subsystem = block.parent();
        check_internal(subsystem != nullptr, "Inport proxy without parent");
        return resolve_input(subsystem->port(block.name()), range, cls);
      }
      case BlockKind::kMux:
        return resolve_mux(block, port, range, cls);
      case BlockKind::kDemux:
        return resolve_demux(block, port, range, cls);
      case BlockKind::kDataStoreRead:
        return resolve_store_read(block, cls);
      case BlockKind::kGround:
        return nullptr;  // a grounded flow never deviates
      case BlockKind::kOutport:
      case BlockKind::kDataStoreWrite:
        break;  // have no output ports; unreachable on valid models
    }
    throw Error(ErrorKind::kInternal,
                "resolve_output on block kind without outputs: " +
                    block.path());
  }

  FtNode* resolve_basic(const Block& block, const Port& port,
                        FailureClass cls) {
    const Deviation deviation{cls, port.name()};
    bool explained = false;
    FtNode* node = convert_rows(block, deviation, explained);

    // Gates that convert_rows() built from this block's own rows are ours to
    // relabel and extend in place. A gate a nested resolution returned (a
    // subsystem's common-cause OR, say) may be shared through the memo.
    const bool owned = node != nullptr && node->kind() == NodeKind::kGate &&
                       !published(node);
    const bool owned_or_gate =
        owned && node->gate() == GateKind::kOr &&
        (node->description().rfind("causes at", 0) == 0 ||
         node->description() == describe(cls, port.name(), block.path()));

    // Triggered blocks: loss of the control signal silences every output.
    if (options_.trigger_omission && cls == omission_) {
      if (const Port* trigger = block.trigger()) {
        FtNode* trigger_loss =
            resolve_input(*trigger, ChannelRange::whole(), omission_);
        if (owned_or_gate && trigger_loss != nullptr &&
            !is_house(trigger_loss)) {
          node->add_child(trigger_loss);
        } else {
          node = make_or({node, trigger_loss},
                         describe(cls, port.name(), block.path()));
        }
        explained = true;
      }
    }
    if (explained) {
      if (owned && node->description().rfind("causes at", 0) == 0) {
        node->set_description(describe(cls, port.name(), block.path()));
      }
      return node;
    }

    // No annotation row explains this deviation.
    switch (options_.unannotated) {
      case SynthesisOptions::UnannotatedPolicy::kPrune:
        return nullptr;
      case SynthesisOptions::UnannotatedPolicy::kError:
        if (options_.sink != nullptr) {
          return degraded(deviation, block.path(),
                          "no hazard-analysis row covers it");
        }
        throw Error(ErrorKind::kAnalysis,
                    "component '" + block.path() +
                        "' has no hazard-analysis row for " +
                        deviation.to_string());
      case SynthesisOptions::UnannotatedPolicy::kPropagate: {
        std::vector<FtNode*> children;
        for (const Port* input : block.inputs()) {
          if (input->is_trigger()) continue;
          children.push_back(
              resolve_input(*input, ChannelRange::whole(), cls));
        }
        if (children.empty()) break;  // a source block: fall through
        return make_or(std::move(children),
                       describe(cls, port.name(), block.path()));
      }
      case SynthesisOptions::UnannotatedPolicy::kUndeveloped:
        break;
    }
    return tree_.add_undeveloped(
        Symbol("und:" + deviation.to_string() + "@" + block.path()),
        deviation.to_string() + " not covered by the hazard analysis of " +
            block.path(),
        block.path());
  }

  FtNode* resolve_mux(const Block& block, const Port& port, ChannelRange range,
                      FailureClass cls) {
    // A deviation on a slice of the muxed flow is a deviation on any
    // overlapped constituent flow.
    const ChannelRange r = range.concrete(port.width());
    std::vector<FtNode*> children;
    int offset = 0;
    for (const Port* input : block.inputs()) {
      const int lo = std::max(r.lo, offset);
      const int hi = std::min(r.hi, offset + input->width());
      if (lo < hi) {
        children.push_back(resolve_input(
            *input, ChannelRange::slice(lo - offset, hi - offset), cls));
      }
      offset += input->width();
    }
    return make_or(std::move(children),
                   describe(cls, port.name(), block.path()) + " [channels " +
                       r.to_string() + "]");
  }

  FtNode* resolve_demux(const Block& block, const Port& port,
                        ChannelRange range, FailureClass cls) {
    const ChannelRange r = range.concrete(port.width());
    int offset = 0;
    for (const Port* output : block.outputs()) {
      if (output == &port) break;
      offset += output->width();
    }
    std::vector<Port*> inputs = block.inputs();
    if (options_.sink != nullptr && inputs.size() != 1) {
      // Partial model: the demux lost its input port during recovery.
      return degraded(Deviation{cls, port.name()}, block.path(),
                      "malformed Demux (expected exactly one input)");
    }
    check_internal(inputs.size() == 1, "malformed demux");
    return resolve_input(*inputs.front(),
                         ChannelRange::slice(offset + r.lo, offset + r.hi),
                         cls);
  }

  FtNode* resolve_store_read(const Block& block, FailureClass cls) {
    // Data-Store read/write pairs communicate remotely without explicit
    // links (paper, section 3): trace every writer of the store.
    static const std::vector<const Block*> kNone;
    auto it = writers_.find(block.store_name());
    const std::vector<const Block*>& writers =
        it == writers_.end() ? kNone : it->second;
    if (writers.empty()) {
      Deviation d{cls, Symbol("out")};
      return tree_.add_undeveloped(
          Symbol("und:store:" + block.store_name().str() + ":" +
                 d.to_string()),
          "store '" + block.store_name().str() + "' read by " + block.path() +
              " is never written",
          block.path());
    }
    std::vector<FtNode*> children;
    for (const Block* writer : writers) {
      std::vector<Port*> inputs = writer->inputs();
      if (options_.sink != nullptr && inputs.size() != 1) {
        children.push_back(degraded(Deviation{cls, Symbol("in")},
                                    writer->path(),
                                    "malformed DataStoreWrite"));
        continue;
      }
      check_internal(inputs.size() == 1, "malformed DataStoreWrite");
      children.push_back(
          resolve_input(*inputs.front(), ChannelRange::whole(), cls));
    }
    return make_or(std::move(children),
                   std::string(cls.view()) + " of data store '" +
                       block.store_name().str() + "'");
  }

  const Model& model_;
  const SynthesisOptions& options_;
  SynthesisStats& stats_;
  FaultTree& tree_;
  Budget budget_;  ///< run-local copy: the deadline tick is per-traversal
  FailureClass omission_;

  struct Entry {
    FtNode* node;
    Context context;
  };
  static constexpr std::uint32_t kNoLoop = UINT32_MAX;
  struct KeyState {
    bool open = false;             ///< on the traversal stack
    std::uint32_t loop = kNoLoop;  ///< see loop_number()
    std::vector<Entry> entries;    ///< memoised results, one per context
  };

  std::unordered_map<Key, std::uint32_t, KeyHash> ids_;
  std::vector<KeyState> keys_;  ///< by key id
  std::uint32_t next_loop_ = 0;
  LoopSet open_loops_;  ///< the open keys that have a loop number
  /// The traversal stack: per open frame, the context its subtree has
  /// accumulated so far.
  std::vector<Context> frames_;
  std::vector<bool> published_;  ///< by node id; see published()
  std::unordered_map<const Port*, const Connection*> feed_;
  std::unordered_map<Symbol, std::vector<const Block*>> writers_;
};

}  // namespace

std::string condition_event_name(const Block& block,
                                 const Deviation& deviation,
                                 std::size_t row_index) {
  return "cond:" + deviation.to_string() + "@" + block.path() + "#" +
         std::to_string(row_index);
}

Synthesiser::Synthesiser(const Model& model, SynthesisOptions options)
    : model_(model), options_(options) {}

FaultTree Synthesiser::synthesise(const Deviation& top) {
  const Block& root = model_.root();
  const Port* port = root.find_port(top.port);
  require(port != nullptr && port->is_output(), ErrorKind::kLookup,
          "model '" + model_.name() + "' has no boundary output port '" +
              top.port.str() + "' for top event " + top.to_string());

  stats_ = SynthesisStats{};
  FaultTree tree(model_.name() + "__" + top.to_string());
  tree.set_top_description(top.to_string() + " at " + model_.name());

  Run run(model_, options_, stats_, tree);
  FtNode* node = run.resolve_subsystem_output(root, *port,
                                              ChannelRange::whole(),
                                              top.failure_class);
  tree.set_top(node);
  if (options_.deduplicate) return deduplicate(tree);
  return tree;
}

FaultTree Synthesiser::synthesise(std::string_view top) {
  return synthesise(parse_deviation(top, model_.registry()));
}

std::vector<FaultTree> synthesise_parallel(const Model& model,
                                           const std::vector<Deviation>& tops,
                                           const SynthesisOptions& options,
                                           ThreadPool* pool) {
  // Per-iteration synthesiser: traversal state and stats are not shared;
  // the model is read-only and the budget copies share one deadline latch.
  return parallel_map(pool, tops.size(), [&](std::size_t index) {
    Synthesiser synthesiser(model, options);
    return synthesiser.synthesise(tops[index]);
  });
}

std::vector<FaultTree> synthesise_parallel(const Model& model,
                                           const std::vector<Deviation>& tops,
                                           SynthesisOptions options,
                                           int threads) {
  if (threads <= 0) threads = static_cast<int>(ThreadPool::hardware_threads());
  threads = std::min<int>(threads, static_cast<int>(tops.size()));
  if (threads <= 1) return synthesise_parallel(model, tops, options, nullptr);
  ThreadPool pool(threads);
  return synthesise_parallel(model, tops, options, &pool);
}

std::vector<FaultTree> Synthesiser::synthesise_all() {
  std::vector<FaultTree> trees;
  for (const Port* port : model_.root().outputs()) {
    for (FailureClass cls : model_.registry().all()) {
      FaultTree tree = synthesise(Deviation{cls, port->name()});
      if (tree.top() != nullptr) trees.push_back(std::move(tree));
    }
  }
  return trees;
}

}  // namespace ftsynth
