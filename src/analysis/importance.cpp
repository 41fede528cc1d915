#include "analysis/importance.h"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "bdd/bdd_prob.h"
#include "bdd/zbdd_prob.h"
#include "core/strings.h"
#include "core/text_table.h"

namespace ftsynth {

namespace {

/// var_count sweeps return doubles (families can exceed 2^53 sets);
/// saturate instead of overflowing the size_t counters.
std::size_t count_from_double(double count) noexcept {
  if (count >= 1.8e19) return static_cast<std::size_t>(-1);
  return count <= 0.0 ? 0 : static_cast<std::size_t>(count + 0.5);
}

/// Combines the two polarities' smallest orders (0 = event absent).
std::size_t min_nonzero(std::size_t a, std::size_t b) noexcept {
  if (a == 0) return b;
  if (b == 0) return a;
  return std::min(a, b);
}

/// Rare-event ingredients for one basic event's Birnbaum/RAW/RRW when the
/// exact BDD stage is unavailable (bound-engine runs): total family mass
/// of sets mentioning the event, and the mass of those sets with the
/// mentioning literal forced true, per polarity.
struct RareEventMasses {
  bool seen = false;  ///< some set mentions the event
  double with_literal = 0.0;
  double pos_without = 0.0;
  double neg_without = 0.0;
};

/// Basic event -> position in the entry table, by node id (dense per
/// tree). Leaves that are not basic events of the tree -- undeveloped and
/// loop leaves, or another tree's node on the same id -- are absent.
class EntryIndex {
 public:
  explicit EntryIndex(const std::vector<ImportanceEntry>& entries)
      : entries_(entries) {
    for (std::size_t i = 0; i < entries.size(); ++i) {
      const std::size_t id = static_cast<std::size_t>(entries[i].event->id());
      if (id >= slots_.size()) slots_.resize(id + 1, kAbsent);
      slots_[id] = static_cast<std::uint32_t>(i);
    }
  }

  /// Position of `event`'s entry, or kAbsent.
  std::uint32_t find(const FtNode* event) const noexcept {
    const std::size_t id = static_cast<std::size_t>(event->id());
    if (id >= slots_.size()) return kAbsent;
    const std::uint32_t slot = slots_[id];
    if (slot == kAbsent || entries_[slot].event != event) return kAbsent;
    return slot;
  }

  static constexpr std::uint32_t kAbsent = static_cast<std::uint32_t>(-1);

 private:
  const std::vector<ImportanceEntry>& entries_;
  std::vector<std::uint32_t> slots_;
};

}  // namespace

ReliabilitySummary analyse_reliability(const FaultTree& tree,
                                       const CutSetAnalysis& analysis,
                                       const ProbabilityOptions& options,
                                       ProbMode mode) {
  ReliabilitySummary out;
  std::vector<ImportanceEntry> entries;
  for (const FtNode* event : tree.basic_events())
    entries.push_back(ImportanceEntry{event, 0.0, 0.0, 0.0, 0.0, 0, 0});
  const EntryIndex index(entries);

  // Bound-engine runs target trees where whole-tree BDD encoding is off
  // the table (that is why the caller chose the engine), so the exact
  // block below must not run: encode_bdd has no budget and would blow up
  // precisely on those inputs. Birnbaum/RAW/RRW instead come from
  // rare-event conditionals over the emitted family.
  const bool bound_run = analysis.p_lower.has_value();
  std::vector<RareEventMasses> rare_masses(bound_run ? entries.size() : 0);

  // The diagram regime: requested, an exact diagram is present, AND
  // extraction was cut short. On clean runs both modes evaluate the
  // extracted family with the same kernels, so the rendered output is
  // byte-identical across modes; once extraction truncates, the family
  // numbers are partial while the diagram's are exact -- the whole point
  // of keeping the diagram.
  const CutSetDiagram* diagram = analysis.diagram.get();
  bool use_diagram = mode != ProbMode::kCutSets && diagram != nullptr &&
                     diagram->exact &&
                     (analysis.truncated || analysis.deadline_exceeded);
  ZbddMeasures measures;
  if (use_diagram) {
    // ZBDD variable 2r is the plain polarity of events[r], 2r + 1 the
    // negated one with probability 1 - q -- the same convention
    // cut_set_probability applies per literal.
    std::vector<double> var_probs(2 * diagram->events.size(), 0.0);
    for (std::size_t r = 0; r < diagram->events.size(); ++r) {
      const FtNode* event = diagram->events[r];
      if (event == nullptr) continue;  // variable absent from the diagram
      const double q = event_probability(*event, options);
      var_probs[2 * r] = q;
      var_probs[2 * r + 1] = 1.0 - q;
    }
    measures = zbdd_measures(diagram->zbdd, diagram->root, var_probs,
                             options.budget);
    // A deadline mid-sweep degrades to the family numbers: partial sweep
    // results are unusable, while the (equally partial) family numbers
    // preserve the classic deadline behaviour.
    if (!measures.complete) use_diagram = false;
  }

  if (use_diagram) {
    out.diagram_native = true;
    out.p_rare_event = measures.total_mass;
    out.p_esary_proschan = measures.esary_proschan;
    out.p_mcub = measures.mcub;
    for (std::size_t r = 0; r < diagram->events.size(); ++r) {
      const FtNode* event = diagram->events[r];
      if (event == nullptr) continue;
      const std::uint32_t slot = index.find(event);
      if (slot == EntryIndex::kAbsent) continue;  // undeveloped / loop leaves
      ImportanceEntry& entry = entries[slot];
      // Both polarities attribute to the event, exactly like the family
      // loop below (a set holding NOT x still counts against x).
      const double mass =
          measures.var_mass[2 * r] + measures.var_mass[2 * r + 1];
      if (out.p_rare_event > 0.0)
        entry.fussell_vesely = mass / out.p_rare_event;
      entry.cut_set_count = count_from_double(
          measures.var_count[2 * r] + measures.var_count[2 * r + 1]);
      entry.smallest_order = min_nonzero(measures.var_min_order[2 * r],
                                         measures.var_min_order[2 * r + 1]);
    }
  } else {
    // Classic path: one family pass (probability.h) gives the bounds and
    // every set's probability; Fussell-Vesely, counts and orders follow
    // in the same set order.
    const FamilyProbability family = family_probability(analysis, options);
    out.p_rare_event = family.rare_event;
    out.p_esary_proschan = family.esary_proschan;
    out.p_mcub = family.mcub;
    EventProbabilities events(options);
    std::vector<double> literal_probs;
    for (std::size_t k = 0; k < analysis.cut_sets.size(); ++k) {
      const CutSet& cs = analysis.cut_sets[k];
      const double p = family.set_probability[k];
      for (const CutLiteral& literal : cs) {
        const std::uint32_t slot = index.find(literal.event);
        if (slot == EntryIndex::kAbsent) continue;  // undeveloped / loop
        ImportanceEntry& entry = entries[slot];
        if (out.p_rare_event > 0.0)
          entry.fussell_vesely += p / out.p_rare_event;
        ++entry.cut_set_count;
        if (entry.smallest_order == 0 || cs.size() < entry.smallest_order)
          entry.smallest_order = cs.size();
      }
      if (!bound_run) continue;
      // Rare-event conditionals: for each literal, the set's probability
      // with that literal forced true (product of the others). Products
      // rather than division by the literal's probability so zero-rate
      // events stay finite.
      literal_probs.clear();
      for (const CutLiteral& literal : cs)
        literal_probs.push_back(events.literal(literal));
      for (std::size_t j = 0; j < cs.size(); ++j) {
        const std::uint32_t slot = index.find(cs[j].event);
        if (slot == EntryIndex::kAbsent) continue;
        double without = 1.0;
        for (std::size_t i = 0; i < cs.size(); ++i)
          if (i != j) without *= literal_probs[i];
        RareEventMasses& m = rare_masses[slot];
        m.seen = true;
        m.with_literal += p;
        if (cs[j].negated) m.neg_without += without;
        else m.pos_without += without;
      }
    }
  }

  if (bound_run) {
    // Rare-event Birnbaum/RAW/RRW from the family: with S the rare-event
    // sum, S(v=1) = S - with_literal + pos_without (sets mentioning v are
    // re-weighted with the literal forced; NOT-v sets vanish), likewise
    // S(v=0) with neg_without. BM = S(v=1) - S(v=0) needs no S at all.
    // p_exact stays 0: the interval in p_lower/p_upper is the probability
    // statement for these runs.
    const double s = out.p_rare_event;
    for (std::size_t slot = 0; slot < entries.size(); ++slot) {
      const RareEventMasses& m = rare_masses[slot];
      if (!m.seen) continue;
      ImportanceEntry& entry = entries[slot];
      const double s_with = s - m.with_literal + m.pos_without;
      const double s_without = s - m.with_literal + m.neg_without;
      entry.birnbaum = m.pos_without - m.neg_without;
      entry.raw = s > 0.0 ? s_with / s : 0.0;
      entry.rrw =
          s_without > 0.0 ? s / s_without
          : s > 0.0       ? std::numeric_limits<double>::infinity()
                          : 0.0;
    }
  } else {
    // Exact probability plus Birnbaum/RAW/RRW for every event from ONE
    // BDD encoding. The engine indexes the root once and computes P(top);
    // the combined upward/downward sweep then yields all Birnbaum
    // measures in O(N) where the per-variable conditional loop paid
    // O(V*N). RAW and RRW keep the conditional evaluations: deriving
    // P(top | v = b) from the sweep via P(top) - p_v * BM(v) cancels
    // catastrophically when the conditioned probability is orders of
    // magnitude below P(top) -- exactly the rare events RRW exists to
    // rank -- while each conditional is a flat loop over the index that
    // re-evaluates only the levels at and above v.
    BddEncoding encoding = encode_bdd(tree);
    const std::vector<double> probabilities =
        encoding.probabilities(options);
    BddProbabilityEngine engine(encoding.bdd, probabilities);
    const double p_top = engine.probability(encoding.root);
    out.p_exact = p_top;
    const std::vector<double> birnbaum = engine.birnbaum_all(encoding.root);
    for (std::size_t v = 0; v < encoding.events.size(); ++v) {
      const std::uint32_t slot = index.find(encoding.events[v]);
      if (slot == EntryIndex::kAbsent) continue;
      ImportanceEntry& entry = entries[slot];
      const double bm = birnbaum[v];
      const double p_given =
          engine.probability_given(encoding.root, static_cast<int>(v), true);
      const double p_without = engine.probability_given(
          encoding.root, static_cast<int>(v), false);
      entry.birnbaum = bm;
      entry.raw = p_top > 0.0 ? p_given / p_top : 0.0;
      entry.rrw =
          p_without > 0.0 ? p_top / p_without
          : p_top > 0.0   ? std::numeric_limits<double>::infinity()
                          : 0.0;
    }
  }

  std::sort(entries.begin(), entries.end(),
            [](const ImportanceEntry& a, const ImportanceEntry& b) {
              if (a.fussell_vesely != b.fussell_vesely)
                return a.fussell_vesely > b.fussell_vesely;
              if (a.birnbaum != b.birnbaum) return a.birnbaum > b.birnbaum;
              return a.event->name() < b.event->name();
            });
  out.importance = std::move(entries);
  return out;
}

std::vector<ImportanceEntry> importance_ranking(
    const FaultTree& tree, const CutSetAnalysis& analysis,
    const ProbabilityOptions& options) {
  return analyse_reliability(tree, analysis, options, ProbMode::kCutSets)
      .importance;
}

std::string render_importance(const std::vector<ImportanceEntry>& ranking) {
  TextTable table({"Basic event", "FV", "Birnbaum", "RAW", "RRW",
                   "#cut sets", "min order"});
  for (const ImportanceEntry& entry : ranking) {
    table.add_row({entry.event->name().str(),
                   format_double(entry.fussell_vesely),
                   format_double(entry.birnbaum), format_double(entry.raw),
                   format_double(entry.rrw),
                   std::to_string(entry.cut_set_count),
                   std::to_string(entry.smallest_order)});
  }
  return table.render();
}

}  // namespace ftsynth
