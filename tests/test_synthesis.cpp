// Unit tests for the fault tree synthesis algorithm: expression conversion,
// boundary crossing, common cause, policies, loops, memoisation.

#include <gtest/gtest.h>

#include "analysis/cutsets.h"
#include "core/error.h"
#include "fta/synthesis.h"
#include "model/builder.h"

namespace ftsynth {
namespace {

/// in -> a -> b -> out, each stage one malfunction + omission propagation.
Model two_stage_chain() {
  ModelBuilder b("m");
  b.inport(b.root(), "in");
  for (const char* name : {"a", "b"}) {
    Block& stage = b.basic(b.root(), name);
    b.in(stage, "x");
    b.out(stage, "y");
    b.malfunction(stage, "dead", 1e-6);
    b.annotate(stage, "Omission-y", "dead OR Omission-x");
  }
  b.outport(b.root(), "out");
  b.connect(b.root(), "in", "a.x");
  b.connect(b.root(), "a.y", "b.x");
  b.connect(b.root(), "b.y", "out");
  return b.take();
}

std::vector<std::string> cut_set_names(const FaultTree& tree) {
  std::vector<std::string> out;
  for (const CutSet& cs : minimal_cut_sets(tree).cut_sets) {
    std::string set;
    for (const CutLiteral& literal : cs) {
      if (!set.empty()) set += "+";
      if (literal.negated) set += "!";
      set += literal.event->name().view();
    }
    out.push_back(set);
  }
  return out;
}

TEST(Synthesis, ChainProducesLinearOrTree) {
  Model model = two_stage_chain();
  Synthesiser synthesiser(model);
  FaultTree tree = synthesiser.synthesise("Omission-out");
  ASSERT_NE(tree.top(), nullptr);
  EXPECT_EQ(tree.top_description(), "Omission-out at m");
  EXPECT_EQ(cut_set_names(tree),
            (std::vector<std::string>{"env:Omission-in", "m/a.dead",
                                      "m/b.dead"}));
  // Rates travel onto the basic events.
  EXPECT_DOUBLE_EQ(tree.find_event(Symbol("m/a.dead"))->rate(), 1e-6);
}

TEST(Synthesis, UnknownTopEventThrows) {
  Model model = two_stage_chain();
  Synthesiser synthesiser(model);
  EXPECT_THROW(synthesiser.synthesise("Omission-nonexistent"), Error);
  // An input port is not a valid top event either.
  EXPECT_THROW(synthesiser.synthesise("Omission-in"), Error);
}

TEST(Synthesis, AndCausesBecomeAndGates) {
  ModelBuilder b("m");
  b.inport(b.root(), "p");
  b.inport(b.root(), "q");
  Block& stage = b.basic(b.root(), "s");
  b.in(stage, "p");
  b.in(stage, "q");
  b.out(stage, "y");
  b.annotate(stage, "Omission-y", "Omission-p AND Omission-q");
  b.outport(b.root(), "out");
  b.connect(b.root(), "p", "s.p");
  b.connect(b.root(), "q", "s.q");
  b.connect(b.root(), "s.y", "out");
  Model model = b.take();

  FaultTree tree = Synthesiser(model).synthesise("Omission-out");
  ASSERT_NE(tree.top(), nullptr);
  EXPECT_EQ(tree.top()->gate(), GateKind::kAnd);
  EXPECT_EQ(cut_set_names(tree),
            (std::vector<std::string>{"env:Omission-p+env:Omission-q"}));
}

TEST(Synthesis, SubsystemCommonCauseIsOredAtTheBoundary) {
  ModelBuilder b("m");
  b.inport(b.root(), "in");
  Block& node = b.subsystem(b.root(), "node");
  b.inport(node, "in");
  Block& task = b.basic(node, "task");
  b.in(task, "x");
  b.out(task, "y");
  b.malfunction(task, "bug", 1e-7);
  b.annotate(task, "Omission-y", "bug OR Omission-x");
  b.outport(node, "out");
  b.connect(node, "in", "task.x");
  b.connect(node, "task.y", "out");
  b.malfunction(node, "cpu", 1e-6, "processor dead");
  b.annotate(node, "Omission-out", "cpu");
  b.outport(b.root(), "out");
  b.connect(b.root(), "in", "node.in");
  b.connect(b.root(), "node.out", "out");
  Model model = b.take();

  FaultTree with = Synthesiser(model).synthesise("Omission-out");
  EXPECT_EQ(cut_set_names(with),
            (std::vector<std::string>{"env:Omission-in", "m/node.cpu",
                                      "m/node/task.bug"}));

  // Disabling the Figure 3 mechanism drops the hardware cause.
  SynthesisOptions options;
  options.subsystem_common_cause = false;
  FaultTree without = Synthesiser(model, options).synthesise("Omission-out");
  EXPECT_EQ(cut_set_names(without),
            (std::vector<std::string>{"env:Omission-in", "m/node/task.bug"}));
}

TEST(Synthesis, UnannotatedPolicies) {
  ModelBuilder b("m");
  b.inport(b.root(), "in");
  Block& stage = b.basic(b.root(), "mystery");
  b.in(stage, "x");
  b.out(stage, "y");
  b.outport(b.root(), "out");
  b.connect(b.root(), "in", "mystery.x");
  b.connect(b.root(), "mystery.y", "out");
  Model model = b.take();

  SynthesisOptions options;
  options.unannotated = SynthesisOptions::UnannotatedPolicy::kUndeveloped;
  FaultTree undeveloped = Synthesiser(model, options).synthesise("Omission-out");
  ASSERT_NE(undeveloped.top(), nullptr);
  EXPECT_EQ(undeveloped.top()->kind(), NodeKind::kUndeveloped);

  options.unannotated = SynthesisOptions::UnannotatedPolicy::kPrune;
  EXPECT_EQ(Synthesiser(model, options).synthesise("Omission-out").top(),
            nullptr);

  options.unannotated = SynthesisOptions::UnannotatedPolicy::kError;
  Synthesiser erroring(model, options);
  EXPECT_THROW(erroring.synthesise("Omission-out"), Error);

  options.unannotated = SynthesisOptions::UnannotatedPolicy::kPropagate;
  FaultTree propagated =
      Synthesiser(model, options).synthesise("Omission-out");
  ASSERT_NE(propagated.top(), nullptr);
  EXPECT_EQ(propagated.top()->kind(), NodeKind::kBasic);
  EXPECT_EQ(propagated.top()->name(), Symbol("env:Omission-in"));
}

TEST(Synthesis, EnvironmentPolicyPrune) {
  Model model = two_stage_chain();
  SynthesisOptions options;
  options.environment = SynthesisOptions::EnvironmentPolicy::kPrune;
  FaultTree tree = Synthesiser(model, options).synthesise("Omission-out");
  EXPECT_EQ(cut_set_names(tree),
            (std::vector<std::string>{"m/a.dead", "m/b.dead"}));
}

TEST(Synthesis, TriggerOmissionIsAutomatic) {
  ModelBuilder b("m");
  Block& clock = b.basic(b.root(), "clock");
  b.out(clock, "tick");
  b.malfunction(clock, "hung", 1e-7);
  b.annotate(clock, "Omission-tick", "hung");
  Block& task = b.basic(b.root(), "task");
  b.trigger(task, "go");
  b.out(task, "y");
  b.malfunction(task, "bug", 1e-7);
  b.annotate(task, "Omission-y", "bug");
  b.outport(b.root(), "out");
  b.connect(b.root(), "clock.tick", "task.go");
  b.connect(b.root(), "task.y", "out");
  Model model = b.take();

  FaultTree automatic = Synthesiser(model).synthesise("Omission-out");
  EXPECT_EQ(cut_set_names(automatic),
            (std::vector<std::string>{"m/clock.hung", "m/task.bug"}));

  SynthesisOptions options;
  options.trigger_omission = false;
  FaultTree manual = Synthesiser(model, options).synthesise("Omission-out");
  EXPECT_EQ(cut_set_names(manual),
            (std::vector<std::string>{"m/task.bug"}));
}

TEST(Synthesis, TriggerOmissionDoesNotLeakIntoASharedGate) {
  // Subsystem s has a grounded inner output, so its Omission-y tree is
  // just its own hardware OR gate -- one memoised node read by a triggered
  // block d and a plain block e. d's trigger omission must not be OR-ed
  // into that shared gate, or it would reach e too.
  ModelBuilder b("m");
  Block& s = b.subsystem(b.root(), "s");
  b.ground(s, "g");
  b.outport(s, "y");
  b.connect(s, "g.out", "y");
  b.malfunction(s, "hw1", 1e-6);
  b.malfunction(s, "hw2", 1e-6);
  b.annotate(s, "Omission-y", "hw1 OR hw2");
  Block& clock = b.basic(b.root(), "clock");
  b.out(clock, "tick");
  b.malfunction(clock, "hung", 1e-7);
  b.annotate(clock, "Omission-tick", "hung");
  for (const char* name : {"d", "e"}) {
    Block& stage = b.basic(b.root(), name);
    b.in(stage, "x");
    b.out(stage, "y");
    b.annotate(stage, "Omission-y", "Omission-x");
    b.connect(b.root(), "s.y", std::string(name) + ".x");
    if (std::string_view(name) == "d") b.trigger(stage, "go");
  }
  b.connect(b.root(), "clock.tick", "d.go");
  Block& top = b.basic(b.root(), "top");
  b.in(top, "a");
  b.in(top, "b");
  b.out(top, "y");
  b.annotate(top, "Omission-y", "Omission-a AND Omission-b");
  b.connect(b.root(), "d.y", "top.a");
  b.connect(b.root(), "e.y", "top.b");
  b.outport(b.root(), "out");
  b.connect(b.root(), "top.y", "out");
  Model model = b.take();

  const std::vector<std::string> expected{"m/s.hw1", "m/s.hw2"};
  EXPECT_EQ(cut_set_names(Synthesiser(model).synthesise("Omission-out")),
            expected);
  SynthesisOptions options;
  options.memoise = false;
  EXPECT_EQ(
      cut_set_names(Synthesiser(model, options).synthesise("Omission-out")),
      expected);
}

TEST(Synthesis, FeedbackLoopIsCutToLeastFixpoint) {
  // a.y = dead_a OR Omission-x where x is fed by b; b.y = dead_b OR a.y:
  // a classic two-block loop.
  ModelBuilder b("m");
  Block& a = b.basic(b.root(), "a");
  b.in(a, "x");
  b.out(a, "y");
  b.malfunction(a, "dead_a", 1e-6);
  b.annotate(a, "Omission-y", "dead_a OR Omission-x");
  Block& c = b.basic(b.root(), "c");
  b.in(c, "x");
  b.out(c, "y");
  b.malfunction(c, "dead_c", 1e-6);
  b.annotate(c, "Omission-y", "dead_c OR Omission-x");
  b.outport(b.root(), "out");
  b.connect(b.root(), "a.y", "c.x");
  b.connect(b.root(), "c.y", "a.x");
  b.connect(b.root(), "c.y", "out");
  Model model = b.take();

  Synthesiser synthesiser(model);
  FaultTree tree = synthesiser.synthesise("Omission-out");
  EXPECT_GE(synthesiser.stats().loops_cut, 1u);
  EXPECT_EQ(cut_set_names(tree),
            (std::vector<std::string>{"m/a.dead_a", "m/c.dead_c"}));

  // With LoopPolicy::kEvent the cut point is a visible leaf.
  SynthesisOptions options;
  options.loops = SynthesisOptions::LoopPolicy::kEvent;
  FaultTree visible = Synthesiser(model, options).synthesise("Omission-out");
  bool loop_leaf = false;
  visible.for_each_reachable([&](const FtNode& node) {
    if (node.kind() == NodeKind::kLoop) loop_leaf = true;
  });
  EXPECT_TRUE(loop_leaf);
}

TEST(Synthesis, MemoisationSharesSubtreesAndCountsHits) {
  // Diamond: both inputs of `join` come from the same upstream chain.
  ModelBuilder b("m");
  b.inport(b.root(), "in");
  Block& src = b.basic(b.root(), "src");
  b.in(src, "x");
  b.out(src, "y");
  b.malfunction(src, "dead", 1e-6);
  b.annotate(src, "Omission-y", "dead OR Omission-x");
  Block& join = b.basic(b.root(), "join");
  b.in(join, "l");
  b.in(join, "r");
  b.out(join, "y");
  b.annotate(join, "Omission-y", "Omission-l AND Omission-r");
  b.outport(b.root(), "out");
  b.connect(b.root(), "in", "src.x");
  b.connect(b.root(), "src.y", "join.l");
  b.connect(b.root(), "src.y", "join.r");
  b.connect(b.root(), "join.y", "out");
  Model model = b.take();

  Synthesiser shared(model);
  FaultTree tree = shared.synthesise("Omission-out");
  EXPECT_GE(shared.stats().cache_hits, 1u);
  // AND(x, x) collapses: the top is the shared OR itself.
  ASSERT_NE(tree.top(), nullptr);
  EXPECT_EQ(tree.top()->gate(), GateKind::kOr);

  SynthesisOptions options;
  options.memoise = false;
  options.deduplicate = false;  // observe the raw expansion
  Synthesiser unshared(model, options);
  FaultTree expanded = unshared.synthesise("Omission-out");
  EXPECT_EQ(unshared.stats().cache_hits, 0u);
  // Without sharing the two branches are distinct nodes, so the AND stays.
  EXPECT_EQ(expanded.top()->gate(), GateKind::kAnd);
  // ... but the cut sets are semantically identical.
  EXPECT_EQ(cut_set_names(tree), cut_set_names(expanded));

  // The post-pass alone recovers the sharing: with dedupe on (default),
  // even the unmemoised run collapses to the same compact DAG.
  options.deduplicate = true;
  FaultTree recompacted =
      Synthesiser(model, options).synthesise("Omission-out");
  EXPECT_EQ(recompacted.stats().node_count, tree.stats().node_count);
}

TEST(Synthesis, ConstantTrueCauseBecomesHouseEvent) {
  ModelBuilder b("m");
  Block& stage = b.basic(b.root(), "s");
  b.out(stage, "y");
  b.annotate(stage, "Commission-y", "true");
  b.outport(b.root(), "out");
  b.connect(b.root(), "s.y", "out");
  Model model = b.take();
  FaultTree tree = Synthesiser(model).synthesise("Commission-out");
  ASSERT_NE(tree.top(), nullptr);
  EXPECT_EQ(tree.top()->kind(), NodeKind::kHouse);
}

TEST(Synthesis, SynthesiseAllCoversOutputsTimesClasses) {
  Model model = two_stage_chain();
  // Under the default (undeveloped) policy every class yields a tree --
  // the unexplained ones rooted at undeveloped events.
  EXPECT_EQ(Synthesiser(model).synthesise_all().size(),
            model.registry().all().size());

  // Pruning unannotated deviations leaves only the derivable top event.
  SynthesisOptions options;
  options.unannotated = SynthesisOptions::UnannotatedPolicy::kPrune;
  Synthesiser pruning(model, options);
  std::vector<FaultTree> trees = pruning.synthesise_all();
  ASSERT_EQ(trees.size(), 1u);
  EXPECT_EQ(trees.front().top_description(), "Omission-out at m");
}

TEST(Synthesis, NotCauseSurvivesToAnalysis) {
  ModelBuilder b("m");
  Block& stage = b.basic(b.root(), "s");
  b.out(stage, "y");
  b.malfunction(stage, "fault", 1e-6);
  b.malfunction(stage, "detector_ok", 1e-6);
  b.annotate(stage, "Value-y", "fault AND NOT detector_ok");
  b.outport(b.root(), "out");
  b.connect(b.root(), "s.y", "out");
  Model model = b.take();
  FaultTree tree = Synthesiser(model).synthesise("Value-out");
  ASSERT_NE(tree.top(), nullptr);
  auto analysis = minimal_cut_sets(tree);
  ASSERT_EQ(analysis.cut_sets.size(), 1u);
  EXPECT_EQ(analysis.cut_sets.front().size(), 2u);
  EXPECT_TRUE(analysis.cut_sets.front()[0].negated ||
              analysis.cut_sets.front()[1].negated);
}

}  // namespace
}  // namespace ftsynth
