//===- tests/callloop_test.cpp - call-loop graph semantics ----------------==//
//
// Validates the head/body discipline of Sec. 4.2 on hand-built programs
// with known traversal counts, including the Fig. 1/2 example shape.
//
//===----------------------------------------------------------------------===//

#include "ir/Builder.h"
#include "ir/Lowering.h"
#include "markers/Pipeline.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace spm;

namespace {

struct ProfiledRun {
  std::unique_ptr<Binary> Bin;
  LoopIndex Loops;
  std::unique_ptr<CallLoopGraph> Graph;

  ProfiledRun(std::unique_ptr<SourceProgram> P, const WorkloadInput &In)
      : Bin(lower(*P, LoweringOptions::O2())),
        Loops(LoopIndex::build(*Bin)) {
    Graph = buildCallLoopGraph(*Bin, Loops, In);
  }
};

/// Fig. 1 of the paper: foo contains a loop calling X or Y, then calls X;
/// X calls Z.
std::unique_ptr<SourceProgram> figureOneProgram() {
  ProgramBuilder PB("fig1");
  uint32_t Foo = PB.declare("foo"); // Entry.
  uint32_t X = PB.declare("x");
  uint32_t Y = PB.declare("y");
  uint32_t Z = PB.declare("z");
  PB.define(Z, [&](FunctionBuilder &F) { F.code(6); });
  PB.define(X, [&](FunctionBuilder &F) {
    F.code(2);
    F.call(Z);
  });
  PB.define(Y, [&](FunctionBuilder &F) { F.code(12); });
  PB.define(Foo, [&](FunctionBuilder &F) {
    F.loop(TripCountSpec::constant(25), [&] {
      F.branch(CondSpec::periodic(5, 3), [&] { F.call(X); },
               [&] { F.call(Y); });
    });
    F.call(X);
  });
  return PB.take();
}

} // namespace

TEST(CallLoop, GraphNodeNumbering) {
  ProfiledRun S(figureOneProgram(), WorkloadInput("t", 1));
  const CallLoopGraph &G = *S.Graph;
  EXPECT_EQ(G.numFuncs(), 4u);
  EXPECT_EQ(G.numLoops(), 1u);
  EXPECT_EQ(G.numNodes(), 1 + 2 * 4 + 2 * 1);
  EXPECT_EQ(G.node(RootNode).K, NodeKind::Root);
  EXPECT_EQ(G.node(G.procHead(0)).K, NodeKind::ProcHead);
  EXPECT_EQ(G.node(G.loopBody(0)).K, NodeKind::LoopBody);
}

TEST(CallLoop, LoopEntryAndIterationCounts) {
  ProfiledRun S(figureOneProgram(), WorkloadInput("t", 1));
  const CallLoopGraph &G = *S.Graph;
  // The loop is entered once (one head traversal from foo's body) and
  // iterates 25 times (25 body traversals).
  const CallLoopEdge *HeadE = G.findEdge(G.procBody(0), G.loopHead(0));
  ASSERT_NE(HeadE, nullptr);
  EXPECT_EQ(HeadE->Hier.count(), 1u);
  const CallLoopEdge *BodyE = G.findEdge(G.loopHead(0), G.loopBody(0));
  ASSERT_NE(BodyE, nullptr);
  EXPECT_EQ(BodyE->Hier.count(), 25u);
}

TEST(CallLoop, CallCountsMatchDispatch) {
  ProfiledRun S(figureOneProgram(), WorkloadInput("t", 1));
  const CallLoopGraph &G = *S.Graph;
  // periodic(5,3): X on 15 of 25 iterations, Y on 10; plus one direct call
  // to X from foo's body after the loop.
  const CallLoopEdge *LoopToX = G.findEdge(G.loopBody(0), G.procHead(1));
  ASSERT_NE(LoopToX, nullptr);
  EXPECT_EQ(LoopToX->Hier.count(), 15u);
  const CallLoopEdge *LoopToY = G.findEdge(G.loopBody(0), G.procHead(2));
  ASSERT_NE(LoopToY, nullptr);
  EXPECT_EQ(LoopToY->Hier.count(), 10u);
  const CallLoopEdge *FooToX = G.findEdge(G.procBody(0), G.procHead(1));
  ASSERT_NE(FooToX, nullptr);
  EXPECT_EQ(FooToX->Hier.count(), 1u);
  // Z is called once per X activation: 16 total, all from X's body.
  const CallLoopEdge *XToZ = G.findEdge(G.procBody(1), G.procHead(3));
  ASSERT_NE(XToZ, nullptr);
  EXPECT_EQ(XToZ->Hier.count(), 16u);
}

TEST(CallLoop, RootEdgeCarriesWholeProgram) {
  ProfiledRun S(figureOneProgram(), WorkloadInput("t", 1));
  const CallLoopGraph &G = *S.Graph;
  const CallLoopEdge *RootE = G.findEdge(RootNode, G.procHead(0));
  ASSERT_NE(RootE, nullptr);
  EXPECT_EQ(RootE->Hier.count(), 1u);

  // Re-run to get the true total.
  Interpreter Interp(*S.Bin, WorkloadInput("t", 1));
  ExecutionObserver Nop;
  RunResult R = Interp.runFast(Nop);
  EXPECT_DOUBLE_EQ(RootE->Hier.mean(), static_cast<double>(R.TotalInstrs));
}

TEST(CallLoop, HeadAndBodyIdenticalForNonRecursive) {
  ProfiledRun S(figureOneProgram(), WorkloadInput("t", 1));
  const CallLoopGraph &G = *S.Graph;
  for (uint32_t F = 1; F <= 3; ++F) {
    const CallLoopEdge *HB = G.findEdge(G.procHead(F), G.procBody(F));
    ASSERT_NE(HB, nullptr) << "func " << F;
    // One body traversal per head entry, and identical hierarchical means
    // (the paper: "for non-recursive procedures, the head and body nodes
    // carry identical information").
    uint64_t HeadEntries = 0;
    for (const CallLoopEdge *In : G.incoming(G.procHead(F)))
      HeadEntries += In->Hier.count();
    EXPECT_EQ(HB->Hier.count(), HeadEntries);
  }
}

TEST(CallLoop, HierarchicalNesting) {
  ProfiledRun S(figureOneProgram(), WorkloadInput("t", 1));
  const CallLoopGraph &G = *S.Graph;
  // The loop body's average includes the dispatched calls: it must exceed
  // Z's per-call cost, and the loop-head mean must be ~25x the body mean.
  const CallLoopEdge *BodyE = G.findEdge(G.loopHead(0), G.loopBody(0));
  const CallLoopEdge *HeadE = G.findEdge(G.procBody(0), G.loopHead(0));
  ASSERT_NE(BodyE, nullptr);
  ASSERT_NE(HeadE, nullptr);
  // Head total = sum of 25 iterations + per-iteration header/latch blocks
  // already inside: the mean ratio is 25 +/- the header overhead share.
  double Ratio = HeadE->Hier.mean() / BodyE->Hier.mean();
  EXPECT_GT(Ratio, 20.0);
  EXPECT_LT(Ratio, 30.0);
}

TEST(CallLoop, PathDifferentiationLikeFig2) {
  // Z's cost is constant here, so instead differentiate X's hierarchical
  // cost by giving Z variable work depending on call context — model it
  // with a loop in Z whose trips are bimodal.
  ProgramBuilder PB("fig2");
  uint32_t Main = PB.declare("main");
  uint32_t X = PB.declare("x");
  PB.define(X, [&](FunctionBuilder &F) {
    // X's work alternates 10,100,10,100,... across activations.
    F.loop(TripCountSpec::schedule({10, 100}), [&] { F.code(3); });
  });
  PB.define(Main, [&](FunctionBuilder &F) {
    F.loop(TripCountSpec::constant(50), [&] { F.call(X); });
  });
  ProfiledRun S(PB.take(), WorkloadInput("t", 1));
  const CallLoopGraph &G = *S.Graph;
  // The call edge into X sees alternating 10/100-iteration activations:
  // a high CoV, exactly the "X to Z" effect of Fig. 2.
  const CallLoopEdge *CallX = G.findEdge(G.loopBody(0), G.procHead(1));
  ASSERT_NE(CallX, nullptr);
  EXPECT_GT(CallX->Hier.cov(), 0.5);
  // While the outer loop body (one call each) has the same CoV, the outer
  // loop head (all 50 calls) is perfectly stable.
  const CallLoopEdge *OuterHead = G.findEdge(G.procBody(0), G.loopHead(0));
  ASSERT_NE(OuterHead, nullptr);
  EXPECT_LT(OuterHead->Hier.cov(), 0.01);
}

TEST(CallLoop, RecursionEpisodesVsActivations) {
  ProgramBuilder PB("rec");
  uint32_t Main = PB.declare("main");
  uint32_t F = PB.declare("f");
  PB.define(F, [&](FunctionBuilder &B) {
    B.code(5);
    B.callIf(F, 0.7);
  });
  PB.define(Main, [&](FunctionBuilder &B) {
    B.loop(TripCountSpec::constant(200), [&] { B.call(F); });
  });
  ProfiledRun S(PB.take(), WorkloadInput("t", 9));
  const CallLoopGraph &G = *S.Graph;
  const CallLoopEdge *Episode = G.findEdge(G.loopBody(0), G.procHead(1));
  const CallLoopEdge *Activation = G.findEdge(G.procHead(1), G.procBody(1));
  ASSERT_NE(Episode, nullptr);
  ASSERT_NE(Activation, nullptr);
  // 200 episodes; expected activations 200/(1-0.7) ~ 667.
  EXPECT_EQ(Episode->Hier.count(), 200u);
  EXPECT_GT(Activation->Hier.count(), 400u);
  // Episode cost strictly exceeds the mean activation cost.
  EXPECT_GT(Episode->Hier.mean(), Activation->Hier.mean());
}

TEST(CallLoop, SiblingLoopsGetSeparateNodes) {
  ProgramBuilder PB("sib");
  uint32_t Main = PB.declare("main");
  PB.define(Main, [&](FunctionBuilder &F) {
    F.loop(TripCountSpec::constant(7), [&] { F.code(2); });
    F.loop(TripCountSpec::constant(11), [&] { F.code(3); });
  });
  ProfiledRun S(PB.take(), WorkloadInput("t", 1));
  const CallLoopGraph &G = *S.Graph;
  ASSERT_EQ(G.numLoops(), 2u);
  const CallLoopEdge *B0 = G.findEdge(G.loopHead(0), G.loopBody(0));
  const CallLoopEdge *B1 = G.findEdge(G.loopHead(1), G.loopBody(1));
  ASSERT_NE(B0, nullptr);
  ASSERT_NE(B1, nullptr);
  EXPECT_EQ(B0->Hier.count() + B1->Hier.count(), 18u);
}

TEST(CallLoop, NestedLoopIterationAccounting) {
  ProgramBuilder PB("nest");
  uint32_t Main = PB.declare("main");
  PB.define(Main, [&](FunctionBuilder &F) {
    F.loop(TripCountSpec::constant(4), [&] {
      F.loop(TripCountSpec::constant(6), [&] { F.code(2); });
    });
  });
  ProfiledRun S(PB.take(), WorkloadInput("t", 1));
  const CallLoopGraph &G = *S.Graph;
  // Loop ids follow lowering order: inner latch appears first.
  uint32_t Inner = 0, Outer = 1;
  if (S.Loops.loop(0).HeaderAddr < S.Loops.loop(1).HeaderAddr)
    std::swap(Inner, Outer);
  const CallLoopEdge *OuterBody =
      G.findEdge(G.loopHead(Outer), G.loopBody(Outer));
  const CallLoopEdge *InnerHead =
      G.findEdge(G.loopBody(Outer), G.loopHead(Inner));
  const CallLoopEdge *InnerBody =
      G.findEdge(G.loopHead(Inner), G.loopBody(Inner));
  ASSERT_NE(OuterBody, nullptr);
  ASSERT_NE(InnerHead, nullptr);
  ASSERT_NE(InnerBody, nullptr);
  EXPECT_EQ(OuterBody->Hier.count(), 4u);
  EXPECT_EQ(InnerHead->Hier.count(), 4u);  // Entered once per outer iter.
  EXPECT_EQ(InnerBody->Hier.count(), 24u); // 4 * 6 iterations.
}

TEST(CallLoop, TruncatedRunStillClosesFrames) {
  Workload W = WorkloadRegistry::create("gzip");
  auto B = lower(*W.Program, LoweringOptions::O2());
  LoopIndex Loops = LoopIndex::build(*B);
  auto G = buildCallLoopGraph(*B, Loops, W.Ref, /*MaxInstrs=*/20000);
  // The root edge must exist and carry the truncated total.
  const CallLoopEdge *RootE = G->findEdge(RootNode, G->procHead(0));
  ASSERT_NE(RootE, nullptr);
  EXPECT_GE(RootE->Hier.mean(), 20000.0);
}

TEST(CallLoop, GraphPrintersProduceOutput) {
  ProfiledRun S(figureOneProgram(), WorkloadInput("t", 1));
  std::string Text = printGraph(*S.Graph);
  EXPECT_NE(Text.find("foo.body"), std::string::npos);
  EXPECT_NE(Text.find("CoV"), std::string::npos);
  std::string Dot = printGraphDot(*S.Graph);
  EXPECT_NE(Dot.find("digraph"), std::string::npos);
}

TEST(CallLoop, EdgeTotalsConserveInstructions) {
  // Sum of top-level edges' (count*mean) under any node equals that node's
  // hierarchical count minus local work — weaker form: children never
  // exceed the parent.
  ProfiledRun S(figureOneProgram(), WorkloadInput("t", 1));
  const CallLoopGraph &G = *S.Graph;
  const CallLoopEdge *RootE = G.findEdge(RootNode, G.procHead(0));
  ASSERT_NE(RootE, nullptr);
  double Total = RootE->Hier.sum();
  for (const CallLoopEdge *E : G.sortedEdges())
    EXPECT_LE(E->Hier.sum(), Total + 1e-6)
        << G.node(E->From).Label << "->" << G.node(E->To).Label;
}
