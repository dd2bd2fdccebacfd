//===- tests/markers_test.cpp - selection algorithm & runtime -------------==//
//
// Exercises the Sec. 5.1 two-pass selection, the Sec. 5.2 limit heuristics,
// the marker runtime (VLI cutting), and cross-binary portability.
//
//===----------------------------------------------------------------------===//

#include "ir/Builder.h"
#include "ir/Lowering.h"
#include "markers/Pipeline.h"
#include "markers/Selector.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace spm;

namespace {

/// A program with a clean two-phase structure: N outer steps, each running
/// a stable heavy kernel (~5K instrs) and a stable light kernel (~1K).
std::unique_ptr<SourceProgram> twoPhaseProgram() {
  ProgramBuilder PB("two-phase");
  uint32_t Main = PB.declare("main");
  uint32_t Heavy = PB.declare("heavy");
  uint32_t Light = PB.declare("light");
  PB.define(Heavy, [&](FunctionBuilder &F) {
    F.loop(TripCountSpec::constant(500), [&] { F.code(8); });
  });
  PB.define(Light, [&](FunctionBuilder &F) {
    F.loop(TripCountSpec::constant(100), [&] { F.code(8); });
  });
  PB.define(Main, [&](FunctionBuilder &F) {
    F.loop(TripCountSpec::constant(40), [&] {
      F.call(Heavy);
      F.call(Light);
    });
  });
  return PB.take();
}

struct Profiled {
  std::unique_ptr<Binary> Bin;
  LoopIndex Loops;
  std::unique_ptr<CallLoopGraph> Graph;

  Profiled(const SourceProgram &P, const WorkloadInput &In,
           const LoweringOptions &Opts = LoweringOptions::O2())
      : Bin(lower(P, Opts)), Loops(LoopIndex::build(*Bin)) {
    Graph = buildCallLoopGraph(*Bin, Loops, In);
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// Depth estimation & grouping helpers
//===----------------------------------------------------------------------===//

TEST(Selector, DepthEstimationOrdersChildrenDeeper) {
  auto P = twoPhaseProgram();
  Profiled S(*P, WorkloadInput("t", 1));
  std::vector<int32_t> D = estimateMaxDepths(*S.Graph);
  const CallLoopGraph &G = *S.Graph;
  EXPECT_EQ(D[RootNode], 0);
  // main.head deeper than root; heavy's inner loop deeper than heavy.head.
  EXPECT_GT(D[G.procHead(0)], D[RootNode]);
  EXPECT_GT(D[G.procBody(1)], D[G.procHead(1)]);
  for (NodeId N = 0; N < G.numNodes(); ++N) {
    if (!G.incoming(N).empty()) {
      EXPECT_GE(D[N], 1);
    }
  }
}

TEST(Selector, DepthHandlesRecursionCycles) {
  ProgramBuilder PB("rec");
  uint32_t Main = PB.declare("main");
  uint32_t F = PB.declare("f");
  PB.define(F, [&](FunctionBuilder &B) {
    B.code(3);
    B.callIf(F, 0.5);
  });
  PB.define(Main, [&](FunctionBuilder &B) {
    B.loop(TripCountSpec::constant(50), [&] { B.call(F); });
  });
  auto P = PB.take();
  Profiled S(*P, WorkloadInput("t", 2));
  // Must terminate and assign finite depths despite the f->f cycle.
  std::vector<int32_t> D = estimateMaxDepths(*S.Graph);
  EXPECT_GT(D[S.Graph->procBody(1)], 0);
}

TEST(GroupingFactor, PicksDivisorOfAverage) {
  // 100 iterations of 1000 instrs each, ilower 10k, max 200k:
  // N in [10..100]; mod-minimizing N should divide 100 evenly.
  uint32_t N = chooseGroupingFactor(1000.0, 100.0, 10000, 200000);
  ASSERT_GT(N, 0u);
  EXPECT_GE(N, 10u);
  EXPECT_EQ(100 % N, 0u);
}

TEST(GroupingFactor, RespectsBounds) {
  // Iteration length 500, ilower 10k -> N >= 20; max 15k -> N <= 30.
  uint32_t N = chooseGroupingFactor(500.0, 1000.0, 10000, 15000);
  ASSERT_GT(N, 0u);
  EXPECT_GE(N, 20u);
  EXPECT_LE(N, 30u);
}

TEST(GroupingFactor, ReturnsZeroWhenImpossible) {
  // One iteration is already over the limit.
  EXPECT_EQ(chooseGroupingFactor(300000.0, 50.0, 10000, 200000), 0u);
}

//===----------------------------------------------------------------------===//
// Pass 1 / pass 2 behavior
//===----------------------------------------------------------------------===//

TEST(Selector, ILowerPrunesSmallEdges) {
  auto P = twoPhaseProgram();
  Profiled S(*P, WorkloadInput("t", 1));
  SelectorConfig Big;
  Big.ILower = 1000000; // Larger than everything except whole-program edges.
  SelectionResult RBig = selectMarkers(*S.Graph, Big);
  SelectorConfig Small;
  Small.ILower = 800;
  SelectionResult RSmall = selectMarkers(*S.Graph, Small);
  EXPECT_LT(RBig.NumCandidates, RSmall.NumCandidates);
  EXPECT_LE(RBig.Markers.size(), RSmall.Markers.size());
}

TEST(Selector, MarksStableKernelCalls) {
  auto P = twoPhaseProgram();
  Profiled S(*P, WorkloadInput("t", 1));
  SelectorConfig C;
  C.ILower = 3000;
  SelectionResult R = selectMarkers(*S.Graph, C);
  const CallLoopGraph &G = *S.Graph;
  // The heavy kernel (~5K per call, zero variance) must be marked at its
  // call edge from the main loop.
  EXPECT_GE(R.Markers.indexOf(G.loopBody(2), G.procHead(1)), -1);
  bool HasHeavy =
      R.Markers.indexOf(G.loopBody(0), G.procHead(1)) >= 0 ||
      R.Markers.indexOf(G.loopBody(1), G.procHead(1)) >= 0 ||
      R.Markers.indexOf(G.loopBody(2), G.procHead(1)) >= 0;
  // Loop node ids depend on lowering order; scan all markers instead.
  bool Found = false;
  for (const Marker &M : R.Markers.markers())
    if (M.To == G.procHead(1))
      Found = true;
  EXPECT_TRUE(Found || HasHeavy);
  EXPECT_GT(R.Markers.size(), 0u);
}

TEST(Selector, HighVarianceEdgesRejected) {
  // A kernel with wildly variable cost should not be marked while a stable
  // same-size kernel is.
  ProgramBuilder PB("var");
  uint32_t Main = PB.declare("main");
  uint32_t Stable = PB.declare("stable");
  uint32_t Wild = PB.declare("wild");
  PB.define(Stable, [&](FunctionBuilder &F) {
    F.loop(TripCountSpec::constant(400), [&] { F.code(8); });
  });
  PB.define(Wild, [&](FunctionBuilder &F) {
    F.loop(TripCountSpec::uniform(4, 800), [&] { F.code(8); });
  });
  PB.define(Main, [&](FunctionBuilder &F) {
    F.loop(TripCountSpec::constant(60), [&] {
      F.call(Stable);
      F.call(Wild);
    });
  });
  auto P = PB.take();
  Profiled S(*P, WorkloadInput("t", 7));
  SelectorConfig C;
  C.ILower = 2500;
  SelectionResult R = selectMarkers(*S.Graph, C);
  const CallLoopGraph &G = *S.Graph;
  bool StableMarked = false, WildMarked = false;
  for (const Marker &M : R.Markers.markers()) {
    StableMarked |= M.To == G.procHead(1);
    WildMarked |= M.To == G.procHead(2);
  }
  EXPECT_TRUE(StableMarked);
  EXPECT_FALSE(WildMarked);
}

TEST(Selector, ProceduresOnlyRestrictsTargets) {
  auto P = twoPhaseProgram();
  Profiled S(*P, WorkloadInput("t", 1));
  SelectorConfig C;
  C.ILower = 800;
  C.ProceduresOnly = true;
  SelectionResult R = selectMarkers(*S.Graph, C);
  for (const Marker &M : R.Markers.markers()) {
    NodeKind K = S.Graph->node(M.To).K;
    EXPECT_TRUE(K == NodeKind::ProcHead || K == NodeKind::ProcBody);
  }
}

TEST(Selector, ProceduresOnlyFailsOnMonolithicMain) {
  // The paper's extreme example: "procedure-based analysis is very limited
  // if the programmer writes all their code in main". A program whose
  // phases are loops inside main gives procs-only nothing below the whole
  // program, while loop marking finds the phase kernels.
  ProgramBuilder PB("monolith");
  uint32_t Main = PB.declare("main");
  PB.define(Main, [&](FunctionBuilder &F) {
    F.loop(TripCountSpec::constant(30), [&] {
      F.loop(TripCountSpec::constant(500), [&] { F.code(8); }); // Phase A.
      F.loop(TripCountSpec::constant(120), [&] { F.code(6); }); // Phase B.
    });
  });
  auto P = PB.take();
  Profiled S(*P, WorkloadInput("t", 1));
  SelectorConfig C;
  C.ILower = 800;
  SelectionResult Both = selectMarkers(*S.Graph, C);
  C.ProceduresOnly = true;
  SelectionResult Procs = selectMarkers(*S.Graph, C);
  // Loops+procs finds the inner phase kernels...
  auto MinLen = [](const SelectionResult &R) {
    double Min = 1e300;
    for (const Marker &M : R.Markers.markers())
      Min = std::min(Min, M.ExpectedLen);
    return Min;
  };
  ASSERT_GT(Both.Markers.size(), 0u);
  EXPECT_LT(MinLen(Both), 10000.0);
  // ...while procs-only can only mark the whole program.
  for (const Marker &M : Procs.Markers.markers())
    EXPECT_GT(M.ExpectedLen, 100000.0);
  EXPECT_LT(Procs.Markers.size(), Both.Markers.size());
}

TEST(Selector, LimitModeBoundsExpectedIntervals) {
  Workload W = WorkloadRegistry::create("gzip");
  Profiled S(*W.Program, W.Ref);
  SelectorConfig C;
  C.ILower = 10000;
  C.Limit = true;
  C.MaxLimit = 200000;
  SelectionResult R = selectMarkers(*S.Graph, C);
  ASSERT_GT(R.Markers.size(), 0u);
  // No marker promises intervals beyond max-limit...
  for (const Marker &M : R.Markers.markers())
    EXPECT_LE(M.ExpectedLen, static_cast<double>(C.MaxLimit));
  // ...and the actual VLI run respects the bound (x2 slack for boundary
  // blocks and trip-count noise around the profile averages).
  MarkerRun Run = runMarkerIntervals(*S.Bin, S.Loops, *S.Graph, R.Markers,
                                     W.Ref, /*CollectBbv=*/false);
  for (size_t I = 1; I + 1 < Run.Intervals.size(); ++I)
    EXPECT_LE(Run.Intervals[I].NumInstrs, 2 * C.MaxLimit);
}

TEST(Selector, LimitModeGroupsSmallLoopIterations) {
  // One giant stable loop of tiny iterations: no-limit finds nothing below
  // the whole loop; limit mode must emit a grouped body marker.
  ProgramBuilder PB("bigloop");
  uint32_t Main = PB.declare("main");
  PB.define(Main, [&](FunctionBuilder &F) {
    F.loop(TripCountSpec::constant(50000), [&] { F.code(10); });
  });
  auto P = PB.take();
  Profiled S(*P, WorkloadInput("t", 1));
  SelectorConfig C;
  C.ILower = 10000;
  C.Limit = true;
  C.MaxLimit = 100000;
  SelectionResult R = selectMarkers(*S.Graph, C);
  bool FoundGrouped = false;
  for (const Marker &M : R.Markers.markers())
    if (M.GroupN > 1)
      FoundGrouped = true;
  EXPECT_TRUE(FoundGrouped);
}

TEST(Selector, FlatCovThresholdAblationShrinksOrKeepsMarkers) {
  Workload W = WorkloadRegistry::create("gzip");
  Profiled S(*W.Program, W.Ref);
  SelectorConfig C;
  C.ILower = 10000;
  SelectionResult Scaled = selectMarkers(*S.Graph, C);
  C.FlatCovThreshold = true;
  SelectionResult Flat = selectMarkers(*S.Graph, C);
  EXPECT_LE(Flat.Markers.size(), Scaled.Markers.size());
}

//===----------------------------------------------------------------------===//
// Runtime: VLI cutting
//===----------------------------------------------------------------------===//

TEST(Runtime, IntervalsPartitionExecution) {
  Workload W = WorkloadRegistry::create("gzip");
  Profiled S(*W.Program, W.Ref);
  SelectorConfig C;
  C.ILower = 10000;
  SelectionResult R = selectMarkers(*S.Graph, C);
  ASSERT_GT(R.Markers.size(), 0u);
  MarkerRun Run = runMarkerIntervals(*S.Bin, S.Loops, *S.Graph, R.Markers,
                                     W.Ref, /*CollectBbv=*/false);
  EXPECT_EQ(totalInstructions(Run.Intervals), Run.Run.TotalInstrs);
  // Intervals are contiguous.
  uint64_t Pos = 0;
  for (const IntervalRecord &Iv : Run.Intervals) {
    EXPECT_EQ(Iv.StartInstr, Pos);
    Pos += Iv.NumInstrs;
  }
}

TEST(Runtime, PhaseIdsComeFromMarkers) {
  Workload W = WorkloadRegistry::create("gzip");
  Profiled S(*W.Program, W.Ref);
  SelectorConfig C;
  C.ILower = 10000;
  SelectionResult R = selectMarkers(*S.Graph, C);
  MarkerRun Run = runMarkerIntervals(*S.Bin, S.Loops, *S.Graph, R.Markers,
                                     W.Ref, false);
  ASSERT_GT(Run.Intervals.size(), 1u);
  for (size_t I = 1; I < Run.Intervals.size(); ++I) {
    int32_t P = Run.Intervals[I].PhaseId;
    EXPECT_GE(P, 0);
    EXPECT_LT(P, static_cast<int32_t>(R.Markers.size()));
  }
}

TEST(Runtime, GroupedMarkerMergesIterations) {
  ProgramBuilder PB("bigloop");
  uint32_t Main = PB.declare("main");
  PB.define(Main, [&](FunctionBuilder &F) {
    F.loop(TripCountSpec::constant(50000), [&] { F.code(10); });
  });
  auto P = PB.take();
  Profiled S(*P, WorkloadInput("t", 1));
  SelectorConfig C;
  C.ILower = 10000;
  C.Limit = true;
  C.MaxLimit = 100000;
  SelectionResult R = selectMarkers(*S.Graph, C);
  MarkerRun Run = runMarkerIntervals(*S.Bin, S.Loops, *S.Graph, R.Markers,
                                     WorkloadInput("t", 1), false);
  ASSERT_GT(Run.Intervals.size(), 2u);
  // All interior intervals land between ilower and max-limit.
  for (size_t I = 1; I + 1 < Run.Intervals.size(); ++I) {
    EXPECT_GE(Run.Intervals[I].NumInstrs, C.ILower / 2);
    EXPECT_LE(Run.Intervals[I].NumInstrs, C.MaxLimit * 2);
  }
}

TEST(Runtime, CrossInputMarkersStillFire) {
  // Select on train, apply to ref (the paper's cross-train setting).
  Workload W = WorkloadRegistry::create("gzip");
  Profiled Train(*W.Program, W.Train);
  SelectorConfig C;
  C.ILower = 10000;
  SelectionResult R = selectMarkers(*Train.Graph, C);
  ASSERT_GT(R.Markers.size(), 0u);
  MarkerRun Run = runMarkerIntervals(*Train.Bin, Train.Loops, *Train.Graph,
                                     R.Markers, W.Ref, false);
  EXPECT_GT(Run.Intervals.size(), 2u);
}

//===----------------------------------------------------------------------===//
// Cross-binary portability (Sec. 5.3.1 / Fig. 4)
//===----------------------------------------------------------------------===//

TEST(CrossBinary, PortableRoundTripSameBinary) {
  Workload W = WorkloadRegistry::create("gzip");
  Profiled S(*W.Program, W.Ref);
  SelectorConfig C;
  C.ILower = 10000;
  SelectionResult R = selectMarkers(*S.Graph, C);
  auto Portable = toPortable(R.Markers, *S.Graph, *S.Bin);
  MarkerSet Back = fromPortable(Portable, *S.Graph, *S.Bin, S.Loops);
  ASSERT_EQ(Back.size(), R.Markers.size());
  for (size_t I = 0; I < Back.size(); ++I) {
    EXPECT_EQ(Back[I].From, R.Markers[I].From);
    EXPECT_EQ(Back[I].To, R.Markers[I].To);
    EXPECT_EQ(Back[I].GroupN, R.Markers[I].GroupN);
  }
}

TEST(CrossBinary, IdenticalFiringSequenceAcrossOptLevels) {
  // The paper's validation: select markers on one compilation, map them to
  // the other; the two executed marker traces must match exactly.
  Workload W = WorkloadRegistry::create("gzip");
  Profiled S0(*W.Program, W.Train, LoweringOptions::O0());
  Profiled S2(*W.Program, W.Train, LoweringOptions::O2());

  SelectorConfig C;
  C.ILower = 20000; // O0 counts are ~2x; select against the O0 profile.
  SelectionResult R = selectMarkers(*S0.Graph, C);
  ASSERT_GT(R.Markers.size(), 0u);

  auto Portable = toPortable(R.Markers, *S0.Graph, *S0.Bin);
  MarkerSet M2 = fromPortable(Portable, *S2.Graph, *S2.Bin, S2.Loops);
  ASSERT_EQ(M2.size(), R.Markers.size());

  MarkerRun Run0 = runMarkerIntervals(*S0.Bin, S0.Loops, *S0.Graph,
                                      R.Markers, W.Train, false, true);
  MarkerRun Run2 = runMarkerIntervals(*S2.Bin, S2.Loops, *S2.Graph, M2,
                                      W.Train, false, true);
  EXPECT_EQ(Run0.Firings, Run2.Firings);
  EXPECT_GT(Run0.Firings.size(), 0u);
}
