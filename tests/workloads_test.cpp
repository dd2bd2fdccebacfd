//===- tests/workloads_test.cpp - per-workload invariants -----------------==//
//
// Parameterized over all 16 workloads: every program verifies, lowers
// cleanly at both opt levels, runs deterministically within size bounds,
// yields a profitable marker selection on its train input, and the
// markers transfer to the ref input. These are the preconditions every
// figure harness relies on.
//
//===----------------------------------------------------------------------===//

#include "ir/Lowering.h"
#include "ir/Verify.h"
#include "markers/Pipeline.h"
#include "markers/Selector.h"
#include "phase/Metrics.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace spm;

namespace {

class WorkloadTest : public ::testing::TestWithParam<std::string> {
protected:
  Workload W = WorkloadRegistry::create(GetParam());
};

} // namespace

TEST_P(WorkloadTest, ProgramVerifies) {
  EXPECT_EQ(verify(*W.Program), "");
}

TEST_P(WorkloadTest, LowersAndVerifiesBothOptLevels) {
  for (const auto &Opts : {LoweringOptions::O0(), LoweringOptions::O2()}) {
    auto B = lower(*W.Program, Opts);
    EXPECT_EQ(verify(*B), "") << "opt " << Opts.OptLevel;
    EXPECT_GT(LoopIndex::build(*B).size(), 0u) << "no loops at all";
  }
}

TEST_P(WorkloadTest, RefRunSizeInBounds) {
  auto B = lower(*W.Program, LoweringOptions::O2());
  ExecutionObserver Nop;
  RunResult R = Interpreter(*B, W.Ref).runFast(Nop);
  // The suite is calibrated to ~2-5M instructions per ref run: big enough
  // for hundreds of 10K intervals, small enough that every figure harness
  // finishes in seconds.
  EXPECT_GE(R.TotalInstrs, 1'500'000u) << W.displayName();
  EXPECT_LE(R.TotalInstrs, 8'000'000u) << W.displayName();
  EXPECT_GT(R.TotalMemAccesses, 100'000u);
}

TEST_P(WorkloadTest, TrainSmallerThanRef) {
  auto B = lower(*W.Program, LoweringOptions::O2());
  ExecutionObserver Nop1, Nop2;
  RunResult T = Interpreter(*B, W.Train).runFast(Nop1);
  RunResult R = Interpreter(*B, W.Ref).runFast(Nop2);
  EXPECT_LT(T.TotalInstrs, R.TotalInstrs);
  EXPECT_GT(T.TotalInstrs, 100'000u);
}

TEST_P(WorkloadTest, TrainMarkersExistAndFireOnRef) {
  auto B = lower(*W.Program, LoweringOptions::O2());
  LoopIndex Loops = LoopIndex::build(*B);
  auto G = buildCallLoopGraph(*B, Loops, W.Train);
  SelectorConfig C;
  C.ILower = 10000;
  SelectionResult Sel = selectMarkers(*G, C);
  ASSERT_GT(Sel.Markers.size(), 0u) << "no markers on " << W.displayName();

  MarkerRun Run = runMarkerIntervals(*B, Loops, *G, Sel.Markers, W.Ref,
                                     /*CollectBbv=*/false);
  EXPECT_EQ(totalInstructions(Run.Intervals), Run.Run.TotalInstrs);
  // Cross-input firing: markers chosen on train must partition ref into a
  // meaningful number of intervals (the paper's cross-train claim).
  EXPECT_GE(Run.Intervals.size(), 10u) << W.displayName();
}

TEST_P(WorkloadTest, PhasesMoreHomogeneousThanFixed10K) {
  auto B = lower(*W.Program, LoweringOptions::O2());
  LoopIndex Loops = LoopIndex::build(*B);
  auto G = buildCallLoopGraph(*B, Loops, W.Train);
  SelectorConfig C;
  C.ILower = 10000;
  SelectionResult Sel = selectMarkers(*G, C);
  MarkerRun Run =
      runMarkerIntervals(*B, Loops, *G, Sel.Markers, W.Ref, false);
  ClassificationSummary S = summarizeClassification(
      Run.Intervals, phasesFromRecords(Run.Intervals), cpiMetric);

  std::vector<IntervalRecord> Fixed =
      runFixedIntervals(*B, W.Ref, 10000, false);
  double Whole10K = wholeProgramCov(Fixed, cpiMetric);
  // The paper's Fig. 9 claim: per-phase variation is below the program's
  // overall variability at comparable granularity.
  EXPECT_LT(S.OverallCov, Whole10K) << W.displayName();
}

TEST_P(WorkloadTest, CrossBinaryMarkerTraceIdentical) {
  auto B0 = lower(*W.Program, LoweringOptions::O0());
  auto B2 = lower(*W.Program, LoweringOptions::O2());
  LoopIndex L0 = LoopIndex::build(*B0);
  LoopIndex L2 = LoopIndex::build(*B2);
  auto G0 = buildCallLoopGraph(*B0, L0, W.Train);
  auto G2 = std::make_unique<CallLoopGraph>(*B2, L2);
  SelectorConfig C;
  C.ILower = 20000; // O0 inflates counts ~2x.
  SelectionResult Sel = selectMarkers(*G0, C);
  if (Sel.Markers.empty())
    GTEST_SKIP() << "no markers at O0 scale for " << W.displayName();

  MarkerSet M2 =
      fromPortable(toPortable(Sel.Markers, *G0, *B0), *G2, *B2, L2);
  ASSERT_EQ(M2.size(), Sel.Markers.size());
  MarkerRun R0 = runMarkerIntervals(*B0, L0, *G0, Sel.Markers, W.Train,
                                    false, /*RecordFirings=*/true);
  MarkerRun R2 = runMarkerIntervals(*B2, L2, *G2, M2, W.Train, false, true);
  EXPECT_EQ(R0.Firings, R2.Firings) << W.displayName();
  EXPECT_GT(R0.Firings.size(), 0u);
}

TEST_P(WorkloadTest, SelectionIsDeterministic) {
  auto B = lower(*W.Program, LoweringOptions::O2());
  LoopIndex Loops = LoopIndex::build(*B);
  auto G1 = buildCallLoopGraph(*B, Loops, W.Train);
  auto G2 = buildCallLoopGraph(*B, Loops, W.Train);
  SelectorConfig C;
  C.ILower = 10000;
  SelectionResult R1 = selectMarkers(*G1, C);
  SelectionResult R2 = selectMarkers(*G2, C);
  ASSERT_EQ(R1.Markers.size(), R2.Markers.size());
  for (size_t I = 0; I < R1.Markers.size(); ++I) {
    EXPECT_EQ(R1.Markers[I].From, R2.Markers[I].From);
    EXPECT_EQ(R1.Markers[I].To, R2.Markers[I].To);
    EXPECT_EQ(R1.Markers[I].GroupN, R2.Markers[I].GroupN);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, WorkloadTest,
    ::testing::ValuesIn(WorkloadRegistry::allNames()),
    [](const ::testing::TestParamInfo<std::string> &Info) {
      return Info.param;
    });

TEST(WorkloadRegistry, SuitesAreConsistent) {
  EXPECT_EQ(WorkloadRegistry::behaviorSuite().size(), 11u);
  EXPECT_EQ(WorkloadRegistry::reconfigSuite().size(), 5u);
  EXPECT_EQ(WorkloadRegistry::allNames().size(), 16u);
  for (const std::string &N : WorkloadRegistry::allNames()) {
    Workload W = WorkloadRegistry::create(N);
    EXPECT_EQ(W.Name, N);
    EXPECT_NE(W.Train.name(), W.Ref.name());
    EXPECT_NE(W.Train.seed(), W.Ref.seed());
  }
}

TEST_P(WorkloadTest, TrainMarkersGeneralizeToUnseenInput) {
  // Markers are tuned against train and evaluated on ref throughout the
  // experiments; a third, never-seen input (midpoint parameters, fresh
  // seed) must also be partitioned into homogeneous phases.
  auto B = lower(*W.Program, LoweringOptions::O2());
  LoopIndex Loops = LoopIndex::build(*B);
  auto G = buildCallLoopGraph(*B, Loops, W.Train);
  SelectorConfig C;
  C.ILower = 10000;
  MarkerSet M = selectMarkers(*G, C).Markers;
  ASSERT_FALSE(M.empty());

  WorkloadInput Mid = W.midInput();
  MarkerRun R = runMarkerIntervals(*B, Loops, *G, M, Mid, false);
  EXPECT_GE(R.Intervals.size(), 5u) << "markers must fire on the new input";

  ClassificationSummary S = summarizeClassification(
      R.Intervals, phasesFromRecords(R.Intervals), cpiMetric);
  double Whole10K =
      wholeProgramCov(runFixedIntervals(*B, Mid, 10000, false), cpiMetric);
  EXPECT_LT(S.OverallCov, Whole10K) << W.displayName();
}
