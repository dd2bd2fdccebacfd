//===- tests/trace_test.cpp - interval framing & BBV collection -----------==//

#include "ir/Builder.h"
#include "ir/Lowering.h"
#include "markers/Pipeline.h"
#include "markers/Selector.h"
#include "trace/Interval.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace spm;

namespace {

struct GzipRun {
  Workload W = WorkloadRegistry::create("gzip");
  std::unique_ptr<Binary> Bin = lower(*W.Program, LoweringOptions::O2());
};

} // namespace

TEST(IntervalBuilder, FixedLengthPartitionsExecution) {
  GzipRun G;
  std::vector<IntervalRecord> Ivs =
      runFixedIntervals(*G.Bin, G.W.Train, 5000, false);
  ASSERT_GT(Ivs.size(), 10u);
  uint64_t Pos = 0;
  for (const IntervalRecord &R : Ivs) {
    EXPECT_EQ(R.StartInstr, Pos);
    Pos += R.NumInstrs;
  }
  ExecutionObserver Nop;
  RunResult Run = Interpreter(*G.Bin, G.W.Train).runFast(Nop);
  EXPECT_EQ(Pos, Run.TotalInstrs);
}

TEST(IntervalBuilder, FixedLengthRespectsMinimum) {
  GzipRun G;
  std::vector<IntervalRecord> Ivs =
      runFixedIntervals(*G.Bin, G.W.Train, 5000, false);
  // Every interval except the last reaches the target (cuts happen at the
  // first block boundary at or past it).
  for (size_t I = 0; I + 1 < Ivs.size(); ++I) {
    EXPECT_GE(Ivs[I].NumInstrs, 5000u);
    EXPECT_LT(Ivs[I].NumInstrs, 5000u + 200u); // One block of slack.
  }
}

TEST(IntervalBuilder, PerfDeltasSumToTotals) {
  GzipRun G;
  std::vector<IntervalRecord> Ivs =
      runFixedIntervals(*G.Bin, G.W.Train, 10000, false);
  PerfCounters Sum;
  for (const IntervalRecord &R : Ivs) {
    Sum.Instrs += R.Perf.Instrs;
    Sum.BaseCycles += R.Perf.BaseCycles;
    Sum.L1Accesses += R.Perf.L1Accesses;
    Sum.L1Misses += R.Perf.L1Misses;
    Sum.Branches += R.Perf.Branches;
    Sum.Mispredicts += R.Perf.Mispredicts;
  }
  PerfModel Whole;
  Interpreter(*G.Bin, G.W.Train).runFast(Whole);
  EXPECT_EQ(Sum.Instrs, Whole.counters().Instrs);
  EXPECT_EQ(Sum.BaseCycles, Whole.counters().BaseCycles);
  EXPECT_EQ(Sum.L1Accesses, Whole.counters().L1Accesses);
  EXPECT_EQ(Sum.L1Misses, Whole.counters().L1Misses);
  EXPECT_EQ(Sum.Branches, Whole.counters().Branches);
  EXPECT_EQ(Sum.Mispredicts, Whole.counters().Mispredicts);
}

TEST(IntervalBuilder, IntervalInstrsMatchPerfInstrs) {
  GzipRun G;
  std::vector<IntervalRecord> Ivs =
      runFixedIntervals(*G.Bin, G.W.Train, 7000, false);
  for (const IntervalRecord &R : Ivs)
    EXPECT_EQ(R.NumInstrs, R.Perf.Instrs);
}

TEST(IntervalBuilder, BbvWeightsAreInstructionCounts) {
  GzipRun G;
  std::vector<IntervalRecord> Ivs =
      runFixedIntervals(*G.Bin, G.W.Train, 10000, true);
  for (const IntervalRecord &R : Ivs) {
    ASSERT_FALSE(R.Vector.empty());
    double Sum = 0;
    uint32_t PrevId = 0;
    bool First = true;
    for (const auto &[Block, W] : R.Vector) {
      EXPECT_GT(W, 0.0);
      if (!First) {
        EXPECT_GT(Block, PrevId) << "BBV must be sorted by block id";
      }
      PrevId = Block;
      First = false;
      Sum += W;
    }
    // Weights are executions x block size = the interval's instructions.
    EXPECT_NEAR(Sum, static_cast<double>(R.NumInstrs), 1e-6);
  }
}

TEST(IntervalBuilder, BbvDisabledLeavesVectorsEmpty) {
  GzipRun G;
  std::vector<IntervalRecord> Ivs =
      runFixedIntervals(*G.Bin, G.W.Train, 10000, false);
  for (const IntervalRecord &R : Ivs)
    EXPECT_TRUE(R.Vector.empty());
}

TEST(IntervalBuilder, ConsecutiveCutsCollapse) {
  PerfModel Perf;
  IntervalBuilder B = IntervalBuilder::markerDriven(&Perf, false);
  LoweredBlock Blk;
  Blk.NumInstrs = 10;
  Blk.GlobalId = 0;

  B.onBlock(Blk); // 10 instrs into the prologue interval.
  B.requestCut(3);
  B.requestCut(7); // No block in between: later marker wins.
  B.onBlock(Blk);
  B.onRunEnd(20);

  ASSERT_EQ(B.intervals().size(), 2u);
  EXPECT_EQ(B.intervals()[0].PhaseId, ProloguePhase);
  EXPECT_EQ(B.intervals()[0].NumInstrs, 10u);
  EXPECT_EQ(B.intervals()[1].PhaseId, 7);
  EXPECT_EQ(B.intervals()[1].NumInstrs, 10u);
}

TEST(IntervalBuilder, CutBeforeAnyBlockProducesNothing) {
  IntervalBuilder B = IntervalBuilder::markerDriven(nullptr, false);
  B.requestCut(1);
  B.onRunEnd(0);
  EXPECT_TRUE(B.intervals().empty());
}

TEST(IntervalBuilder, RestoreRejectsPartialThatDoesNotFit) {
  constexpr size_t NumBlocks = 4;
  IntervalBuilderState St;
  St.CurInstrs = 10;
  St.Partial = {{1, 4.0}, {3, 6.0}};
  EXPECT_TRUE(IntervalBuilder::markerDriven(nullptr, true)
                  .restoreState(St, NumBlocks));
  // BBV collection off: there is nothing a partial vector could restore.
  EXPECT_FALSE(IntervalBuilder::markerDriven(nullptr, false)
                   .restoreState(St, NumBlocks));

  IntervalBuilderState OutOfRange = St;
  OutOfRange.Partial.push_back({NumBlocks, 1.0});
  EXPECT_FALSE(IntervalBuilder::markerDriven(nullptr, true)
                   .restoreState(OutOfRange, NumBlocks));

  IntervalBuilderState Dup = St;
  Dup.Partial.push_back({1, 2.0});
  EXPECT_FALSE(IntervalBuilder::markerDriven(nullptr, true)
                   .restoreState(Dup, NumBlocks));
}

TEST(IntervalBuilder, TotalInstructionsHelper) {
  std::vector<IntervalRecord> Ivs(3);
  Ivs[0].NumInstrs = 5;
  Ivs[1].NumInstrs = 7;
  Ivs[2].NumInstrs = 11;
  EXPECT_EQ(totalInstructions(Ivs), 23u);
  EXPECT_EQ(totalInstructions({}), 0u);
}

TEST(IntervalBuilder, MarkerModeMatchesFixedTotals) {
  // Marker-cut and fixed-cut runs of the same binary/input account for
  // exactly the same instruction total.
  GzipRun G;
  LoopIndex Loops = LoopIndex::build(*G.Bin);
  auto Graph = buildCallLoopGraph(*G.Bin, Loops, G.W.Train);
  SelectorConfig C;
  C.ILower = 10000;
  MarkerSet M = selectMarkers(*Graph, C).Markers;
  MarkerRun MR =
      runMarkerIntervals(*G.Bin, Loops, *Graph, M, G.W.Train, false);
  std::vector<IntervalRecord> Fx =
      runFixedIntervals(*G.Bin, G.W.Train, 10000, false);
  EXPECT_EQ(totalInstructions(MR.Intervals), totalInstructions(Fx));
}
