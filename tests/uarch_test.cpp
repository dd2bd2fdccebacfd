//===- tests/uarch_test.cpp - cache / predictor / perf model tests --------==//

#include "ir/Builder.h"
#include "ir/Lowering.h"
#include "uarch/BranchPredictor.h"
#include "uarch/Cache.h"
#include "uarch/PerfModel.h"
#include "vm/Interpreter.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace spm;

//===----------------------------------------------------------------------===//
// CacheModel
//===----------------------------------------------------------------------===//

TEST(Cache, ColdMissThenHit) {
  CacheModel C({16, 2, 64});
  EXPECT_FALSE(C.access(0x1000));
  EXPECT_TRUE(C.access(0x1000));
  EXPECT_TRUE(C.access(0x1030)); // Same 64B block.
  EXPECT_FALSE(C.access(0x1040)); // Next block.
  EXPECT_EQ(C.stats().Accesses, 4u);
  EXPECT_EQ(C.stats().Misses, 2u);
}

TEST(Cache, LruEvictsOldest) {
  CacheModel C({1, 2, 64}); // One set, two ways.
  C.access(0 * 64);
  C.access(1 * 64);
  C.access(0 * 64);          // Touch 0: now 1 is LRU.
  EXPECT_FALSE(C.access(2 * 64)); // Evicts 1.
  EXPECT_TRUE(C.access(0 * 64));  // 0 survived.
  EXPECT_FALSE(C.access(1 * 64)); // 1 was evicted.
}

TEST(Cache, DirectMappedConflicts) {
  CacheModel C({16, 1, 64});
  uint64_t A = 0;
  uint64_t B = 16 * 64; // Same set, different tag.
  C.access(A);
  C.access(B);
  EXPECT_FALSE(C.access(A)); // Conflict-evicted.
}

TEST(Cache, HigherAssocNeverMoreMissesOnSameStream) {
  // LRU caches have the inclusion property across associativity.
  std::vector<CacheConfig> Sweep = CacheConfig::reconfigSweep();
  MultiCacheProbe Probe(Sweep);
  Rng R(11);
  for (int I = 0; I < 200000; ++I)
    Probe.access((R.nextBelow(3000) * 64) + (1ull << 32));
  std::vector<CacheStats> Stats = Probe.statsSnapshot();
  for (size_t I = 1; I < Stats.size(); ++I)
    EXPECT_LE(Stats[I].Misses, Stats[I - 1].Misses)
        << "assoc " << Sweep[I].Assoc;
}

TEST(Cache, ReconfigSweepGeometry) {
  auto Sweep = CacheConfig::reconfigSweep();
  ASSERT_EQ(Sweep.size(), 8u);
  EXPECT_EQ(Sweep.front().sizeBytes(), 32u * 1024);  // 32KB.
  EXPECT_EQ(Sweep.back().sizeBytes(), 256u * 1024);  // 256KB.
  for (const CacheConfig &C : Sweep) {
    EXPECT_EQ(C.Sets, 512u);
    EXPECT_EQ(C.BlockBytes, 64u);
  }
}

TEST(Cache, ConfigureFlushesContents) {
  CacheModel C({16, 2, 64});
  C.access(0x40);
  C.configure({16, 4, 64});
  EXPECT_FALSE(C.access(0x40)); // Cold again after reconfiguration.
}

TEST(Cache, WorkingSetFitsMeansNoCapacityMisses) {
  CacheModel C({512, 2, 64}); // 64KB.
  // 32KB working set: after the cold pass everything hits.
  for (int Pass = 0; Pass < 3; ++Pass)
    for (uint64_t A = 0; A < 32 * 1024; A += 64)
      C.access(A);
  EXPECT_EQ(C.stats().Misses, 512u); // Only the cold pass.
}

//===----------------------------------------------------------------------===//
// Branch predictor
//===----------------------------------------------------------------------===//

TEST(BranchPredictor, LearnsStronglyBiasedBranch) {
  BranchPredictor2Bit P;
  for (int I = 0; I < 100; ++I)
    P.predictAndUpdate(0x1000, true);
  EXPECT_LT(P.mispredicts(), 3u);
}

TEST(BranchPredictor, LoopExitCostsOneMiss) {
  BranchPredictor2Bit P;
  // 10 iterations taken, then one not-taken exit, repeated.
  uint64_t MissAtStable = 0;
  for (int Rep = 0; Rep < 20; ++Rep) {
    for (int I = 0; I < 10; ++I)
      P.predictAndUpdate(0x2000, true);
    uint64_t Before = P.mispredicts();
    P.predictAndUpdate(0x2000, false);
    if (Rep > 2)
      MissAtStable += P.mispredicts() - Before;
  }
  // A 2-bit counter mispredicts each loop exit exactly once in steady state.
  EXPECT_EQ(MissAtStable, 17u);
}

TEST(BranchPredictor, RandomBranchMispredictsHalf) {
  BranchPredictor2Bit P;
  Rng R(5);
  const int N = 20000;
  for (int I = 0; I < N; ++I)
    P.predictAndUpdate(0x3000, R.nextBool(0.5));
  double Rate = static_cast<double>(P.mispredicts()) / N;
  EXPECT_NEAR(Rate, 0.5, 0.05);
}

//===----------------------------------------------------------------------===//
// PerfModel
//===----------------------------------------------------------------------===//

TEST(PerfModel, CpiAtLeastBase) {
  Workload W = WorkloadRegistry::create("gzip");
  auto B = lower(*W.Program, LoweringOptions::O2());
  PerfModel Perf;
  Interpreter(*B, W.Train).runFast(Perf);
  PerfMetrics M = Perf.metrics();
  EXPECT_GE(M.Cpi, 1.0);
  EXPECT_LT(M.Cpi, 20.0);
  EXPECT_GT(M.L1MissRate, 0.0);
  EXPECT_LT(M.L1MissRate, 1.0);
}

TEST(PerfModel, CountersMatchRunResult) {
  Workload W = WorkloadRegistry::create("gzip");
  auto B = lower(*W.Program, LoweringOptions::O2());
  PerfModel Perf;
  RunResult R = Interpreter(*B, W.Train).runFast(Perf);
  EXPECT_EQ(Perf.counters().Instrs, R.TotalInstrs);
  EXPECT_EQ(Perf.counters().L1Accesses, R.TotalMemAccesses);
}

TEST(PerfModel, MissesRaiseCpi) {
  // A streaming workload over a huge region has a higher CPI than a tiny
  // hot loop with the same instruction mix.
  auto MakeRun = [](uint64_t RegionBytes) {
    ProgramBuilder PB("p");
    uint32_t R = PB.region(MemRegionSpec::fixed("r", RegionBytes));
    uint32_t Main = PB.declare("main");
    PB.define(Main, [&](FunctionBuilder &F) {
      F.loop(TripCountSpec::constant(30000), [&] {
        MemAccessSpec M;
        M.RegionIdx = R;
        M.Pat = MemAccessSpec::Pattern::Random;
        F.code(3, 0, {M});
      });
    });
    auto P = PB.take();
    auto B = lower(*P, LoweringOptions::O2());
    PerfModel Perf;
    Interpreter(*B, WorkloadInput("t", 1)).runFast(Perf);
    return Perf.metrics();
  };
  PerfMetrics Small = MakeRun(4 * 1024);
  PerfMetrics Large = MakeRun(8 * 1024 * 1024);
  EXPECT_GT(Large.L1MissRate, Small.L1MissRate + 0.3);
  EXPECT_GT(Large.Cpi, Small.Cpi + 1.0);
}

TEST(PerfModel, DeltaMetricsConsistent) {
  Workload W = WorkloadRegistry::create("gzip");
  auto B = lower(*W.Program, LoweringOptions::O2());
  PerfModel Perf;
  Interpreter Interp(*B, W.Train);
  Interp.runFast(Perf, 50000);
  PerfCounters Mid = Perf.counters();
  PerfCounters Zero;
  PerfMetrics All = PerfModel::metricsFor(Mid - Zero);
  EXPECT_DOUBLE_EQ(All.Cpi, Perf.metrics().Cpi);
}

TEST(PerfModel, L2CountersPopulateWhenEnabled) {
  Workload W = WorkloadRegistry::create("gzip");
  auto B = lower(*W.Program, LoweringOptions::O2());
  PerfModelOptions Opts;
  Opts.EnableL2 = true;
  PerfModel Perf(Opts);
  Interpreter(*B, W.Train).runFast(Perf);
  const PerfCounters &C = Perf.counters();
  EXPECT_GT(C.L2Accesses, 0u);
  EXPECT_EQ(C.L2Accesses, C.L1Misses) << "every L1 miss probes the L2";
  EXPECT_LE(C.L2Misses, C.L2Accesses);
  EXPECT_GT(C.L2Accesses, C.L2Misses) << "a 512KB L2 must catch something";
}

TEST(PerfModel, NoL2LeavesCountersZero) {
  Workload W = WorkloadRegistry::create("gzip");
  auto B = lower(*W.Program, LoweringOptions::O2());
  PerfModel Perf;
  Interpreter(*B, W.Train).runFast(Perf);
  EXPECT_EQ(Perf.counters().L2Accesses, 0u);
  EXPECT_EQ(Perf.counters().L2Misses, 0u);
}

TEST(PerfModel, L2LowersCpiOnCacheHostileCode) {
  // mcf thrashes the 64KB L1; most of its misses land in a 512KB L2 at a
  // third of the memory penalty, so CPI must drop.
  Workload W = WorkloadRegistry::create("mcf");
  auto B = lower(*W.Program, LoweringOptions::O2());
  PerfModel L1Only;
  Interpreter(*B, W.Train).runFast(L1Only);
  PerfModelOptions Opts;
  Opts.EnableL2 = true;
  PerfModel WithL2(Opts);
  Interpreter(*B, W.Train).runFast(WithL2);
  EXPECT_LT(WithL2.metrics().Cpi, L1Only.metrics().Cpi);
}

TEST(PerfCounters, CyclesPricingWithAndWithoutL2) {
  PerfCounters C;
  C.BaseCycles = 1000;
  C.L1Misses = 100;
  // Without L2 traffic: every L1 miss pays the full penalty.
  EXPECT_EQ(C.cycles(24, 8), 1000u + 100 * 24);
  // With L2 traffic: 80 L2 hits at 24/3, 20 L2 misses at 2*24.
  C.L2Accesses = 100;
  C.L2Misses = 20;
  EXPECT_EQ(C.cycles(24, 8), 1000u + 80 * 8 + 20 * 48);
}
