//===- tests/vm_test.cpp - interpreter unit tests -------------------------==//

#include "ir/Builder.h"
#include "ir/Lowering.h"
#include "vm/Interpreter.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace spm;

namespace {

/// Observer that records the full event sequence for assertions.
class RecordingObserver : public ExecutionObserver {
public:
  struct Event {
    enum class Kind { Block, Mem, Branch, Call, Ret } K;
    uint64_t A = 0; ///< Block addr / mem addr / branch pc / callee.
    uint64_t B = 0; ///< Branch target.
    bool Flag = false;     ///< Taken / IsStore.
    bool Backward = false; ///< Branches only.
  };

  void onBlock(const LoweredBlock &Blk) override {
    Events.push_back({Event::Kind::Block, Blk.Addr, 0, false, false});
    Instrs += Blk.NumInstrs;
  }
  void onMemAccess(uint64_t Addr, bool IsStore) override {
    Events.push_back({Event::Kind::Mem, Addr, 0, IsStore, false});
  }
  void onBranch(uint64_t Pc, uint64_t Target, bool Taken, bool Backward,
                bool Conditional) override {
    (void)Conditional;
    Events.push_back({Event::Kind::Branch, Pc, Target, Taken, Backward});
  }
  void onCall(uint64_t Site, uint32_t Callee) override {
    Events.push_back({Event::Kind::Call, Callee, Site, false, false});
  }
  void onReturn(uint32_t Callee) override {
    Events.push_back({Event::Kind::Ret, Callee, 0, false, false});
  }
  void onRunEnd(uint64_t Total) override { ReportedTotal = Total; }

  std::vector<Event> Events;
  uint64_t Instrs = 0;
  uint64_t ReportedTotal = 0;
};

std::unique_ptr<SourceProgram> simpleLoopProgram(uint64_t Trips) {
  ProgramBuilder PB("p");
  uint32_t Main = PB.declare("main");
  PB.define(Main, [&](FunctionBuilder &F) {
    F.loop(TripCountSpec::constant(Trips), [&] { F.code(3); });
  });
  return PB.take();
}

} // namespace

TEST(Interpreter, DeterministicAcrossRuns) {
  Workload W = WorkloadRegistry::create("gzip");
  auto B = lower(*W.Program, LoweringOptions::O2());
  RecordingObserver R1, R2;
  RunResult A = Interpreter(*B, W.Ref).runFast(R1);
  RunResult C = Interpreter(*B, W.Ref).runFast(R2);
  EXPECT_EQ(A.TotalInstrs, C.TotalInstrs);
  EXPECT_EQ(A.TotalBlocks, C.TotalBlocks);
  EXPECT_EQ(A.TotalMemAccesses, C.TotalMemAccesses);
  ASSERT_EQ(R1.Events.size(), R2.Events.size());
  for (size_t I = 0; I < R1.Events.size(); I += 997)
    EXPECT_EQ(R1.Events[I].A, R2.Events[I].A) << "event " << I;
}

TEST(Interpreter, SeedChangesExecution) {
  Workload W = WorkloadRegistry::create("gzip");
  auto B = lower(*W.Program, LoweringOptions::O2());
  WorkloadInput Other = W.Ref;
  Other.setSeed(W.Ref.seed() + 1);
  RecordingObserver R1, R2;
  RunResult A = Interpreter(*B, W.Ref).runFast(R1);
  RunResult C = Interpreter(*B, Other).runFast(R2);
  // Different seeds perturb uniform trip counts: totals should differ.
  EXPECT_NE(A.TotalInstrs, C.TotalInstrs);
}

TEST(Interpreter, LoopExecutesExactTripCount) {
  auto P = simpleLoopProgram(10);
  auto B = lower(*P, LoweringOptions::O2());
  RecordingObserver R;
  Interpreter(*B, WorkloadInput("t", 1)).runFast(R);
  // Count backward branches: one per iteration, taken on all but the last.
  int Backs = 0, Taken = 0;
  for (const auto &E : R.Events)
    if (E.K == RecordingObserver::Event::Kind::Branch && E.Backward) {
      ++Backs;
      Taken += E.Flag;
    }
  EXPECT_EQ(Backs, 10);
  EXPECT_EQ(Taken, 9);
}

TEST(Interpreter, ZeroTripLoopSkipsEntirely) {
  auto P = simpleLoopProgram(0);
  auto B = lower(*P, LoweringOptions::O2());
  RecordingObserver R;
  Interpreter(*B, WorkloadInput("t", 1)).runFast(R);
  for (const auto &E : R.Events)
    EXPECT_NE(E.K, RecordingObserver::Event::Kind::Branch);
}

TEST(Interpreter, ReportedTotalsConsistent) {
  Workload W = WorkloadRegistry::create("gzip");
  auto B = lower(*W.Program, LoweringOptions::O2());
  RecordingObserver R;
  RunResult Res = Interpreter(*B, W.Train).runFast(R);
  EXPECT_EQ(Res.TotalInstrs, R.Instrs);
  EXPECT_EQ(Res.TotalInstrs, R.ReportedTotal);
  EXPECT_FALSE(Res.HitInstrLimit);
}

TEST(Interpreter, InstrLimitTruncates) {
  Workload W = WorkloadRegistry::create("gzip");
  auto B = lower(*W.Program, LoweringOptions::O2());
  RecordingObserver R;
  RunResult Res = Interpreter(*B, W.Ref).runFast(R, 5000);
  EXPECT_TRUE(Res.HitInstrLimit);
  EXPECT_GE(Res.TotalInstrs, 5000u);
  // Truncation stops within one block of the budget.
  EXPECT_LT(Res.TotalInstrs, 5000u + 200u);
}

TEST(Interpreter, CallAndReturnBalance) {
  Workload W = WorkloadRegistry::create("gzip");
  auto B = lower(*W.Program, LoweringOptions::O2());
  RecordingObserver R;
  Interpreter(*B, W.Train).runFast(R);
  int Calls = 0, Rets = 0;
  for (const auto &E : R.Events) {
    Calls += E.K == RecordingObserver::Event::Kind::Call;
    Rets += E.K == RecordingObserver::Event::Kind::Ret;
  }
  EXPECT_GT(Calls, 0);
  EXPECT_EQ(Calls, Rets);
}

TEST(Interpreter, MemAccessesFallInRegions) {
  Workload W = WorkloadRegistry::create("gzip");
  auto B = lower(*W.Program, LoweringOptions::O2());
  Interpreter Interp(*B, W.Train);
  RecordingObserver R;
  Interp.runFast(R, 200000);
  for (const auto &E : R.Events) {
    if (E.K != RecordingObserver::Event::Kind::Mem)
      continue;
    bool InSome = false;
    for (uint32_t Reg = 0; Reg < B->Regions.size(); ++Reg)
      if (E.A >= Interp.regionBase(Reg) &&
          E.A < Interp.regionBase(Reg) + Interp.regionSize(Reg))
        InSome = true;
    EXPECT_TRUE(InSome) << "address " << E.A << " outside all regions";
  }
}

TEST(Interpreter, ScheduleTripCyclesValues) {
  ProgramBuilder PB("sched");
  uint32_t Main = PB.declare("main");
  PB.define(Main, [&](FunctionBuilder &F) {
    F.loop(TripCountSpec::constant(4), [&] {
      F.loop(TripCountSpec::schedule({2, 5}), [&] { F.code(1); });
    });
  });
  auto P = PB.take();
  auto B = lower(*P, LoweringOptions::O2());
  RecordingObserver R;
  Interpreter(*B, WorkloadInput("t", 1)).runFast(R);
  // Inner loop iterations: 2+5+2+5 = 14 backward branches on the inner
  // latch, plus 4 on the outer.
  int Backs = 0;
  for (const auto &E : R.Events)
    if (E.K == RecordingObserver::Event::Kind::Branch && E.Backward)
      ++Backs;
  EXPECT_EQ(Backs, 14 + 4);
}

TEST(Interpreter, PeriodicCondPattern) {
  ProgramBuilder PB("periodic");
  uint32_t Main = PB.declare("main");
  PB.define(Main, [&](FunctionBuilder &F) {
    F.loop(TripCountSpec::constant(9), [&] {
      // True on the first of every 3 evaluations.
      F.branch(CondSpec::periodic(3, 1), [&] { F.code(7); },
               [&] { F.code(2); });
    });
  });
  auto P = PB.take();
  auto B = lower(*P, LoweringOptions::O2());
  RecordingObserver R;
  Interpreter(*B, WorkloadInput("t", 1)).runFast(R);
  // The then-block (7 instrs) runs 3 of 9 iterations. Count conditional
  // forward branches not taken (then-path).
  int ThenTaken = 0;
  for (const auto &E : R.Events)
    if (E.K == RecordingObserver::Event::Kind::Branch && !E.Backward &&
        !E.Flag)
      ++ThenTaken;
  EXPECT_EQ(ThenTaken, 3);
}

TEST(Interpreter, ParamTripRespondsToInput) {
  ProgramBuilder PB("param");
  uint32_t Main = PB.declare("main");
  PB.define(Main, [&](FunctionBuilder &F) {
    F.loop(TripCountSpec::param("n"), [&] { F.code(2); });
  });
  auto P = PB.take();
  auto B = lower(*P, LoweringOptions::O2());
  RecordingObserver R1, R2;
  Interpreter(*B, WorkloadInput("a", 1).set("n", 5)).runFast(R1);
  Interpreter(*B, WorkloadInput("b", 1).set("n", 50)).runFast(R2);
  EXPECT_GT(R2.Instrs, R1.Instrs);
}

TEST(Interpreter, GuardedRecursionTerminates) {
  ProgramBuilder PB("rec");
  uint32_t F = PB.declare("f");
  PB.define(F, [&](FunctionBuilder &B) {
    B.code(2);
    B.callIf(F, 0.9);
  });
  auto P = PB.take();
  auto B = lower(*P, LoweringOptions::O2());
  RecordingObserver R;
  RunResult Res = Interpreter(*B, WorkloadInput("t", 3)).runFast(R);
  EXPECT_GT(Res.TotalInstrs, 0u);
  EXPECT_FALSE(Res.HitInstrLimit);
}

TEST(Interpreter, RoundRobinDispatchCycles) {
  ProgramBuilder PB("rr");
  uint32_t Main = PB.declare("main");
  uint32_t A = PB.declare("a");
  uint32_t C = PB.declare("c");
  PB.define(A, [&](FunctionBuilder &F) { F.code(1); });
  PB.define(C, [&](FunctionBuilder &F) { F.code(1); });
  PB.define(Main, [&](FunctionBuilder &F) {
    F.loop(TripCountSpec::constant(6), [&] {
      F.callOneOf({{A, 1}, {C, 1}}, /*RoundRobin=*/true);
    });
  });
  auto P = PB.take();
  auto B = lower(*P, LoweringOptions::O2());
  RecordingObserver R;
  Interpreter(*B, WorkloadInput("t", 1)).runFast(R);
  std::vector<uint64_t> Callees;
  for (const auto &E : R.Events)
    if (E.K == RecordingObserver::Event::Kind::Call)
      Callees.push_back(E.A);
  ASSERT_EQ(Callees.size(), 6u);
  for (size_t I = 0; I + 2 < Callees.size(); ++I)
    EXPECT_NE(Callees[I], Callees[I + 1]); // Strict alternation.
}

TEST(Interpreter, CrossOptLevelStructureIdentical) {
  Workload W = WorkloadRegistry::create("gzip");
  auto B0 = lower(*W.Program, LoweringOptions::O0());
  auto B2 = lower(*W.Program, LoweringOptions::O2());
  RecordingObserver R0, R2;
  Interpreter(*B0, W.Train).runFast(R0);
  Interpreter(*B2, W.Train).runFast(R2);
  // Same structural path: identical call/return/branch-taken sequences.
  auto Filter = [](const RecordingObserver &R) {
    std::vector<std::pair<int, uint64_t>> Seq;
    for (const auto &E : R.Events) {
      if (E.K == RecordingObserver::Event::Kind::Call)
        Seq.push_back({0, E.A});
      else if (E.K == RecordingObserver::Event::Kind::Branch)
        Seq.push_back({1, E.Flag});
    }
    return Seq;
  };
  EXPECT_EQ(Filter(R0), Filter(R2));
  // But the instruction counts differ (O0 expansion).
  EXPECT_GT(R0.Instrs, R2.Instrs);
}
