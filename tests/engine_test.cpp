//===- tests/engine_test.cpp - observer-stack differential tests ----------==//
//
// Proves the production drivers (setProfileTarget, runFixedIntervals,
// runMarkerIntervals) produce output byte-identical to hand-wired reference
// observer stacks on real workloads, across every derived artifact the
// pipeline computes: call-loop graph dumps, fixed-interval BBV streams,
// marker interval streams, and cache statistics. The reference stacks take
// the slow road on purpose: profiling through a TrackerListener, and cache
// simulation fed one access at a time instead of in bulk runs. Also covers
// the StaticMux ordering guarantee, mem-event skipping, and the zero-weight
// call-candidate fallback.
//
//===----------------------------------------------------------------------==//

#include "callloop/Profile.h"
#include "ir/Builder.h"
#include "ir/Lowering.h"
#include "markers/Pipeline.h"
#include "markers/Selector.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

using namespace spm;

namespace {

/// Instruction cap: large enough to cover millions of events, small enough
/// to keep the suite fast. Deliberately truncates every workload mid-run so
/// the differential also covers limit-hit paths.
constexpr uint64_t Cap = 1'500'000;

/// First three registry workloads, each at its ref seed and a perturbed
/// seed — the "3 workloads x 2 seeds" differential matrix.
struct RunCase {
  std::string Name;
  WorkloadInput In;
};

std::vector<RunCase> differentialCases() {
  std::vector<RunCase> Cases;
  std::vector<std::string> Names = WorkloadRegistry::allNames();
  for (size_t I = 0; I < Names.size() && I < 3; ++I) {
    Workload W = WorkloadRegistry::create(Names[I]);
    Cases.push_back({Names[I] + "/seed0", W.Ref});
    WorkloadInput Other = W.Ref;
    Other.setSeed(W.Ref.seed() + 1);
    Cases.push_back({Names[I] + "/seed1", Other});
  }
  return Cases;
}

void expectSameCounters(const PerfCounters &A, const PerfCounters &B,
                        const std::string &Ctx) {
  EXPECT_EQ(A.Instrs, B.Instrs) << Ctx;
  EXPECT_EQ(A.BaseCycles, B.BaseCycles) << Ctx;
  EXPECT_EQ(A.L1Accesses, B.L1Accesses) << Ctx;
  EXPECT_EQ(A.L1Misses, B.L1Misses) << Ctx;
  EXPECT_EQ(A.L2Accesses, B.L2Accesses) << Ctx;
  EXPECT_EQ(A.L2Misses, B.L2Misses) << Ctx;
  EXPECT_EQ(A.Branches, B.Branches) << Ctx;
  EXPECT_EQ(A.Mispredicts, B.Mispredicts) << Ctx;
}

void expectSameIntervals(const std::vector<IntervalRecord> &A,
                         const std::vector<IntervalRecord> &B,
                         const std::string &Ctx) {
  ASSERT_EQ(A.size(), B.size()) << Ctx;
  for (size_t I = 0; I < A.size(); ++I) {
    std::string C = Ctx + " interval " + std::to_string(I);
    EXPECT_EQ(A[I].StartInstr, B[I].StartInstr) << C;
    EXPECT_EQ(A[I].NumInstrs, B[I].NumInstrs) << C;
    EXPECT_EQ(A[I].PhaseId, B[I].PhaseId) << C;
    expectSameCounters(A[I].Perf, B[I].Perf, C);
    ASSERT_EQ(A[I].Vector.size(), B[I].Vector.size()) << C;
    for (size_t J = 0; J < A[I].Vector.size(); ++J) {
      EXPECT_EQ(A[I].Vector[J].first, B[I].Vector[J].first) << C;
      EXPECT_EQ(A[I].Vector[J].second, B[I].Vector[J].second) << C;
    }
  }
}

void expectSameRun(const RunResult &A, const RunResult &B,
                   const std::string &Ctx) {
  EXPECT_EQ(A.TotalInstrs, B.TotalInstrs) << Ctx;
  EXPECT_EQ(A.TotalBlocks, B.TotalBlocks) << Ctx;
  EXPECT_EQ(A.TotalMemAccesses, B.TotalMemAccesses) << Ctx;
  EXPECT_EQ(A.HitInstrLimit, B.HitInstrLimit) << Ctx;
}

/// Feeds a PerfModel one access at a time through onMemAccess, never the
/// bulk onMemRun the drivers use, so the reference stacks below also hold
/// the two delivery forms to identical counters.
struct PerAccessPerf {
  PerfModel &P;
  void onBlock(const LoweredBlock &Blk) { P.onBlock(Blk); }
  void onMemAccess(uint64_t Addr, bool IsStore) {
    P.onMemAccess(Addr, IsStore);
  }
  void onBranch(uint64_t Pc, uint64_t Target, bool Taken, bool Backward,
                bool Conditional) {
    P.onBranch(Pc, Target, Taken, Backward, Conditional);
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// Differential: production drivers vs hand-wired reference stacks
//===----------------------------------------------------------------------===//

// Call-loop graph dump: the listener form (tracker + GraphProfiler) vs the
// dense-id fast path (setProfileTarget). Both dumps must be byte-identical.
TEST(EngineDifferential, CallLoopGraphDump) {
  for (const RunCase &RC : differentialCases()) {
    Workload W = WorkloadRegistry::create(
        RC.Name.substr(0, RC.Name.find('/')));
    auto B = lower(*W.Program, LoweringOptions::O2());
    LoopIndex Loops = LoopIndex::build(*B);

    CallLoopGraph G1(*B, Loops);
    {
      CallLoopTracker T(*B, Loops, G1);
      GraphProfiler Prof(G1);
      T.addListener(&Prof);
      Interpreter(*B, RC.In).runFast(T, Cap);
      G1.finalize();
    }

    CallLoopGraph G2(*B, Loops);
    {
      CallLoopTracker T(*B, Loops, G2);
      T.setProfileTarget(&G2);
      Interpreter(*B, RC.In).runFast(T, Cap);
      G2.finalize();
    }

    EXPECT_EQ(printGraph(G1), printGraph(G2)) << RC.Name;
  }
}

// Fixed-length intervals with BBVs and perf counters: a hand-wired stack
// with per-access cache delivery vs the runFixedIntervals driver.
TEST(EngineDifferential, FixedIntervalsAndBbv) {
  constexpr uint64_t Len = 100'000;
  for (const RunCase &RC : differentialCases()) {
    Workload W = WorkloadRegistry::create(
        RC.Name.substr(0, RC.Name.find('/')));
    auto B = lower(*W.Program, LoweringOptions::O2());

    std::vector<IntervalRecord> Ref;
    {
      PerfModel Perf;
      IntervalBuilder Ivb = IntervalBuilder::fixedLength(Len, &Perf, true);
      PerAccessPerf PA{Perf};
      StaticMux<IntervalBuilder, PerAccessPerf> Mux(Ivb, PA);
      Interpreter(*B, RC.In).runFast(Mux, Cap);
      Ref = Ivb.takeIntervals();
    }

    std::vector<IntervalRecord> Driver =
        runFixedIntervals(*B, RC.In, Len, true, Cap);
    expectSameIntervals(Ref, Driver, RC.Name);
  }
}

// Marker-cut variable-length intervals and the firing trace: a hand-wired
// stack with per-access cache delivery vs the runMarkerIntervals driver.
TEST(EngineDifferential, MarkerIntervalsAndFirings) {
  for (const RunCase &RC : differentialCases()) {
    Workload W = WorkloadRegistry::create(
        RC.Name.substr(0, RC.Name.find('/')));
    auto B = lower(*W.Program, LoweringOptions::O2());
    LoopIndex Loops = LoopIndex::build(*B);
    auto G = buildCallLoopGraph(*B, Loops, RC.In, Cap);
    SelectorConfig SC;
    SelectionResult Sel = selectMarkers(*G, SC);
    if (Sel.Markers.empty())
      continue; // Nothing to differentiate on this input.

    std::vector<IntervalRecord> RefIv;
    std::vector<int32_t> RefFirings;
    RunResult RefRun;
    {
      PerfModel Perf;
      IntervalBuilder Ivb = IntervalBuilder::markerDriven(&Perf, true);
      CallLoopTracker Tracker(*B, Loops, *G);
      MarkerRuntime Runtime(Sel.Markers, *G);
      Tracker.addListener(&Runtime);
      Runtime.setCallback([&](int32_t Idx) {
        Ivb.requestCut(Idx);
        RefFirings.push_back(Idx);
      });
      PerAccessPerf PA{Perf};
      StaticMux<CallLoopTracker, IntervalBuilder, PerAccessPerf> Mux(
          Tracker, Ivb, PA);
      RefRun = Interpreter(*B, RC.In).runFast(Mux, Cap);
      RefIv = Ivb.takeIntervals();
    }

    MarkerRun Driver = runMarkerIntervals(*B, Loops, *G, Sel.Markers, RC.In,
                                          /*CollectBbv=*/true,
                                          /*RecordFirings=*/true, Cap);
    EXPECT_EQ(RefFirings, Driver.Firings) << RC.Name;
    expectSameRun(RefRun, Driver.Run, RC.Name);
    expectSameIntervals(RefIv, Driver.Intervals, RC.Name);
  }
}

// Whole-run cache statistics: PerfModel alone, fed per access vs in bulk
// memory runs.
TEST(EngineDifferential, CacheStats) {
  for (const RunCase &RC : differentialCases()) {
    Workload W = WorkloadRegistry::create(
        RC.Name.substr(0, RC.Name.find('/')));
    auto B = lower(*W.Program, LoweringOptions::O2());

    PerfModel P1, P2;
    PerAccessPerf PA{P1};
    RunResult R1 = Interpreter(*B, RC.In).runFast(PA, Cap);
    RunResult R2 = Interpreter(*B, RC.In).runFast(P2, Cap);
    expectSameRun(R1, R2, RC.Name);
    expectSameCounters(P1.counters(), P2.counters(), RC.Name);
  }
}

//===----------------------------------------------------------------------===//
// Mem-skip equivalence
//===----------------------------------------------------------------------===//

namespace {

/// Records the full event sequence, including addresses.
class RecordingObserver : public ExecutionObserver {
public:
  struct Event {
    enum class Kind { Block, Mem, Branch, Call, Ret } K;
    uint64_t A = 0;
    uint64_t B = 0;
    bool Flag = false;
    bool Backward = false;

    bool operator==(const Event &O) const {
      return K == O.K && A == O.A && B == O.B && Flag == O.Flag &&
             Backward == O.Backward;
    }
  };

  void onBlock(const LoweredBlock &Blk) override {
    Events.push_back({Event::Kind::Block, Blk.Addr, 0, false, false});
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

  std::vector<Event> Events;
};

/// Observer with no memory handler: runFast drops to the skipAccesses
/// path, which must leave every other event and all RNG-derived state
/// bit-identical to a full run.
struct BlockLog {
  std::vector<uint64_t> Blocks;
  void onBlock(const LoweredBlock &Blk) { Blocks.push_back(Blk.Addr); }
};

} // namespace

// Mem-event skipping (an observer with no memory handler) must not perturb
// the shared RNG stream: the block trace and run totals stay identical to
// a full run.
TEST(EngineDifferential, MemSkipPreservesControlFlow) {
  for (const RunCase &RC : differentialCases()) {
    Workload W = WorkloadRegistry::create(
        RC.Name.substr(0, RC.Name.find('/')));
    auto B = lower(*W.Program, LoweringOptions::O2());

    RecordingObserver Full;
    RunResult R1 = Interpreter(*B, RC.In).runFast(Full, Cap);

    BlockLog Skim;
    RunResult R2 = Interpreter(*B, RC.In).runFast(Skim, Cap);

    expectSameRun(R1, R2, RC.Name);
    std::vector<uint64_t> FullBlocks;
    for (const auto &E : Full.Events)
      if (E.K == RecordingObserver::Event::Kind::Block)
        FullBlocks.push_back(E.A);
    EXPECT_EQ(FullBlocks, Skim.Blocks) << RC.Name;
  }
}

//===----------------------------------------------------------------------===//
// StaticMux ordering guarantee
//===----------------------------------------------------------------------===//

namespace {

/// Appends (tag, event-kind, payload) to a shared log; two of these behind
/// a mux expose the exact per-event fan-out interleave. Memory runs are
/// consumed in bulk (own onMemRun), so a mux that forwarded whole runs
/// member by member would show up as a reordered log.
class TaggedObserver : public ExecutionObserver {
public:
  struct Entry {
    int Tag;
    char Kind;
    uint64_t Payload;
    bool operator==(const Entry &O) const {
      return Tag == O.Tag && Kind == O.Kind && Payload == O.Payload;
    }
  };

  TaggedObserver(int Tag, std::vector<Entry> &Log) : Tag(Tag), Log(Log) {}

  void onBlock(const LoweredBlock &Blk) override {
    Log.push_back({Tag, 'B', Blk.Addr});
  }
  void onMemAccess(uint64_t Addr, bool IsStore) override {
    Log.push_back({Tag, IsStore ? 'S' : 'L', Addr});
  }
  void onMemRun(const uint64_t *Addrs, uint32_t Count,
                bool IsStore) override {
    for (uint32_t I = 0; I < Count; ++I)
      Log.push_back({Tag, IsStore ? 'S' : 'L', Addrs[I]});
  }
  void onBranch(uint64_t Pc, uint64_t, bool, bool, bool) override {
    Log.push_back({Tag, 'J', Pc});
  }
  void onCall(uint64_t, uint32_t Callee) override {
    Log.push_back({Tag, 'C', Callee});
  }
  void onReturn(uint32_t Callee) override {
    Log.push_back({Tag, 'R', Callee});
  }

private:
  int Tag;
  std::vector<Entry> &Log;
};

} // namespace

// StaticMux fan-out order: for every event, observer 1 sees it before
// observer 2, and memory accesses interleave address by address even when
// both members take bulk runs. This is the contract runMarkerIntervals
// relies on (tracker fires marker cuts before the interval builder
// accounts the block). The expected log is built from a single observer's
// stream by duplicating each entry as (1, e), (2, e).
TEST(EngineOrdering, StaticMuxInterleavesPerEvent) {
  Workload W = WorkloadRegistry::create("gzip");
  auto B = lower(*W.Program, LoweringOptions::O2());
  constexpr uint64_t Limit = 200'000;

  std::vector<TaggedObserver::Entry> Single;
  {
    TaggedObserver Solo(0, Single);
    Interpreter(*B, W.Ref).runFast(Solo, Limit);
  }
  std::vector<TaggedObserver::Entry> Expected;
  size_t MemEntries = 0;
  for (const TaggedObserver::Entry &E : Single) {
    Expected.push_back({1, E.Kind, E.Payload});
    Expected.push_back({2, E.Kind, E.Payload});
    MemEntries += E.Kind == 'L' || E.Kind == 'S';
  }
  ASSERT_GT(MemEntries, 0u);

  std::vector<TaggedObserver::Entry> Got;
  {
    TaggedObserver A(1, Got), C(2, Got);
    StaticMux<TaggedObserver, TaggedObserver> Mux(A, C);
    Interpreter(*B, W.Ref).runFast(Mux, Limit);
  }
  ASSERT_EQ(Got.size(), Expected.size());
  EXPECT_TRUE(Got == Expected) << "StaticMux reordered events across "
                                  "observers";
}

//===----------------------------------------------------------------------===//
// Zero-weight call-candidate fallback
//===----------------------------------------------------------------------===//

namespace {

class CallCounter : public ExecutionObserver {
public:
  void onCall(uint64_t, uint32_t Callee) override {
    if (Callee >= Counts.size())
      Counts.resize(Callee + 1, 0);
    ++Counts[Callee];
  }
  std::vector<uint64_t> Counts;
};

} // namespace

// A dispatch site whose candidates all carry weight 0 used to feed
// Rand.nextBelow(0) (assert in debug, last-candidate bias in release).
// The fixed interpreter falls back to a uniform pick: the run completes
// and every candidate is reached.
TEST(Interpreter, ZeroWeightCallCandidatesFallBackToUniform) {
  ProgramBuilder PB("zw");
  uint32_t Main = PB.declare("main");
  uint32_t F1 = PB.declare("f1");
  uint32_t F2 = PB.declare("f2");
  PB.define(F1, [&](FunctionBuilder &F) { F.code(5); });
  PB.define(F2, [&](FunctionBuilder &F) { F.code(7); });
  PB.define(Main, [&](FunctionBuilder &F) {
    F.loop(TripCountSpec::constant(400), [&] {
      F.callOneOf({{F1, 0}, {F2, 0}});
    });
  });
  auto P = PB.take();
  auto B = lower(*P, LoweringOptions::O2());

  CallCounter Counter;
  WorkloadInput In("zw", 7);
  RunResult R = Interpreter(*B, In).runFast(Counter, Cap);
  EXPECT_FALSE(R.HitInstrLimit);

  ASSERT_GT(Counter.Counts.size(), std::max(F1, F2));
  uint64_t N1 = Counter.Counts[F1], N2 = Counter.Counts[F2];
  EXPECT_EQ(N1 + N2, 400u);
  // Uniform fallback: P(all 400 picks land on one side) = 2^-399.
  EXPECT_GT(N1, 0u);
  EXPECT_GT(N2, 0u);

  // The bytecode tier shares chooseCallee and takes the same fallback.
  CallCounter Counter2;
  Interpreter(*B, In).runBytecode(compileBytecode(*B), Counter2, Cap);
  EXPECT_EQ(Counter.Counts, Counter2.Counts);
}
