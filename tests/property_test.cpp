//===- tests/property_test.cpp - parameterized invariant sweeps -----------==//
//
// Property-style tests: invariants that must hold for *every* workload,
// cache geometry, or seed, checked with TEST_P sweeps rather than
// hand-picked cases.
//
//===----------------------------------------------------------------------===//

#include "CacheReference.h"
#include "ir/Lowering.h"
#include "markers/Pipeline.h"
#include "markers/Selector.h"
#include "reuse/ReuseDistance.h"
#include "uarch/Cache.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <map>

using namespace spm;

//===----------------------------------------------------------------------===//
// Cache properties, swept over associativity and access-pattern seeds
//===----------------------------------------------------------------------===//

namespace {

class CacheProperty
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint64_t>> {
protected:
  uint32_t assoc() const { return std::get<0>(GetParam()); }
  uint64_t seed() const { return std::get<1>(GetParam()); }
};

} // namespace

TEST_P(CacheProperty, LruInclusionAcrossAssociativity) {
  // On any access stream, a (Sets, A+1)-way LRU cache hits whenever the
  // (Sets, A)-way cache hits (stack property of LRU).
  if (assoc() >= 8)
    GTEST_SKIP() << "needs a larger cache to compare against";
  CacheModel Small({512, assoc(), 64});
  CacheModel Big({512, assoc() + 1, 64});
  Rng R(seed());
  for (int I = 0; I < 50000; ++I) {
    uint64_t Addr = (1ull << 32) + R.nextBelow(6000) * 64;
    bool HitSmall = Small.access(Addr);
    bool HitBig = Big.access(Addr);
    if (HitSmall) {
      EXPECT_TRUE(HitBig) << "inclusion violated at access " << I;
    }
  }
}

TEST_P(CacheProperty, MissesNeverExceedAccesses) {
  CacheModel C({512, assoc(), 64});
  Rng R(seed());
  for (int I = 0; I < 20000; ++I)
    C.access(R.nextBelow(1 << 22));
  EXPECT_LE(C.stats().Misses, C.stats().Accesses);
  EXPECT_EQ(C.stats().Accesses, 20000u);
}

// The way-masking reconfiguration the adaptive engine models is defined by
// the reference served cache it is checked against (CacheReference.h); these
// pin that definition.

TEST_P(CacheProperty, PreservingShrinkKeepsMruBlocks) {
  // After shrinking 8 -> assoc ways, the `assoc` most recently used blocks
  // of each set still hit.
  ref::CacheModel C({16, 8, 64});
  // Fill one set (set 0) with 8 distinct blocks, in order.
  for (uint64_t B = 0; B < 8; ++B)
    C.access(B * 16 * 64); // All map to set 0.
  C.setAssocPreserving(assoc());
  // The `assoc` most recent are blocks 8-assoc .. 7.
  for (uint64_t B = 8 - assoc(); B < 8; ++B)
    EXPECT_TRUE(C.access(B * 16 * 64)) << "lost MRU block " << B;
}

TEST_P(CacheProperty, PreservingGrowKeepsEverything) {
  ref::CacheModel C({16, assoc(), 64});
  for (uint64_t B = 0; B < assoc(); ++B)
    C.access(B * 16 * 64);
  C.setAssocPreserving(8);
  for (uint64_t B = 0; B < assoc(); ++B)
    EXPECT_TRUE(C.access(B * 16 * 64)) << "lost block " << B << " on grow";
}

TEST_P(CacheProperty, PreservingReconfigNeverBeatsStaticBig) {
  // A cache that shrinks and grows can't outperform one that stayed big.
  ref::CacheModel Dynamic({512, 8, 64});
  ref::CacheModel Static({512, 8, 64});
  Rng R(seed());
  for (int Phase = 0; Phase < 6; ++Phase) {
    Dynamic.setAssocPreserving(Phase % 2 ? assoc() : 8);
    for (int I = 0; I < 5000; ++I) {
      uint64_t Addr = (1ull << 32) + R.nextBelow(3000) * 64;
      Dynamic.access(Addr);
      Static.access(Addr);
    }
  }
  EXPECT_GE(Dynamic.stats().Misses, Static.stats().Misses);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CacheProperty,
    ::testing::Combine(::testing::Values(1u, 2u, 4u, 7u),
                       ::testing::Values(11ull, 42ull, 1234ull)),
    [](const auto &Info) {
      return "assoc" + std::to_string(std::get<0>(Info.param)) + "_seed" +
             std::to_string(std::get<1>(Info.param));
    });

//===----------------------------------------------------------------------===//
// Tracker invariants, swept over every workload
//===----------------------------------------------------------------------===//

namespace {

/// Listener that checks begin/end pairing and nesting discipline.
class PairingListener : public TrackerListener {
public:
  void onEdgeBegin(NodeId From, NodeId To) override {
    Stack.push_back({From, To});
    ++Begins;
  }
  void onEdgeEnd(NodeId From, NodeId To, uint64_t Hier) override {
    ASSERT_FALSE(Stack.empty()) << "end without begin";
    EXPECT_EQ(Stack.back().first, From);
    EXPECT_EQ(Stack.back().second, To);
    Stack.pop_back();
    ++Ends;
    TotalHier += Hier;
    MaxHier = std::max(MaxHier, Hier);
  }

  std::vector<std::pair<NodeId, NodeId>> Stack;
  uint64_t Begins = 0, Ends = 0;
  uint64_t TotalHier = 0, MaxHier = 0;
};

class WorkloadProperty : public ::testing::TestWithParam<std::string> {
protected:
  Workload W = WorkloadRegistry::create(GetParam());
  std::unique_ptr<Binary> Bin = lower(*W.Program, LoweringOptions::O2());
  LoopIndex Loops = LoopIndex::build(*Bin);
};

} // namespace

TEST_P(WorkloadProperty, TrackerBeginsAndEndsBalance) {
  CallLoopGraph G(*Bin, Loops);
  CallLoopTracker Tracker(*Bin, Loops, G);
  PairingListener Pairs;
  Tracker.addListener(&Pairs);
  Interpreter(*Bin, W.Train).runFast(Tracker);
  EXPECT_EQ(Pairs.Begins, Pairs.Ends);
  EXPECT_TRUE(Pairs.Stack.empty());
  EXPECT_EQ(Tracker.depth(), 1u) << "only the root frame may remain";
}

TEST_P(WorkloadProperty, HierarchicalCountsNestProperly) {
  // No edge's max hierarchical count can exceed the whole program; the
  // root edge equals the run total.
  auto G = buildCallLoopGraph(*Bin, Loops, W.Train);
  ExecutionObserver Nop;
  RunResult R = Interpreter(*Bin, W.Train).runFast(Nop);
  const CallLoopEdge *Root = G->findEdge(RootNode, G->procHead(0));
  ASSERT_NE(Root, nullptr);
  EXPECT_DOUBLE_EQ(Root->Hier.sum(), static_cast<double>(R.TotalInstrs));
  for (const CallLoopEdge *E : G->sortedEdges()) {
    EXPECT_LE(E->Hier.max(), static_cast<double>(R.TotalInstrs));
    EXPECT_GT(E->Hier.count(), 0u);
    EXPECT_GE(E->Hier.min(), 0.0);
  }
}

TEST_P(WorkloadProperty, LoopBodyCountsBoundedByHeadTotals) {
  // A loop iterates at least once per entry, and the per-iteration mean
  // never exceeds the per-entry mean.
  auto G = buildCallLoopGraph(*Bin, Loops, W.Train);
  for (uint32_t L = 0; L < G->numLoops(); ++L) {
    const CallLoopEdge *Body = G->findEdge(G->loopHead(L), G->loopBody(L));
    if (!Body)
      continue; // Never executed.
    uint64_t Entries = 0;
    double EntryMean = 0;
    for (const CallLoopEdge *In : G->incoming(G->loopHead(L))) {
      Entries += In->Hier.count();
      EntryMean = std::max(EntryMean, In->Hier.mean());
    }
    EXPECT_GE(Body->Hier.count(), Entries) << "loop " << L;
    EXPECT_LE(Body->Hier.mean(), EntryMean + 1e-9) << "loop " << L;
  }
}

TEST_P(WorkloadProperty, SelectorCandidatesMonotoneInILower) {
  auto G = buildCallLoopGraph(*Bin, Loops, W.Train);
  size_t Prev = SIZE_MAX;
  for (uint64_t IL : {1000ull, 10000ull, 100000ull, 1000000ull}) {
    SelectorConfig C;
    C.ILower = IL;
    SelectionResult R = selectMarkers(*G, C);
    EXPECT_LE(R.NumCandidates, Prev) << "ilower " << IL;
    Prev = R.NumCandidates;
  }
}

TEST_P(WorkloadProperty, ProceduresOnlyMarkersAreSubsetOfEligible) {
  auto G = buildCallLoopGraph(*Bin, Loops, W.Train);
  SelectorConfig C;
  C.ILower = 10000;
  C.ProceduresOnly = true;
  SelectionResult R = selectMarkers(*G, C);
  for (const Marker &M : R.Markers.markers()) {
    NodeKind K = G->node(M.To).K;
    EXPECT_TRUE(K == NodeKind::ProcHead || K == NodeKind::ProcBody);
  }
}

TEST_P(WorkloadProperty, LimitModeExpectationsBounded) {
  auto G = buildCallLoopGraph(*Bin, Loops, W.Ref);
  SelectorConfig C;
  C.ILower = 10000;
  C.Limit = true;
  C.MaxLimit = 200000;
  SelectionResult R = selectMarkers(*G, C);
  for (const Marker &M : R.Markers.markers())
    EXPECT_LE(M.ExpectedLen, 200000.0 + 1e-6);
}

TEST_P(WorkloadProperty, MarkerFiringsEqualIntervalCuts) {
  auto G = buildCallLoopGraph(*Bin, Loops, W.Train);
  SelectorConfig C;
  C.ILower = 10000;
  MarkerSet M = selectMarkers(*G, C).Markers;
  if (M.empty())
    GTEST_SKIP();
  MarkerRun R = runMarkerIntervals(*Bin, Loops, *G, M, W.Train,
                                   /*CollectBbv=*/false,
                                   /*RecordFirings=*/true);
  // Every interval after the prologue was opened by a firing; firings
  // may exceed intervals only through zero-length coalescing.
  EXPECT_GE(R.Firings.size() + 1, R.Intervals.size());
  // Phase ids of intervals appear in the firing sequence.
  std::set<int32_t> Fired(R.Firings.begin(), R.Firings.end());
  for (size_t I = 1; I < R.Intervals.size(); ++I)
    EXPECT_TRUE(Fired.count(R.Intervals[I].PhaseId))
        << "interval " << I << " phase " << R.Intervals[I].PhaseId;
}

TEST_P(WorkloadProperty, O0ExecutesMoreInstructionsThanO2) {
  auto B0 = lower(*W.Program, LoweringOptions::O0());
  ExecutionObserver Nop0, Nop2;
  RunResult R0 = Interpreter(*B0, W.Train).runFast(Nop0);
  RunResult R2 = Interpreter(*Bin, W.Train).runFast(Nop2);
  EXPECT_GT(R0.TotalInstrs, R2.TotalInstrs);
  // Same memory behavior: identical access counts.
  EXPECT_EQ(R0.TotalMemAccesses, R2.TotalMemAccesses);
}

TEST_P(WorkloadProperty, FunctionAddressSpacesDisjoint) {
  for (size_t I = 1; I < Bin->Funcs.size(); ++I)
    EXPECT_LE(Bin->Funcs[I - 1].EndAddr, Bin->Funcs[I].BaseAddr);
  for (const LoweredBlock &Blk : Bin->Blocks) {
    const LoweredFunction &F = Bin->func(Blk.FuncId);
    EXPECT_GE(Blk.Addr, F.BaseAddr);
    EXPECT_LE(Blk.endAddr(), F.EndAddr);
  }
}

TEST_P(WorkloadProperty, StaticLoopRegionsNestOrAreDisjoint) {
  for (const StaticLoop &A : Loops.loops()) {
    for (const StaticLoop &B : Loops.loops()) {
      if (A.Id == B.Id || A.FuncId != B.FuncId)
        continue;
      bool Disjoint = A.EndAddr <= B.HeaderAddr || B.EndAddr <= A.HeaderAddr;
      bool AInB = B.HeaderAddr <= A.HeaderAddr && A.EndAddr <= B.EndAddr;
      bool BInA = A.HeaderAddr <= B.HeaderAddr && B.EndAddr <= A.EndAddr;
      EXPECT_TRUE(Disjoint || AInB || BInA)
          << "loops " << A.Id << " and " << B.Id << " overlap irregularly";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, WorkloadProperty,
    ::testing::ValuesIn(WorkloadRegistry::allNames()),
    [](const ::testing::TestParamInfo<std::string> &Info) {
      return Info.param;
    });

//===----------------------------------------------------------------------===//
// Reuse distance properties, swept over footprints
//===----------------------------------------------------------------------===//

namespace {

class ReuseProperty : public ::testing::TestWithParam<uint64_t> {};

} // namespace

TEST_P(ReuseProperty, DistanceBoundedByFootprint) {
  ReuseDistanceTracker T(64);
  Rng R(GetParam());
  uint64_t Blocks = 64 + GetParam() % 1000;
  for (int I = 0; I < 20000; ++I) {
    uint64_t D = T.access(R.nextBelow(Blocks) * 64);
    if (D != ReuseDistanceTracker::ColdMiss) {
      EXPECT_LT(D, Blocks);
    }
  }
  EXPECT_LE(T.footprintBlocks(), Blocks);
}

TEST_P(ReuseProperty, SequentialScanDistancesAreExactlyFootprint) {
  ReuseDistanceTracker T(64);
  uint64_t Blocks = 16 + GetParam() % 64;
  // First pass: all cold. Later passes: distance == Blocks - 1 (every
  // other block intervened).
  for (int Pass = 0; Pass < 4; ++Pass) {
    for (uint64_t B = 0; B < Blocks; ++B) {
      uint64_t D = T.access(B * 64);
      if (Pass == 0)
        EXPECT_EQ(D, ReuseDistanceTracker::ColdMiss);
      else
        EXPECT_EQ(D, Blocks - 1);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ReuseProperty,
                         ::testing::Values(1ull, 17ull, 123ull, 999ull));
