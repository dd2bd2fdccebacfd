//===- tests/cacheprobe_test.cpp - LRU stack probe vs eight caches --------==//
//
// MultiCacheProbe answers every configuration of a sweep from one LRU
// recency stack per set; its contract is that the per-configuration stats
// are exactly those of one stamp-LRU cache per configuration. The adaptive
// engine derives its served way-masked cache from the same stack. Every
// test here compares them with the eight-cache probe and the two-cache
// engine of tests/CacheReference.h: statsSnapshot() every 1000th access on
// random, thrashing, sequential and near-2^64 streams and on the recorded
// ref streams of the Fig. 10 programs, the engine on synthetic phase
// sequences that shrink and grow the served cache, and the Fig. 10 policy
// results built on top of both.
//
//===----------------------------------------------------------------------===//

#include "../bench/BenchUtil.h"
#include "CacheReference.h"
#include "adaptcache/Policies.h"
#include "reuse/ReuseMarkers.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>

using namespace spm;

namespace {

using Flat = std::vector<std::pair<uint64_t, uint64_t>>;

Flat flat(const std::vector<CacheStats> &Stats) {
  Flat Out;
  for (const CacheStats &S : Stats)
    Out.push_back({S.Accesses, S.Misses});
  return Out;
}

std::vector<CacheConfig> waysOf(uint32_t Sets,
                                const std::vector<uint32_t> &Ways) {
  std::vector<CacheConfig> Sweep;
  for (uint32_t A : Ways)
    Sweep.push_back({Sets, A, 64});
  return Sweep;
}

/// The sweep shapes every synthetic stream runs through: the paper's, a
/// small-set one, a subset and an unsorted one.
std::vector<std::vector<CacheConfig>> sweeps() {
  return {CacheConfig::reconfigSweep(), waysOf(16, {1, 2, 3, 4}),
          waysOf(512, {1, 2, 4, 8}), waysOf(512, {8, 1, 4})};
}

/// Replays \p Addrs through the probe and the reference, comparing every
/// configuration's stats every \p Every accesses and at the end.
void expectSameProbe(const std::vector<CacheConfig> &Sweep,
                     const std::vector<uint64_t> &Addrs, size_t Every,
                     const std::string &What) {
  SCOPED_TRACE(What);
  MultiCacheProbe Probe(Sweep);
  ref::MultiCacheProbe Ref(Sweep);
  ASSERT_EQ(Probe.size(), Sweep.size());
  for (size_t I = 0; I < Addrs.size(); ++I) {
    Probe.access(Addrs[I]);
    Ref.access(Addrs[I]);
    if ((I + 1) % Every == 0) {
      ASSERT_EQ(flat(Probe.statsSnapshot()), flat(Ref.statsSnapshot()))
          << "after access " << I;
    }
  }
  ASSERT_EQ(flat(Probe.statsSnapshot()), flat(Ref.statsSnapshot()));
}

/// The library's single cache against the reference one, hit for hit,
/// for every configuration of \p Sweep.
void expectSameCaches(const std::vector<CacheConfig> &Sweep,
                      const std::vector<uint64_t> &Addrs,
                      const std::string &What) {
  SCOPED_TRACE(What);
  for (const CacheConfig &C : Sweep) {
    CacheModel Model(C);
    ref::CacheModel Ref(C);
    for (size_t I = 0; I < Addrs.size(); ++I)
      ASSERT_EQ(Model.access(Addrs[I]), Ref.access(Addrs[I]))
          << C.Sets << " sets x " << C.Assoc << " ways, access " << I;
    ASSERT_EQ(Model.stats().Misses, Ref.stats().Misses);
  }
}

void expectSameEverywhere(const std::vector<uint64_t> &Addrs, size_t Every,
                          const std::string &What) {
  for (const std::vector<CacheConfig> &Sweep : sweeps()) {
    std::string Shape = What + ", " + std::to_string(Sweep.front().Sets) +
                        " sets, " + std::to_string(Sweep.size()) + " configs";
    expectSameProbe(Sweep, Addrs, Every, Shape);
    expectSameCaches(Sweep, Addrs, Shape);
  }
}

/// Every address that maps to set 0 of both the 512- and the 16-set sweeps.
uint64_t set0(uint64_t Tag) { return Tag << (6 + 9); }

} // namespace

TEST(CacheProbe, UniformRandomStreams) {
  // Footprints from well inside the 32KB cache to far beyond 256KB, so
  // hits land at every stack depth and most of the stack churns.
  for (uint64_t Blocks : {600ull, 3000ull, 6000ull, 1ull << 16}) {
    Rng R(Blocks);
    std::vector<uint64_t> Addrs;
    for (int I = 0; I < 100000; ++I)
      Addrs.push_back((1ull << 32) + R.nextBelow(Blocks * 64));
    expectSameEverywhere(Addrs, 1000,
                         "uniform over " + std::to_string(Blocks) + " blocks");
  }
}

TEST(CacheProbe, SingleSetThrash) {
  // 9..16 distinct tags in one set overflow the 8-deep stack: round robin
  // misses every way of every configuration, random picks hit at every
  // depth and evict from the bottom.
  for (uint64_t Tags = 9; Tags <= 16; ++Tags) {
    std::vector<uint64_t> Addrs;
    for (int I = 0; I < 4000; ++I)
      Addrs.push_back(set0(1 + I % Tags));
    Rng R(Tags);
    for (int I = 0; I < 20000; ++I)
      Addrs.push_back(set0(1 + R.nextBelow(Tags)) + R.nextBelow(64));
    expectSameEverywhere(Addrs, 1, std::to_string(Tags) + " tags in one set");
  }
}

TEST(CacheProbe, SequentialSweepsAndTopOfAddressSpace) {
  std::vector<uint64_t> Addrs;
  for (uint64_t A = 0; A < 400000; A += 8) // Two passes over 200KB...
    Addrs.push_back(A % 200000);
  for (uint64_t A = 0; A < 300000; A += 64) // ...then one over 300KB.
    Addrs.push_back(A);
  expectSameEverywhere(Addrs, 1000, "sequential");

  // Up to and including 2^64 - 1, ascending, descending, and interleaved
  // with low addresses that share their sets.
  const uint64_t Top = ~0ull;
  std::vector<uint64_t> High;
  for (uint64_t K = 50000; K-- > 0;)
    High.push_back(Top - K * 8);
  for (uint64_t K = 0; K < 50000; ++K)
    High.push_back(Top - K * 24);
  Rng R(64);
  for (int I = 0; I < 50000; ++I)
    High.push_back(R.nextBelow(2) ? Top - R.nextBelow(1ull << 20)
                                  : R.nextBelow(1ull << 20));
  expectSameEverywhere(High, 1000, "near 2^64 - 1");
}

namespace {

/// One event of a synthetic adaptive-cache run.
struct EngineEvent {
  enum Kind : uint8_t { Boundary, Block, Mem } K;
  uint64_t V; ///< Phase id, block instructions, or address.
};

/// A random phase sequence for a sweep of \p Sets sets and at most
/// \p MaxWays ways. Phase P draws uniformly from Ways[P] * Sets blocks of
/// a region of its own, so it fits exactly Ways[P] ways and locks at a
/// size of its own (the widest phase overflows the stack, so hits land at
/// every depth); a returning phase reuses whatever of its region the
/// served cache kept through the shrinks and grows in between. Intervals
/// run a few times the largest pool. About one boundary in six opens a
/// sub-CoalesceInstrs interval and one in ten is followed at once by
/// another boundary, so relabeling boundaries are covered too.
std::vector<EngineEvent> phaseSequence(uint32_t Sets, uint32_t MaxWays,
                                       uint64_t Seed) {
  const uint32_t Ways[] = {1, (MaxWays + 1) / 2, MaxWays,
                           MaxWays + MaxWays / 2};
  Rng R(Seed);
  std::vector<EngineEvent> Evs;
  auto Step = [&](uint32_t Phase) {
    Evs.push_back({EngineEvent::Block, 1 + R.nextBelow(20)});
    uint64_t Pool = static_cast<uint64_t>(Ways[Phase]) * Sets;
    uint64_t Region = (2ull + Phase) << 32;
    Evs.push_back(
        {EngineEvent::Mem, Region + R.nextBelow(Pool) * 64 + R.nextBelow(64)});
  };
  for (int I = 0; I < 48; ++I) {
    auto Phase = static_cast<uint32_t>(R.nextBelow(4));
    Evs.push_back({EngineEvent::Boundary, Phase});
    if (R.nextBelow(10) == 0)
      Evs.push_back({EngineEvent::Boundary, R.nextBelow(4)});
    if (R.nextBelow(6) == 0) {
      for (uint64_t N = 1 + R.nextBelow(40); N > 0; --N)
        Step(Phase);
      continue;
    }
    uint64_t Len = (2 + R.nextBelow(4)) * Sets * Ways[3];
    for (uint64_t N = 0; N < Len; ++N)
      Step(Phase);
  }
  return Evs;
}

template <class EngineT>
AdaptiveCacheResult replayEvents(EngineT &Engine,
                                 const std::vector<EngineEvent> &Evs) {
  LoweredBlock Blk;
  for (const EngineEvent &E : Evs) {
    switch (E.K) {
    case EngineEvent::Boundary:
      Engine.onPhaseBoundary(static_cast<int32_t>(E.V));
      break;
    case EngineEvent::Block:
      Blk.NumInstrs = static_cast<uint32_t>(E.V);
      Engine.onBlock(Blk);
      break;
    case EngineEvent::Mem:
      Engine.onMemAccess(E.V, false);
      break;
    }
  }
  Engine.onRunEnd(0);
  return Engine.result();
}

void expectSameResult(const AdaptiveCacheResult &Got,
                      const AdaptiveCacheResult &Want,
                      const std::string &What) {
  SCOPED_TRACE(What);
  EXPECT_EQ(Got.AvgCacheKB, Want.AvgCacheKB);
  EXPECT_EQ(Got.MissRate, Want.MissRate);
  EXPECT_EQ(Got.Intervals, Want.Intervals);
  EXPECT_EQ(Got.Explorations, Want.Explorations);
}

} // namespace

TEST(CacheProbe, EngineMatchesTwoCacheReference) {
  const std::vector<std::vector<CacheConfig>> Sweeps = {
      CacheConfig::reconfigSweep(), waysOf(16, {1, 2, 3, 4}),
      waysOf(1, {1, 2, 3, 4, 5, 6, 7, 8})};
  for (const std::vector<CacheConfig> &Sweep : Sweeps) {
    for (uint64_t Seed : {1ull, 2ull}) {
      std::vector<EngineEvent> Evs =
          phaseSequence(Sweep.front().Sets, Sweep.back().Assoc, Seed);
      for (double Tol : {0.0, 0.05}) {
        for (uint32_t Explore : {1u, 2u}) {
          std::string What = std::to_string(Sweep.front().Sets) + " sets, " +
                             "seed " + std::to_string(Seed) + ", tolerance " +
                             std::to_string(Tol) + ", explore " +
                             std::to_string(Explore);
          AdaptiveCacheEngine Engine(Sweep, Tol, Explore);
          ref::AdaptiveCacheEngine Ref(Sweep, Tol, Explore);
          expectSameResult(replayEvents(Engine, Evs), replayEvents(Ref, Evs),
                           What);
          // The phases must lock at different sizes, or the served cache
          // never shrinks and grows between them.
          std::vector<double> Locked;
          for (int32_t P = 0; P < 4; ++P)
            Locked.push_back(Engine.chosenSizeKB(P));
          std::sort(Locked.begin(), Locked.end());
          EXPECT_GE(std::unique(Locked.begin(), Locked.end()) -
                        Locked.begin(),
                    3)
              << What;
        }
      }
    }
  }
}

namespace {

/// The seven Fig. 10 programs: the reconfiguration suite plus the two
/// Sec. 6.1 in-text columns.
std::vector<std::string> fig10Programs() {
  std::vector<std::string> Names = WorkloadRegistry::reconfigSuite();
  Names.push_back("gcc");
  Names.push_back("vortex");
  return Names;
}

struct StreamRecorder {
  std::vector<uint64_t> *Out;
  void onMemAccess(uint64_t Addr, bool IsStore) {
    (void)IsStore;
    Out->push_back(Addr);
  }
};

} // namespace

TEST(CacheProbe, Fig10RefStreams) {
  for (const std::string &Name : fig10Programs()) {
    Workload W = WorkloadRegistry::create(Name);
    std::unique_ptr<Binary> Bin = lower(*W.Program, LoweringOptions::O2());
    std::vector<uint64_t> Addrs;
    StreamRecorder Rec{&Addrs};
    Interpreter(*Bin, W.Ref).runFast(Rec);
    ASSERT_GT(Addrs.size(), 10000u) << Name;
    expectSameProbe(CacheConfig::reconfigSweep(), Addrs, 1000, Name);
  }
}

TEST(CacheProbe, Fig10PolicyResults) {
  using namespace bench;
  for (const std::string &Name : fig10Programs()) {
    SCOPED_TRACE(Name);
    Prepared P = prepare(Name);
    MarkerSet Self = selectMarkers(*P.GRef, noLimitConfig()).Markers;
    MarkerSet Procs =
        selectMarkers(*P.GTrain, noLimitConfig(/*ProceduresOnly=*/true))
            .Markers;
    ReuseMarkerSet Reuse = profileReuseMarkers(*P.Bin, P.W.Train);

    expectSameResult(
        runAdaptiveWithMarkers(*P.Bin, P.Loops, *P.GRef, Self, P.W.Ref),
        ref::runAdaptiveWithMarkers(*P.Bin, P.Loops, *P.GRef, Self, P.W.Ref),
        "self markers");
    expectSameResult(
        runAdaptiveWithMarkers(*P.Bin, P.Loops, *P.GTrain, Procs, P.W.Ref),
        ref::runAdaptiveWithMarkers(*P.Bin, P.Loops, *P.GTrain, Procs,
                                    P.W.Ref),
        "procedure markers");
    expectSameResult(
        runAdaptiveWithReuseMarkers(*P.Bin, Reuse, P.W.Ref),
        ref::runAdaptiveWithReuseMarkers(*P.Bin, Reuse, P.W.Ref),
        "reuse markers");
    expectSameResult(
        runAdaptiveWithOracleBbv(*P.Bin, P.W.Ref, FixedBbvInterval),
        ref::runAdaptiveWithOracleBbv(*P.Bin, P.W.Ref, FixedBbvInterval),
        "oracle BBV");

    FixedSizeResult Got = bestFixedSize(*P.Bin, P.W.Ref);
    FixedSizeResult Want = ref::bestFixedSize(*P.Bin, P.W.Ref);
    EXPECT_EQ(flat(Got.PerConfig), flat(Want.PerConfig));
    EXPECT_EQ(Got.BestIdx, Want.BestIdx);
    EXPECT_EQ(Got.BestFixedKB, Want.BestFixedKB);
  }
}

TEST(CacheProbe, OracleBbvIntervalsUnchanged) {
  // The oracle policy clusters BBV-only intervals; framing, vectors and
  // the clustering must equal those of the full fixed-interval pipeline.
  for (const std::string &Name : fig10Programs()) {
    SCOPED_TRACE(Name);
    Workload W = WorkloadRegistry::create(Name);
    std::unique_ptr<Binary> Bin = lower(*W.Program, LoweringOptions::O2());
    std::vector<IntervalRecord> Got =
        runFixedBbvIntervals(*Bin, W.Ref, bench::FixedBbvInterval);
    std::vector<IntervalRecord> Want = runFixedIntervals(
        *Bin, W.Ref, bench::FixedBbvInterval, /*CollectBbv=*/true);
    ASSERT_EQ(Got.size(), Want.size());
    for (size_t I = 0; I < Got.size(); ++I) {
      EXPECT_EQ(Got[I].StartInstr, Want[I].StartInstr) << I;
      EXPECT_EQ(Got[I].NumInstrs, Want[I].NumInstrs) << I;
      EXPECT_EQ(Got[I].NumBlocks, Want[I].NumBlocks) << I;
      EXPECT_EQ(Got[I].NumMem, Want[I].NumMem) << I;
      EXPECT_EQ(Got[I].PhaseId, Want[I].PhaseId) << I;
      EXPECT_EQ(Got[I].Vector, Want[I].Vector) << I;
    }
    SimPointResult GotSP = runSimPoint(Got, SimPointConfig());
    SimPointResult WantSP = runSimPoint(Want, SimPointConfig());
    EXPECT_EQ(GotSP.K, WantSP.K);
    EXPECT_EQ(GotSP.Assign, WantSP.Assign);
    ASSERT_EQ(GotSP.Points.size(), WantSP.Points.size());
    for (size_t I = 0; I < GotSP.Points.size(); ++I) {
      EXPECT_EQ(GotSP.Points[I].Cluster, WantSP.Points[I].Cluster) << I;
      EXPECT_EQ(GotSP.Points[I].IntervalIdx, WantSP.Points[I].IntervalIdx)
          << I;
      EXPECT_EQ(GotSP.Points[I].Weight, WantSP.Points[I].Weight) << I;
    }
  }
}

TEST(CacheProbe, ReuseProfileUnchanged) {
  // The profileReuseMarkers driver must select the markers of a hand-wired
  // collector run.
  for (const std::string &Name : fig10Programs()) {
    Workload W = WorkloadRegistry::create(Name);
    std::unique_ptr<Binary> Bin = lower(*W.Program, LoweringOptions::O2());
    ReuseMarkerConfig Config;
    ReuseSignalCollector Collector(Config.WindowInstrs);
    Interpreter(*Bin, W.Train).runFast(Collector);
    ReuseProfile Prof = Collector.takeProfile();
    ReuseMarkerSet Want = selectReuseMarkers(Prof, Config);
    ReuseMarkerSet Got = profileReuseMarkers(*Bin, W.Train, Config);
    EXPECT_EQ(Got.Blocks, Want.Blocks) << Name;
    EXPECT_EQ(Got.Labels, Want.Labels) << Name;
  }
}
