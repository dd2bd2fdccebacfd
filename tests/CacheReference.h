//===- tests/CacheReference.h - eight-cache Fig. 10 oracle ------*- C++ -*-===//
//
// Part of the SPM project: reproduction of "Selecting Software Phase Markers
// with Code Structure Analysis" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The plain Fig. 10 cache stack that src/uarch/Cache.h and
/// src/adaptcache/ must reproduce bit for bit. CacheModel is the stamp-LRU
/// cache with its former per-access block/tag arithmetic (a division and a
/// set-bit count) and the way-masking reconfiguration (setAssocPreserving)
/// that defines the adaptive engine's served cache; MultiCacheProbe walks
/// one such cache per configuration of the sweep; AdaptiveCacheEngine and
/// the policy functions are the library's former bodies over these types,
/// serving from a second CacheModel, driven by Interpreter::runFast through
/// a StaticMux. Only what the Fig. 10 policies use is kept (no
/// checkpoint state, no chosenSizeKB). Test-only: the library keeps a
/// single LRU stack per set, which answers both the probe and the served
/// cache.
///
//===----------------------------------------------------------------------===//

#ifndef SPM_TESTS_CACHEREFERENCE_H
#define SPM_TESTS_CACHEREFERENCE_H

#include "adaptcache/Policies.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace spm {
namespace ref {

/// A single set-associative LRU cache.
class CacheModel {
public:
  explicit CacheModel(CacheConfig Cfg = CacheConfig()) { configure(Cfg); }

  void configure(CacheConfig NewCfg) {
    assert(NewCfg.Sets > 0 && NewCfg.Assoc > 0 && NewCfg.BlockBytes > 0 &&
           "degenerate cache configuration");
    Cfg = NewCfg;
    Tags.assign(static_cast<size_t>(Cfg.Sets) * Cfg.Assoc, ~0ull);
    Stamps.assign(Tags.size(), 0);
    Clock = 0;
  }

  void setAssocPreserving(uint32_t NewAssoc) {
    assert(NewAssoc > 0 && "degenerate associativity");
    if (NewAssoc == Cfg.Assoc)
      return;
    uint32_t OldAssoc = Cfg.Assoc;
    std::vector<uint64_t> NewTags(static_cast<size_t>(Cfg.Sets) * NewAssoc,
                                  ~0ull);
    std::vector<uint64_t> NewStamps(NewTags.size(), 0);
    uint32_t Keep = NewAssoc < OldAssoc ? NewAssoc : OldAssoc;
    for (uint32_t Set = 0; Set < Cfg.Sets; ++Set) {
      uint64_t *OldT = &Tags[static_cast<size_t>(Set) * OldAssoc];
      uint64_t *OldS = &Stamps[static_cast<size_t>(Set) * OldAssoc];
      std::vector<uint32_t> Order(OldAssoc);
      for (uint32_t W = 0; W < OldAssoc; ++W)
        Order[W] = W;
      std::sort(Order.begin(), Order.end(),
                [&](uint32_t A, uint32_t B) { return OldS[A] > OldS[B]; });
      for (uint32_t W = 0; W < Keep; ++W) {
        NewTags[static_cast<size_t>(Set) * NewAssoc + W] = OldT[Order[W]];
        NewStamps[static_cast<size_t>(Set) * NewAssoc + W] = OldS[Order[W]];
      }
    }
    Cfg.Assoc = NewAssoc;
    Tags = std::move(NewTags);
    Stamps = std::move(NewStamps);
  }

  bool access(uint64_t Addr) {
    ++Stats.Accesses;
    uint64_t Block = Addr / Cfg.BlockBytes;
    uint32_t Set = static_cast<uint32_t>(Block & (Cfg.Sets - 1));
    uint64_t Tag = Block >> setBits();
    uint64_t *SetTags = &Tags[static_cast<size_t>(Set) * Cfg.Assoc];
    uint64_t *SetStamps = &Stamps[static_cast<size_t>(Set) * Cfg.Assoc];
    ++Clock;

    uint32_t Victim = 0;
    uint64_t OldestStamp = ~0ull;
    for (uint32_t W = 0; W < Cfg.Assoc; ++W) {
      if (SetTags[W] == Tag) {
        SetStamps[W] = Clock;
        return true;
      }
      if (SetStamps[W] < OldestStamp) {
        OldestStamp = SetStamps[W];
        Victim = W;
      }
    }
    ++Stats.Misses;
    SetTags[Victim] = Tag;
    SetStamps[Victim] = Clock;
    return false;
  }

  const CacheStats &stats() const { return Stats; }

private:
  uint32_t setBits() const {
    uint32_t Bits = 0;
    for (uint32_t S = Cfg.Sets; S > 1; S >>= 1)
      ++Bits;
    return Bits;
  }

  CacheConfig Cfg;
  CacheStats Stats;
  std::vector<uint64_t> Tags;
  std::vector<uint64_t> Stamps;
  uint64_t Clock = 0;
};

/// Simulates a whole configuration sweep in parallel on one address stream.
class MultiCacheProbe {
public:
  explicit MultiCacheProbe(std::vector<CacheConfig> Sweep) {
    assert(!Sweep.empty() && "empty cache sweep");
    for (const CacheConfig &C : Sweep)
      Caches.emplace_back(C);
  }

  void access(uint64_t Addr) {
    for (CacheModel &C : Caches)
      C.access(Addr);
  }

  size_t size() const { return Caches.size(); }

  std::vector<CacheStats> statsSnapshot() const {
    std::vector<CacheStats> Out;
    Out.reserve(Caches.size());
    for (const CacheModel &C : Caches)
      Out.push_back(C.stats());
    return Out;
  }

private:
  std::vector<CacheModel> Caches;
};

/// The Sec. 6.1 reconfiguration engine over the reference caches.
class AdaptiveCacheEngine : public ExecutionObserver {
public:
  explicit AdaptiveCacheEngine(
      std::vector<CacheConfig> Sweep = CacheConfig::reconfigSweep(),
      double Tolerance = 0.05, uint32_t ExploreIntervals = 2)
      : Sweep(Sweep), Probe(Sweep), Serving(Sweep.back()),
        Tolerance(Tolerance), ExploreIntervals(ExploreIntervals) {
    CurConfigIdx = Sweep.size() - 1;
    ProbeStart = Probe.statsSnapshot();
  }

  static constexpr uint64_t CoalesceInstrs = 1000;

  void onPhaseBoundary(int32_t PhaseId) {
    if (IntervalInstrs < CoalesceInstrs) {
      CurPhase = PhaseId;
      applyConfigFor(PhaseId);
      ProbeStart = Probe.statsSnapshot();
      return;
    }
    finalizeInterval();
    beginInterval(PhaseId);
  }

  void onBlock(const LoweredBlock &Blk) override {
    IntervalInstrs += Blk.NumInstrs;
  }

  void onMemAccess(uint64_t Addr, bool IsStore) override {
    (void)IsStore;
    Probe.access(Addr);
    ++ServedAccesses;
    if (!Serving.access(Addr))
      ++ServedMisses;
  }

  void onRunEnd(uint64_t Total) override {
    (void)Total;
    finalizeInterval();
  }

  AdaptiveCacheResult result() const {
    AdaptiveCacheResult R;
    R.AvgCacheKB = TotalWeight > 0 ? SizeWeighted / TotalWeight : 0.0;
    R.MissRate = ServedAccesses
                     ? static_cast<double>(ServedMisses) / ServedAccesses
                     : 0.0;
    R.Intervals = NumIntervals;
    R.Explorations = NumExplorations;
    return R;
  }

private:
  struct PhaseState {
    uint32_t Explored = 0;
    int32_t BestIdx = -1;
    std::vector<CacheStats> Aggregate;
  };

  void applyConfigFor(int32_t PhaseId) {
    PhaseState &PS = Phases[PhaseId];
    Exploring = PS.BestIdx < 0;
    if (!Exploring) {
      CurConfigIdx = static_cast<size_t>(PS.BestIdx);
      Serving.setAssocPreserving(Sweep[CurConfigIdx].Assoc);
    } else {
      CurConfigIdx = Sweep.size() - 1;
      Serving.setAssocPreserving(Sweep.back().Assoc);
    }
  }

  void beginInterval(int32_t PhaseId) {
    CurPhase = PhaseId;
    applyConfigFor(PhaseId);
    ProbeStart = Probe.statsSnapshot();
  }

  void finalizeInterval() {
    if (IntervalInstrs == 0)
      return;
    ++NumIntervals;
    double W = static_cast<double>(IntervalInstrs);
    SizeWeighted += Sweep[CurConfigIdx].sizeKB() * W;
    TotalWeight += W;

    if (Exploring) {
      ++NumExplorations;
      PhaseState &PS = Phases[CurPhase];
      if (PS.Aggregate.empty())
        PS.Aggregate.assign(Sweep.size(), CacheStats());
      std::vector<CacheStats> Now = Probe.statsSnapshot();
      for (size_t I = 0; I < Sweep.size(); ++I)
        PS.Aggregate[I] += Now[I] - ProbeStart[I];
      if (++PS.Explored >= ExploreIntervals)
        PS.BestIdx = static_cast<int32_t>(pickBest(PS.Aggregate));
    }
    IntervalInstrs = 0;
  }

  size_t pickBest(const std::vector<CacheStats> &Agg) const {
    uint64_t BestMisses = ~0ull;
    for (const CacheStats &S : Agg)
      BestMisses = std::min(BestMisses, S.Misses);
    for (size_t I = 0; I < Agg.size(); ++I) {
      auto Limit = static_cast<uint64_t>(
          static_cast<double>(BestMisses) * (1.0 + Tolerance) + 4.0);
      if (Agg[I].Misses <= Limit)
        return I;
    }
    return Agg.size() - 1;
  }

  std::vector<CacheConfig> Sweep;
  MultiCacheProbe Probe;
  CacheModel Serving;
  double Tolerance;
  uint32_t ExploreIntervals;

  std::unordered_map<int32_t, PhaseState> Phases;
  int32_t CurPhase = -1;
  size_t CurConfigIdx = 0;
  bool Exploring = true;
  std::vector<CacheStats> ProbeStart;
  uint64_t IntervalInstrs = 0;

  double SizeWeighted = 0.0;
  double TotalWeight = 0.0;
  uint64_t ServedAccesses = 0;
  uint64_t ServedMisses = 0;
  uint64_t NumIntervals = 0;
  uint64_t NumExplorations = 0;
};

inline AdaptiveCacheResult
runAdaptiveWithMarkers(const Binary &B, const LoopIndex &Loops,
                       const CallLoopGraph &G, const MarkerSet &M,
                       const WorkloadInput &In) {
  AdaptiveCacheEngine Engine;
  CallLoopTracker Tracker(B, Loops, G);
  MarkerRuntime Runtime(M, G);
  Tracker.addListener(&Runtime);
  Runtime.setCallback(
      [&](int32_t Idx) { Engine.onPhaseBoundary(Idx); });

  StaticMux<CallLoopTracker, AdaptiveCacheEngine> Mux(Tracker, Engine);
  Interpreter Interp(B, In);
  Interp.runFast(Mux);
  return Engine.result();
}

inline AdaptiveCacheResult
runAdaptiveWithReuseMarkers(const Binary &B, const ReuseMarkerSet &M,
                            const WorkloadInput &In) {
  AdaptiveCacheEngine Engine;
  ReuseMarkerRuntime Runtime(M);
  Runtime.setCallback(
      [&](int32_t Idx) { Engine.onPhaseBoundary(Idx); });

  StaticMux<ReuseMarkerRuntime, AdaptiveCacheEngine> Mux(Runtime, Engine);
  Interpreter Interp(B, In);
  Interp.runFast(Mux);
  return Engine.result();
}

class OracleBoundaryDriver : public ExecutionObserver {
public:
  OracleBoundaryDriver(AdaptiveCacheEngine &Engine, uint64_t FixedLen,
                       std::vector<int32_t> PhaseIds)
      : Engine(Engine), FixedLen(FixedLen), PhaseIds(std::move(PhaseIds)) {}

  void onRunStart(const Binary &B, const WorkloadInput &In) override {
    (void)B;
    (void)In;
    if (!PhaseIds.empty())
      Engine.onPhaseBoundary(PhaseIds[0]);
    Next = 1;
    CurInstrs = 0;
  }

  void onBlock(const LoweredBlock &Blk) override {
    if (CurInstrs >= FixedLen && Next < PhaseIds.size()) {
      Engine.onPhaseBoundary(PhaseIds[Next++]);
      CurInstrs = 0;
    }
    CurInstrs += Blk.NumInstrs;
  }

private:
  AdaptiveCacheEngine &Engine;
  uint64_t FixedLen;
  std::vector<int32_t> PhaseIds;
  size_t Next = 1;
  uint64_t CurInstrs = 0;
};

inline AdaptiveCacheResult
runAdaptiveWithOracleBbv(const Binary &B, const WorkloadInput &In,
                         uint64_t FixedLen,
                         const SimPointConfig &SPConfig = SimPointConfig()) {
  std::vector<IntervalRecord> Ivs =
      runFixedIntervals(B, In, FixedLen, /*CollectBbv=*/true);
  SimPointResult SP = runSimPoint(Ivs, SPConfig);

  AdaptiveCacheEngine Engine;
  OracleBoundaryDriver Driver(Engine, FixedLen, SP.Assign);
  StaticMux<OracleBoundaryDriver, AdaptiveCacheEngine> Mux(Driver, Engine);
  Interpreter Interp(B, In);
  Interp.runFast(Mux);
  return Engine.result();
}

inline FixedSizeResult
bestFixedSize(const Binary &B, const WorkloadInput &In,
              double HitTolAbs = 0.0005,
              std::vector<CacheConfig> Sweep = CacheConfig::reconfigSweep()) {
  class ProbeObserver : public ExecutionObserver {
  public:
    explicit ProbeObserver(std::vector<CacheConfig> Sweep)
        : Probe(std::move(Sweep)) {}
    void onMemAccess(uint64_t Addr, bool IsStore) override {
      (void)IsStore;
      Probe.access(Addr);
    }
    MultiCacheProbe Probe;
  };

  ProbeObserver Obs(Sweep);
  Interpreter Interp(B, In);
  Interp.runFast(Obs);

  FixedSizeResult R;
  R.PerConfig = Obs.Probe.statsSnapshot();
  double MaxHit = 0.0;
  for (const CacheStats &S : R.PerConfig)
    MaxHit = std::max(MaxHit, S.hitRate());
  for (size_t I = 0; I < R.PerConfig.size(); ++I) {
    if (R.PerConfig[I].hitRate() >= MaxHit - HitTolAbs) {
      R.BestIdx = I;
      break;
    }
  }
  R.BestFixedKB = Sweep[R.BestIdx].sizeKB();
  return R;
}

} // namespace ref
} // namespace spm

#endif // SPM_TESTS_CACHEREFERENCE_H
