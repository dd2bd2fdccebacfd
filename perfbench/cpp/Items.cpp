//===- perfbench/cpp/Items.cpp - The four benchmark workloads -------------===//
//
// Part of the SPM project: reproduction of "Selecting Software Phase Markers
// with Code Structure Analysis" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Item lists of the four workloads. They make the calls of the paper
/// harnesses (bench/SimPointSweep.h, bench/fig10_cache_reconfig.cpp and the
/// spm_tool profile/select/report chain), one item per experiment unit, with
/// the scaled experiment constants and selector configurations of
/// bench/BenchUtil.h.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "bench/BenchUtil.h"

#include "adaptcache/Policies.h"
#include "callloop/ProfileIO.h"
#include "ir/Lowering.h"
#include "markers/Selector.h"
#include "markers/Serialize.h"
#include "markers/Sharded.h"
#include "phase/Metrics.h"
#include "reuse/ReuseDistance.h"
#include "simpoint/Projection.h"
#include "support/Random.h"
#include "support/Trace.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

using namespace spm;

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

using bench::FixedBbvInterval;
using bench::limitConfig;
using bench::noLimitConfig;

//===----------------------------------------------------------------------===//
// Output digests and checks
//===----------------------------------------------------------------------===//

void hashIntervals(Digest &D, const std::vector<IntervalRecord> &Ivs) {
  D.u64(Ivs.size());
  for (const IntervalRecord &R : Ivs) {
    // WallNs is host time, not output.
    D.u64(R.StartInstr);
    D.u64(R.NumInstrs);
    D.u64(R.NumBlocks);
    D.u64(R.NumMem);
    D.u64(static_cast<uint64_t>(static_cast<int64_t>(R.PhaseId)));
    const PerfCounters &P = R.Perf;
    for (uint64_t V : {P.Instrs, P.BaseCycles, P.L1Accesses, P.L1Misses,
                       P.L2Accesses, P.L2Misses, P.Branches, P.Mispredicts})
      D.u64(V);
    D.u64(R.Vector.size());
    for (const auto &[Block, W] : R.Vector) {
      D.u64(Block);
      D.f64(W);
    }
  }
}

void hashGraph(Digest &D, const CallLoopGraph &G) {
  std::vector<const CallLoopEdge *> Edges = G.sortedEdges();
  D.u64(Edges.size());
  for (const CallLoopEdge *E : Edges) {
    D.u64(E->From);
    D.u64(E->To);
    D.u64(E->Hier.count());
    D.f64(E->Hier.mean());
    D.f64(E->Hier.m2());
    D.f64(E->Hier.max());
  }
}

void hashSimPoint(Digest &D, const SimPointResult &SP) {
  D.u64(SP.K);
  D.u64(SP.Assign.size());
  for (int32_t A : SP.Assign)
    D.u64(static_cast<uint64_t>(static_cast<int64_t>(A)));
  for (const SimPointChoice &C : SP.Points) {
    D.u64(C.Cluster);
    D.u64(C.IntervalIdx);
    D.f64(C.Weight);
  }
}

void hashEstimate(Digest &D, const CpiEstimate &E) {
  D.f64(E.TrueCpi);
  D.f64(E.EstCpi);
  D.f64(E.RelError);
  D.u64(E.SimulatedInstrs);
  D.u64(E.PointsUsed);
}

void hashAdaptive(Digest &D, const AdaptiveCacheResult &A) {
  D.f64(A.AvgCacheKB);
  D.f64(A.MissRate);
  D.u64(A.Intervals);
  D.u64(A.Explorations);
}

/// Interval instruction counts must sum to the run's length.
void checkIntervals(ItemOut &O, const std::vector<IntervalRecord> &Ivs,
                    uint64_t Total) {
  uint64_t Sum = 0;
  for (const IntervalRecord &R : Ivs)
    Sum += R.NumInstrs;
  if (Ivs.empty() || Sum != Total)
    O.fail("interval instrs sum " + std::to_string(Sum) + " != run total " +
           std::to_string(Total));
}

/// K within [1, KMax], assignments in range, point weights sum to 1.
void checkSimPoint(ItemOut &O, const SimPointResult &SP, size_t NumIvs,
                   uint32_t KMax) {
  if (SP.K < 1 || SP.K > KMax)
    O.fail("simpoint K " + std::to_string(SP.K) + " outside [1, kmax]");
  if (SP.Assign.size() != NumIvs)
    O.fail("simpoint assignment count != interval count");
  for (int32_t A : SP.Assign)
    if (A < 0 || static_cast<uint32_t>(A) >= SP.K) {
      O.fail("simpoint assignment out of range");
      break;
    }
  double W = 0.0;
  for (const SimPointChoice &C : SP.Points)
    W += C.Weight;
  if (std::fabs(W - 1.0) > 1e-9)
    O.fail("simpoint point weights sum to " + std::to_string(W));
}

void checkCacheKB(ItemOut &O, double KB) {
  if (!(KB >= 32.0 && KB <= 256.0))
    O.fail("AvgCacheKB " + std::to_string(KB) + " outside [32, 256]");
}

//===----------------------------------------------------------------------===//
// Traced-run replays
//===----------------------------------------------------------------------===//

struct NullObs {};

struct StreamRecorder {
  std::vector<uint64_t> *Out;
  void onMemAccess(uint64_t Addr, bool IsStore) {
    (void)IsStore;
    Out->push_back(Addr);
  }
};

/// Replays one interpreter run of \p In that ran under span \p Span: a
/// null-observer run gives the interpreter's own time (moved to "vm"), and
/// with \p Perf a PerfModel-only run gives the performance model's self
/// time (moved to "uarch").
void replayRun(Extras &X, const char *Span, const Program &P,
               const WorkloadInput &In, bool Perf) {
  NullObs Null;
  auto T0 = Clock::now();
  RunResult R = Interpreter(*P.Bin, In).runFast(Null);
  double NullS = secondsSince(T0);
  X.add("vm.null_run_s", NullS);
  X.add("vm.null_instrs", static_cast<double>(R.TotalInstrs));
  X.Moves.push_back({Span, "vm", NullS});
  if (!Perf)
    return;
  PerfModel Model{PerfModelOptions()};
  T0 = Clock::now();
  Interpreter(*P.Bin, In).runFast(Model);
  double PerfSelf = std::max(0.0, secondsSince(T0) - NullS);
  X.add("uarch.perfmodel_self_s", PerfSelf);
  X.Moves.push_back({Span, "uarch", PerfSelf});
}

std::vector<uint64_t> recordStream(const Program &P, const WorkloadInput &In) {
  std::vector<uint64_t> Addrs;
  StreamRecorder Rec{&Addrs};
  Interpreter(*P.Bin, In).runFast(Rec);
  return Addrs;
}

/// Replays the ref address stream through the Fig. 10 configuration sweep;
/// the probe's time moves from span \p Span to "uarch".
void replayProbe(Extras &X, const char *Span, const Program &P) {
  std::vector<uint64_t> Addrs = recordStream(P, P.W.Ref);
  MultiCacheProbe Probe(CacheConfig::reconfigSweep());
  auto T0 = Clock::now();
  for (uint64_t A : Addrs)
    Probe.access(A);
  double S = secondsSince(T0);
  X.add("uarch.probe_replay_s", S);
  X.add("uarch.probe_accesses", static_cast<double>(Addrs.size()));
  X.Moves.push_back({Span, "uarch", S});
}

/// Replays the train address stream through an exact reuse-distance
/// tracker (the reuse baseline's profiling pass).
void replayReuse(Extras &X, const Program &P) {
  std::vector<uint64_t> Addrs = recordStream(P, P.W.Train);
  ReuseDistanceTracker T;
  uint64_t Sink = 0;
  auto T0 = Clock::now();
  for (uint64_t A : Addrs)
    Sink += T.access(A) == ReuseDistanceTracker::ColdMiss;
  double S = secondsSince(T0);
  X.add("reuse.distance_replay_s", S);
  X.add("reuse.replay_accesses", static_cast<double>(Addrs.size()));
  X.add("reuse.cold_blocks", static_cast<double>(Sink)); // Keeps the loop.
}

/// Times the projection runSimPoint performs internally.
void replayProjection(Extras &X, const std::vector<IntervalRecord> &Ivs,
                      const SimPointConfig &SPC) {
  auto T0 = Clock::now();
  std::vector<ProjectedVec> Pts = projectIntervals(Ivs, SPC.Dim, SPC.Seed);
  X.add("simpoint.project_s", secondsSince(T0));
  X.add("simpoint.projected", static_cast<double>(Pts.size())); // Keeps it.
}

//===----------------------------------------------------------------------===//
// simpoint: Figs. 11/12
//===----------------------------------------------------------------------===//

/// Fixed-length SimPoint (bench/SimPointSweep.h): BBV intervals of \p Len
/// instructions, kmax \p KMax, 3 restarts, CPI estimated at full coverage.
ItemOut simPointFixed(Program &P, uint64_t Len, uint32_t KMax) {
  ItemOut O;
  std::vector<IntervalRecord> Ivs;
  {
    SPM_TRACE_SPAN("bench/markers.runFixedIntervals");
    Ivs = runFixedIntervals(*P.Bin, P.W.Ref, Len, true);
  }
  SimPointConfig SPC;
  SPC.KMax = KMax;
  SPC.Restarts = 3;
  SimPointResult SP;
  {
    SPM_TRACE_SPAN("bench/simpoint.runSimPoint");
    SP = runSimPoint(Ivs, SPC);
  }
  CpiEstimate E;
  {
    SPM_TRACE_SPAN("bench/simpoint.estimateCpi");
    E = estimateCpi(Ivs, SP, 1.0);
  }
  checkIntervals(O, Ivs, P.RefInstrs);
  checkSimPoint(O, SP, Ivs.size(), SPC.KMax);
  Digest D;
  hashIntervals(D, Ivs);
  hashSimPoint(D, SP);
  hashEstimate(D, E);
  O.Digest = D.value();
  O.CpiErrors.push_back(E.RelError);
  O.count("simpoint.points", static_cast<double>(SP.Points.size()));
  O.count("simpoint.k_chosen", SP.K);
  O.count("simpoint.runs", 1);
  O.Replay = [&P, Ivs = std::move(Ivs), SPC](Extras &X) {
    replayRun(X, "bench/markers.runFixedIntervals", P, P.W.Ref, true);
    replayProjection(X, Ivs, SPC);
  };
  return O;
}

/// Marker VLIs: ref-trained limit-mode markers, SimPoint 3.0 weighted
/// clustering with kmax 10, CPI at 95/99/100% coverage.
ItemOut simPointVli(Program &P) {
  ItemOut O;
  std::unique_ptr<CallLoopGraph> G;
  {
    SPM_TRACE_SPAN("bench/callloop.buildCallLoopGraph");
    G = buildCallLoopGraph(*P.Bin, P.Loops, P.W.Ref);
  }
  SelectionResult Sel;
  {
    SPM_TRACE_SPAN("bench/markers.selectMarkers");
    Sel = selectMarkers(*G, limitConfig());
  }
  MarkerRun Run;
  {
    SPM_TRACE_SPAN("bench/markers.runMarkerIntervals");
    Run = runMarkerIntervals(*P.Bin, P.Loops, *G, Sel.Markers, P.W.Ref, true);
  }
  SimPointConfig SPC;
  SPC.KMax = 10;
  SPC.WeightByLength = true;
  SimPointResult SP;
  {
    SPM_TRACE_SPAN("bench/simpoint.runSimPoint");
    SP = runSimPoint(Run.Intervals, SPC);
  }
  Digest D;
  hashGraph(D, *G);
  hashIntervals(D, Run.Intervals);
  hashSimPoint(D, SP);
  for (double Cov : {0.95, 0.99, 1.0}) {
    CpiEstimate E;
    {
      SPM_TRACE_SPAN("bench/simpoint.estimateCpi");
      E = estimateCpi(Run.Intervals, SP, Cov);
    }
    hashEstimate(D, E);
    O.CpiErrors.push_back(E.RelError);
  }
  checkIntervals(O, Run.Intervals, Run.Run.TotalInstrs);
  if (Run.Run.TotalInstrs != P.RefInstrs)
    O.fail("marker run length != ref run length");
  checkSimPoint(O, SP, Run.Intervals.size(), SPC.KMax);
  O.Digest = D.value();
  O.count("callloop.edges", static_cast<double>(G->numEdges()));
  O.count("markers.selected", static_cast<double>(Sel.Markers.size()));
  O.count("simpoint.points", static_cast<double>(SP.Points.size()));
  O.count("simpoint.k_chosen", SP.K);
  O.count("simpoint.runs", 1);
  O.Replay = [&P, Ivs = std::move(Run.Intervals), SPC](Extras &X) {
    replayRun(X, "bench/callloop.buildCallLoopGraph", P, P.W.Ref, false);
    replayRun(X, "bench/markers.runMarkerIntervals", P, P.W.Ref, true);
    replayProjection(X, Ivs, SPC);
  };
  return O;
}

//===----------------------------------------------------------------------===//
// reconfig: Fig. 10 and the Sec. 6.1 text
//===----------------------------------------------------------------------===//

const CallLoopGraph &graph(const std::unique_ptr<CallLoopGraph> &G) {
  if (!G)
    throw std::runtime_error("profiling item has not run for this program");
  return *G;
}

/// Train and ref call-loop graphs, for the program's later bars.
ItemOut reconfigProfile(Program &P) {
  ItemOut O;
  std::vector<std::unique_ptr<CallLoopGraph>> Gs;
  {
    SPM_TRACE_SPAN("bench/callloop.buildCallLoopGraphs");
    Gs = buildCallLoopGraphs(*P.Bin, P.Loops, {&P.W.Train, &P.W.Ref});
  }
  P.GTrain = std::move(Gs[0]);
  P.GRef = std::move(Gs[1]);
  Digest D;
  hashGraph(D, *P.GTrain);
  hashGraph(D, *P.GRef);
  O.Digest = D.value();
  O.count("callloop.edges",
          static_cast<double>(P.GTrain->numEdges() + P.GRef->numEdges()));
  O.Replay = [&P](Extras &X) {
    const char *Span = "bench/callloop.buildCallLoopGraphs";
    replayRun(X, Span, P, P.W.Train, false);
    replayRun(X, Span, P, P.W.Ref, false);
  };
  return O;
}

/// Books an adaptive-policy result: range check, digest, counts.
void adaptiveOut(ItemOut &O, Digest &D, const AdaptiveCacheResult &A) {
  checkCacheKB(O, A.AvgCacheKB);
  hashAdaptive(D, A);
  O.Digest = D.value();
  O.CacheKB.push_back(A.AvgCacheKB);
  O.count("adaptcache.intervals", static_cast<double>(A.Intervals));
  O.count("adaptcache.explorations", static_cast<double>(A.Explorations));
}

/// The idealistic BBV/SimPoint oracle bar.
ItemOut oracleBbv(Program &P) {
  ItemOut O;
  AdaptiveCacheResult A;
  {
    SPM_TRACE_SPAN("bench/adaptcache.runAdaptiveWithOracleBbv");
    A = runAdaptiveWithOracleBbv(*P.Bin, P.W.Ref, FixedBbvInterval);
  }
  Digest D;
  adaptiveOut(O, D, A);
  O.Replay = [&P](Extras &X) {
    const char *Span = "bench/adaptcache.runAdaptiveWithOracleBbv";
    replayRun(X, Span, P, P.W.Ref, true);
    replayRun(X, Span, P, P.W.Ref, false);
    replayProbe(X, Span, P);
  };
  return O;
}

/// An adaptive-policy bar steered by markers selected from the train
/// (cross) or ref (self) graph.
ItemOut markerPolicy(Program &P, bool FromTrain, bool ProceduresOnly) {
  ItemOut O;
  const CallLoopGraph &G = graph(FromTrain ? P.GTrain : P.GRef);
  MarkerSet M;
  {
    SPM_TRACE_SPAN("bench/markers.selectMarkers");
    M = selectMarkers(G, noLimitConfig(ProceduresOnly)).Markers;
  }
  AdaptiveCacheResult A;
  {
    SPM_TRACE_SPAN("bench/adaptcache.runAdaptiveWithMarkers");
    A = runAdaptiveWithMarkers(*P.Bin, P.Loops, G, M, P.W.Ref);
  }
  Digest D;
  D.u64(M.size());
  adaptiveOut(O, D, A);
  O.count("markers.selected", static_cast<double>(M.size()));
  O.Replay = [&P](Extras &X) {
    const char *Span = "bench/adaptcache.runAdaptiveWithMarkers";
    replayRun(X, Span, P, P.W.Ref, false);
    replayProbe(X, Span, P);
  };
  return O;
}

/// The reuse-distance baseline bar, its train-input profiling included.
ItemOut reuseDist(Program &P) {
  ItemOut O;
  ReuseMarkerSet R;
  {
    SPM_TRACE_SPAN("bench/reuse.profileReuseMarkers");
    R = profileReuseMarkers(*P.Bin, P.W.Train);
  }
  AdaptiveCacheResult A;
  {
    SPM_TRACE_SPAN("bench/adaptcache.runAdaptiveWithReuseMarkers");
    A = runAdaptiveWithReuseMarkers(*P.Bin, R, P.W.Ref);
  }
  Digest D;
  D.u64(R.size());
  for (size_t I = 0; I < R.size(); ++I) {
    D.u64(R.Blocks[I]);
    D.u64(R.Labels[I]);
  }
  adaptiveOut(O, D, A);
  O.count("reuse.markers", static_cast<double>(R.size()));
  O.Replay = [&P](Extras &X) {
    replayRun(X, "bench/reuse.profileReuseMarkers", P, P.W.Train, false);
    replayReuse(X, P);
    const char *Span = "bench/adaptcache.runAdaptiveWithReuseMarkers";
    replayRun(X, Span, P, P.W.Ref, false);
    replayProbe(X, Span, P);
  };
  return O;
}

/// The best-fixed-size bar: one whole-run probe of every configuration.
ItemOut bestFixed(Program &P) {
  ItemOut O;
  FixedSizeResult F;
  {
    SPM_TRACE_SPAN("bench/adaptcache.bestFixedSize");
    F = bestFixedSize(*P.Bin, P.W.Ref);
  }
  // LRU inclusion: with sets and block size fixed, more ways never lose a
  // hit.
  for (size_t I = 1; I < F.PerConfig.size(); ++I) {
    const CacheStats &A = F.PerConfig[I - 1];
    const CacheStats &B = F.PerConfig[I];
    if (B.Accesses - B.Misses < A.Accesses - A.Misses) {
      O.fail("best-fixed hits fall from " + std::to_string(I) + " to " +
             std::to_string(I + 1) + " ways");
      break;
    }
  }
  Digest D;
  for (const CacheStats &S : F.PerConfig) {
    D.u64(S.Accesses);
    D.u64(S.Misses);
  }
  D.u64(F.BestIdx);
  D.f64(F.BestFixedKB);
  O.Digest = D.value();
  O.Replay = [&P](Extras &X) {
    const char *Span = "bench/adaptcache.bestFixedSize";
    replayRun(X, Span, P, P.W.Ref, false);
    replayProbe(X, Span, P);
  };
  return O;
}

void addReconfigItems(std::vector<Item> &Items, Program &P, bool FullBars) {
  auto Add = [&](const char *Kind, std::function<ItemOut()> Run) {
    Items.push_back({P.Name + "/" + Kind, std::move(Run)});
  };
  // Fig. 10's bar order; gcc and vortex get the Sec. 6.1 columns only.
  Add("profile", [&P] { return reconfigProfile(P); });
  if (FullBars)
    Add("BBV", [&P] { return oracleBbv(P); });
  Add("SPM-Self", [&P] { return markerPolicy(P, false, false); });
  if (FullBars)
    Add("Procs-Cross", [&P] { return markerPolicy(P, true, true); });
  Add("ReuseDist", [&P] { return reuseDist(P); });
  if (FullBars)
    Add("SPM-Cross", [&P] { return markerPolicy(P, true, false); });
  Add("BestFixed", [&P] { return bestFixed(P); });
}

//===----------------------------------------------------------------------===//
// markers / markers_sharded: the spm_tool profile -> select -> report chain
//===----------------------------------------------------------------------===//

/// Per sharded driver call: wall time and its legs' ShardSeconds.
void countShardCall(ItemOut &O, double CallS, const std::vector<double> &Legs) {
  double Max = 0.0, Sum = 0.0;
  for (double S : Legs) {
    Max = std::max(Max, S);
    Sum += S;
  }
  O.count("shard.calls", 1);
  O.count("shard.call_s", CallS);
  O.count("shard.leg_max_s", Max);
  O.count("shard.leg_sum_s", Sum);
  if (Sum > 0.0)
    O.count("shard.imbalance_sum", Max / (Sum / Legs.size()));
}

/// profile (train) -> select -> report (ref) as spm_tool runs them, with
/// the profile and marker files round-tripped in memory.
ItemOut chain(Program &P, const SelectorConfig &Config, unsigned Shards) {
  ItemOut O;
  std::unique_ptr<CallLoopGraph> G;
  if (Shards > 1) {
    SPM_TRACE_SPAN("bench/shard.buildCallLoopGraphSharded");
    std::vector<double> Legs;
    auto T0 = Clock::now();
    G = buildCallLoopGraphSharded(*P.Bin, P.Loops, P.W.Train, Shards,
                                  std::numeric_limits<uint64_t>::max(), &Legs);
    countShardCall(O, secondsSince(T0), Legs);
  } else {
    SPM_TRACE_SPAN("bench/callloop.buildCallLoopGraph");
    G = buildCallLoopGraph(*P.Bin, P.Loops, P.W.Train);
  }

  // spm_tool profile writes the graph; select reads it back.
  std::optional<CallLoopProfileFile> Profile;
  std::string ProfileText;
  {
    SPM_TRACE_SPAN("bench/callloop.profileIO");
    ProfileText = serializeProfile(*G, *P.Bin, P.Loops);
    std::string Err;
    Profile = parseProfile(ProfileText, &Err);
    if (!Profile)
      throw std::runtime_error("profile does not parse: " + Err);
  }
  SelectionResult Sel;
  {
    SPM_TRACE_SPAN("bench/markers.selectMarkers");
    Sel = selectMarkers(*Profile->Graph, Config);
  }

  // select writes portable markers; report re-anchors them in a fresh graph
  // of the same binary.
  std::string MarkerText;
  auto G2 = std::make_unique<CallLoopGraph>(*P.Bin, P.Loops);
  MarkerSet M;
  {
    SPM_TRACE_SPAN("bench/markers.serializeIO");
    MarkerText = serializeMarkers(
        toPortable(Sel.Markers, *Profile->Graph, Profile->FuncNames));
    std::string Err;
    auto Portable = parseMarkers(MarkerText, &Err);
    if (!Portable)
      throw std::runtime_error("markers do not parse: " + Err);
    M = fromPortable(*Portable, *G2, *P.Bin, P.Loops);
    if (M.size() != Portable->size())
      O.fail("markers did not all anchor in their own binary");
  }

  MarkerRun Run;
  if (Shards > 1) {
    SPM_TRACE_SPAN("bench/shard.runMarkerIntervalsSharded");
    std::vector<double> Legs;
    auto T0 = Clock::now();
    Run = runMarkerIntervalsSharded(*P.Bin, P.Loops, *G2, M, P.W.Ref, false,
                                    false, Shards,
                                    std::numeric_limits<uint64_t>::max(),
                                    PerfModelOptions(), &Legs);
    countShardCall(O, secondsSince(T0), Legs);
  } else {
    SPM_TRACE_SPAN("bench/markers.runMarkerIntervals");
    Run = runMarkerIntervals(*P.Bin, P.Loops, *G2, M, P.W.Ref, false);
  }
  ClassificationSummary S;
  {
    SPM_TRACE_SPAN("bench/phase.summarizeClassification");
    S = summarizeClassification(Run.Intervals, phasesFromRecords(Run.Intervals),
                                cpiMetric);
  }

  checkIntervals(O, Run.Intervals, Run.Run.TotalInstrs);
  if (Run.Run.TotalInstrs != P.RefInstrs)
    O.fail("marker run length != ref run length");
  Digest D;
  D.str(ProfileText);
  D.str(MarkerText);
  hashIntervals(D, Run.Intervals);
  D.u64(Run.Run.TotalInstrs);
  D.u64(Run.Run.TotalBlocks);
  D.u64(Run.Run.TotalMemAccesses);
  D.u64(S.NumIntervals);
  D.u64(S.NumPhases);
  D.f64(S.AvgIntervalLen);
  D.f64(S.OverallCov);
  O.Digest = D.value();
  O.count("callloop.edges", static_cast<double>(G->numEdges()));
  O.count("markers.selected", static_cast<double>(M.size()));
  if (Shards > 1)
    // Each sharded driver starts with a null-observer planning run of its
    // input, which is the interpreter's share.
    O.Replay = [&P](Extras &X) {
      replayRun(X, "bench/shard.buildCallLoopGraphSharded", P, P.W.Train,
                false);
      replayRun(X, "bench/shard.runMarkerIntervalsSharded", P, P.W.Ref, false);
    };
  else
    O.Replay = [&P](Extras &X) {
      replayRun(X, "bench/callloop.buildCallLoopGraph", P, P.W.Train, false);
      replayRun(X, "bench/markers.runMarkerIntervals", P, P.W.Ref, true);
    };
  return O;
}

} // namespace

//===----------------------------------------------------------------------===//
// Workload registry and set-up
//===----------------------------------------------------------------------===//

const std::vector<std::string> &workloadNames() {
  static const std::vector<std::string> Names = {"simpoint", "reconfig",
                                                 "markers", "markers_sharded"};
  return Names;
}

std::vector<std::string> workloadPrograms(const std::string &Workload) {
  if (Workload == "simpoint")
    return WorkloadRegistry::behaviorSuite();
  if (Workload == "reconfig") {
    std::vector<std::string> Names = WorkloadRegistry::reconfigSuite();
    Names.push_back("gcc");
    Names.push_back("vortex");
    return Names;
  }
  return WorkloadRegistry::allNames();
}

uint64_t dataSeed(uint64_t Seed, const std::string &Program, int Which,
                  uint64_t Pass) {
  Digest D;
  D.str(Program);
  D.u64(static_cast<uint64_t>(Which));
  D.u64(Pass);
  SplitMix64 SM(Seed ^ D.value());
  return SM.next();
}

std::vector<std::unique_ptr<Program>>
setupPrograms(const std::vector<std::string> &Names, SetupTimes &T) {
  std::vector<std::unique_ptr<Program>> Progs;
  for (const std::string &Name : Names) {
    auto P = std::make_unique<Program>();
    P->Name = Name;
    auto T0 = Clock::now();
    P->W = WorkloadRegistry::create(Name);
    T.CreateS += secondsSince(T0);
    T0 = Clock::now();
    P->Bin = lower(*P->W.Program, LoweringOptions::O2());
    T.LowerS += secondsSince(T0);
    T0 = Clock::now();
    P->Loops = LoopIndex::build(*P->Bin);
    T.LoopIndexS += secondsSince(T0);
    Progs.push_back(std::move(P));
  }
  return Progs;
}

void preparePass(std::vector<std::unique_ptr<Program>> &Progs, uint64_t Seed,
                 uint64_t Pass) {
  for (auto &P : Progs) {
    P->W.Train.setSeed(dataSeed(Seed, P->Name, 0, Pass));
    P->W.Ref.setSeed(dataSeed(Seed, P->Name, 1, Pass));
    NullObs Null;
    P->TrainInstrs =
        Interpreter(*P->Bin, P->W.Train).runFast(Null).TotalInstrs;
    P->RefInstrs = Interpreter(*P->Bin, P->W.Ref).runFast(Null).TotalInstrs;
    P->GTrain.reset();
    P->GRef.reset();
  }
}

std::vector<Item> makeItems(const std::string &Workload,
                            std::vector<std::unique_ptr<Program>> &Progs,
                            unsigned Shards) {
  std::vector<Item> Items;
  if (Workload == "simpoint") {
    for (auto &PP : Progs) {
      Program &P = *PP;
      // bench/SimPointSweep.h: 1K/10K/100K intervals, kmax 30/30/10.
      Items.push_back(
          {P.Name + "/SP_1k", [&P] { return simPointFixed(P, 1000, 30); }});
      Items.push_back(
          {P.Name + "/SP_10k", [&P] { return simPointFixed(P, 10000, 30); }});
      Items.push_back({P.Name + "/SP_100k",
                       [&P] { return simPointFixed(P, 100000, 10); }});
      Items.push_back({P.Name + "/VLI", [&P] { return simPointVli(P); }});
    }
  } else if (Workload == "reconfig") {
    std::vector<std::string> Full = WorkloadRegistry::reconfigSuite();
    for (auto &P : Progs)
      addReconfigItems(Items, *P,
                       std::find(Full.begin(), Full.end(), P->Name) !=
                           Full.end());
  } else {
    // spm_tool select's three selector configurations.
    const std::pair<const char *, SelectorConfig> Configs[3] = {
        {"no-limit", noLimitConfig()},
        {"limit", limitConfig()},
        {"procs-only", noLimitConfig(true)}};
    for (auto &PP : Progs) {
      Program &P = *PP;
      for (const auto &[Label, Config] : Configs)
        Items.push_back({P.Name + "/" + Label, [&P, Config, Shards] {
                           return chain(P, Config, Shards);
                         }});
    }
  }
  return Items;
}

} // namespace perfbench
