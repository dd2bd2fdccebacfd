//===- markers/Sharded.h - Sharded pipeline execution -----------*- C++ -*-===//
//
// Part of the SPM project: reproduction of "Selecting Software Phase Markers
// with Code Structure Analysis" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shard-level execution: split one deterministic run into N instruction-
/// count shards, execute them as independent resumable segments, and merge
/// the per-shard outputs into results byte-identical to the uninterrupted
/// run. See docs/sharding.md for the design.
///
/// One skeleton (detail::runSharded) runs every sharded driver in three
/// phases; the drivers differ only in the observer stack they build
/// (markers/Stack.h) and how leg outputs merge:
///  1. Plan — a mem-skipped pre-run with a null observer measures the run
///     length; boundaries fall at i*Total/N.
///  2. Warm — a serial fast-forward chain executes segment after segment,
///     saving the stack's checkpoint sections at every boundary. Cache
///     contents, predictor counters, and tracker stacks are
///     history-dependent, so this functional warming (SMARTS-style) cannot
///     be skipped; for graph profiling the chain carries only interpreter
///     + tracker and is cheap.
///  3. Shard — every shard restores its checkpoint and re-executes its
///     segment in parallel on the ambient thread pool, recording outputs.
///     A leg that throws is re-run from its boundary checkpoint under the
///     bounded ShardRetryPolicy; legs are pure replays of immutable
///     checkpoints, so retries stay byte-identical (docs/robustness.md).
///
/// Merging is deterministic and exact:
///  - Interval records concatenate in shard order. An interval spanning a
///    boundary is emitted exactly once — by the shard where it cuts — with
///    exact content, because the open interval's partial state (position,
///    BBV, counter snapshot) traveled in the checkpoint.
///  - Marker firings concatenate in shard order.
///  - Graph statistics replay per-shard ordered traversal logs into one
///    graph, reproducing the sequential Welford accumulation bit-for-bit.
///    A traversal spanning a boundary is recorded once, by the shard that
///    closes the frame, with the carried partial hierarchical count.
///    (CallLoopGraph::mergeFrom offers the cheaper Chan-merge alternative
///    when bit-identity is not required.)
///
/// On a single-CPU host the value is checkpointing itself (resumable runs,
/// differential testing); with cores, phase 3 parallelizes the expensive
/// full-observation pass.
///
//===----------------------------------------------------------------------===//

#ifndef SPM_MARKERS_SHARDED_H
#define SPM_MARKERS_SHARDED_H

#include "markers/Checkpoint.h"
#include "markers/Pipeline.h"
#include "support/FailPoint.h"
#include "support/FlightRecorder.h"
#include "support/Metrics.h"
#include "support/Parallel.h"
#include "support/Trace.h"

#include <cassert>
#include <chrono>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace spm {

/// Segment end positions (cumulative instruction counts) for an N-shard
/// split. Until.size() == N; the last entry is the caller's original
/// MaxInstrs so the final shard terminates exactly as runFast() would.
struct ShardPlan {
  std::vector<uint64_t> Until;
};

/// Plans \p NShards boundaries by measuring the run length with a null
/// observer (memory generation skipped, so this is the cheapest possible
/// pass over the control flow).
inline ShardPlan
planShards(const Binary &B, const WorkloadInput &In, unsigned NShards,
           uint64_t MaxInstrs = std::numeric_limits<uint64_t>::max(),
           const BytecodeModule *Bc = nullptr) {
  assert(NShards >= 1 && "need at least one shard");
  SPM_TRACE_SPAN("shard.plan");
  struct NullObs {};
  NullObs O;
  Interpreter Interp(B, In);
  uint64_t Total = (Bc ? Interp.runBytecode(*Bc, O, MaxInstrs)
                       : Interp.runFast(O, MaxInstrs))
                       .TotalInstrs;

  ShardPlan P;
  P.Until.reserve(NShards);
  for (unsigned S = 0; S + 1 < NShards; ++S)
    P.Until.push_back(Total * (S + 1) / NShards);
  P.Until.push_back(MaxInstrs);
  return P;
}

/// Bounded retry for shard legs (docs/robustness.md). A leg is a pure
/// replay: it builds a fresh interpreter + observer stack and restores from
/// an immutable boundary checkpoint, so re-running a failed attempt cannot
/// observe partial state from the one that died — which is what makes
/// retry-after-fault byte-identical to a clean run (pinned by the fault
/// fuzz suite). A leg that keeps failing rethrows its last exception after
/// MaxRetries re-attempts, and parallelMap surfaces it to the driver's
/// caller.
struct ShardRetryPolicy {
  /// Re-attempts after the first failure (total attempts = MaxRetries + 1).
  unsigned MaxRetries = 2;
};

/// A shard leg's boundary checkpoint did not restore into its observer
/// stack (a section missing or not fitting). Legs throw it instead of
/// running on from a half-restored stack, which would silently corrupt the
/// merged output.
class ShardRestoreError : public std::runtime_error {
public:
  explicit ShardRestoreError(size_t Shard)
      : std::runtime_error("shard[restore]: boundary checkpoint of shard " +
                           std::to_string(Shard) +
                           " does not fit its pipeline stack") {}
};

namespace detail {

inline double secondsSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
      .count();
}

/// Runs one shard-leg attempt loop under \p Retry. Every attempt — not
/// every leg — counts in `shard.runs` and crosses the `shard.exec`
/// failpoint, so observability tests can pin exact attempt totals and the
/// fault suite can kill any attempt it likes.
template <class Fn>
auto runShardLegWithRetry(const ShardRetryPolicy &Retry, Fn &&Leg) {
  for (unsigned Attempt = 0;; ++Attempt) {
    try {
      SPM_TRACE_SPAN("shard.exec");
      flightRecord("shard.exec", "attempt=" + std::to_string(Attempt));
      metrics().counter("shard.runs").add(1);
      SPM_FAILPOINT("shard.exec");
      return Leg();
    } catch (const std::exception &E) {
      if (Attempt >= Retry.MaxRetries)
        throw;
      flightRecord("shard.retry", E.what());
      metrics().counter("shard.retries").add(1);
    }
  }
}

/// Runs one segment on whichever execution tier \p Bc selects. Checkpoints
/// are tier-independent (ResumeFrame stacks address source structure, not
/// engine state), so a single warm/shard chain can mix tiers freely. A
/// fused module works here unchanged: shard boundaries are arbitrary
/// instruction counts, and a resume pc that lands inside a fused tape's
/// op span executes the original ops until the next tape start, while the
/// tape budget guard keeps suspensions at the same block boundaries every
/// tier uses (vm/Fusion.h).
template <class ObsT>
RunResult segmentWithEngine(Interpreter &I, const BytecodeModule *Bc,
                            ObsT &Obs, const InterpCheckpoint *From,
                            uint64_t UntilInstrs,
                            InterpCheckpoint *Out = nullptr) {
  return Bc ? I.runBytecodeSegment(*Bc, Obs, From, UntilInstrs, Out)
            : I.runFastSegment(Obs, From, UntilInstrs, Out);
}

/// Moves the elements of \p From onto the end of \p To.
template <class T> void append(std::vector<T> &To, std::vector<T> &From) {
  To.insert(To.end(), std::make_move_iterator(From.begin()),
            std::make_move_iterator(From.end()));
}

/// The one sharded driver behind the three public ones: plan, warm, legs,
/// merge (see the file comment). The drivers differ only in the stack they
/// build and how leg outputs merge:
///  - \p Whole() runs the unsharded driver, for NShards <= 1;
///  - \p Make(Keep) builds a fresh GraphStack, FixedStack or MarkerStack
///    in place — Keep is false for the warm chain, whose outputs are
///    discarded, and true for the legs;
///  - \p Merge(Legs) folds the legs, in shard order, into the result. Each
///    leg carries its stack's take() as Out and its segment's RunResult.
template <class WholeFn, class MakeFn, class MergeFn>
auto runSharded(const Binary &B, const WorkloadInput &In, unsigned NShards,
                uint64_t MaxInstrs, std::vector<double> *ShardSeconds,
                const BytecodeModule *Bc, const ShardRetryPolicy &Retry,
                WholeFn &&Whole, MakeFn &&Make, MergeFn &&Merge) {
  if (NShards <= 1) {
    auto T0 = std::chrono::steady_clock::now();
    auto Out = Whole();
    if (ShardSeconds)
      ShardSeconds->push_back(secondsSince(T0));
    return Out;
  }

  ShardPlan Plan = planShards(B, In, NShards, MaxInstrs, Bc);

  // Warm: the leg's full stack must run (cache, predictor, and tracker
  // contents are history-dependent); its outputs are discarded, only the
  // boundary checkpoints are kept.
  std::vector<PipelineCheckpoint> Cks(NShards - 1);
  {
    SPM_TRACE_SPAN("shard.warm");
    auto Warm = Make(false);
    Interpreter Interp(B, In);
    Warm.obs().onRunStart(B, In);
    const InterpCheckpoint *From = nullptr;
    for (unsigned S = 0; S + 1 < NShards; ++S) {
      segmentWithEngine(Interp, Bc, Warm.obs(), From, Plan.Until[S],
                        &Cks[S].Interp);
      Cks[S].Seed = In.seed();
      Warm.save(Cks[S]);
      From = &Cks[S].Interp;
    }
  }

  // Shard: restore (or start) and record.
  using Output = decltype(Make(true).take());
  struct Leg {
    Output Out;
    RunResult Run;
    double Sec = 0.0;
  };
  auto RunLeg = [&](size_t S) {
    auto T0 = std::chrono::steady_clock::now();
    auto Stack = Make(true);
    const InterpCheckpoint *From = nullptr;
    if (S == 0) {
      Stack.obs().onRunStart(B, In);
    } else {
      if (!Stack.restore(Cks[S - 1]))
        throw ShardRestoreError(S);
      From = &Cks[S - 1].Interp;
    }
    Interpreter Interp(B, In);
    auto L = std::make_unique<Leg>();
    L->Run =
        segmentWithEngine(Interp, Bc, Stack.obs(), From, Plan.Until[S]);
    if (S + 1 == NShards)
      Stack.obs().onRunEnd(L->Run.TotalInstrs); // Pop-all + final cut.
    L->Out = Stack.take();
    L->Sec = secondsSince(T0);
    return L;
  };
  std::vector<std::unique_ptr<Leg>> Legs =
      parallelMap(NShards, [&](size_t S) {
        return runShardLegWithRetry(Retry, [&] { return RunLeg(S); });
      });

  SPM_TRACE_SPAN("shard.merge");
  auto Out = Merge(Legs);
  if (ShardSeconds)
    for (const auto &L : Legs)
      ShardSeconds->push_back(L->Sec);
  return Out;
}

} // namespace detail

/// Sharded call-loop graph profiling: byte-identical to buildCallLoopGraph
/// for any shard count. The warming chain carries interpreter + tracker
/// only. \p ShardSeconds, when non-null, receives per-shard wall times.
/// \p Bc, when non-null, runs every segment on the bytecode tier.
inline std::unique_ptr<CallLoopGraph> buildCallLoopGraphSharded(
    const Binary &B, const LoopIndex &Loops, const WorkloadInput &In,
    unsigned NShards,
    uint64_t MaxInstrs = std::numeric_limits<uint64_t>::max(),
    std::vector<double> *ShardSeconds = nullptr,
    const BytecodeModule *Bc = nullptr,
    const ShardRetryPolicy &Retry = ShardRetryPolicy()) {
  auto G = std::make_unique<CallLoopGraph>(B, Loops);
  return detail::runSharded(
      B, In, NShards, MaxInstrs, ShardSeconds, Bc, Retry,
      [&] { return buildCallLoopGraph(B, Loops, In, MaxInstrs, Bc); },
      [&](bool Keep) { return GraphStack(B, Loops, *G, Keep); },
      [&](auto &Legs) {
        // The concatenated logs are the exact traversal-end order of the
        // uninterrupted run, so the Welford updates happen in the same
        // sequence on the same values.
        for (const auto &L : Legs)
          for (const TraversalLog::Entry &E : L->Out)
            G->addTraversal(E.From, E.To, E.Hier);
        G->finalize();
        return std::move(G);
      });
}

/// Sharded marker-instrumented run: intervals, firings, and run totals
/// byte-identical to runMarkerIntervals for any shard count.
/// \p Bc, when non-null, runs every segment on the bytecode tier.
inline MarkerRun runMarkerIntervalsSharded(
    const Binary &B, const LoopIndex &Loops, const CallLoopGraph &G,
    const MarkerSet &M, const WorkloadInput &In, bool CollectBbv,
    bool RecordFirings, unsigned NShards,
    uint64_t MaxInstrs = std::numeric_limits<uint64_t>::max(),
    const PerfModelOptions &PerfOpts = PerfModelOptions(),
    std::vector<double> *ShardSeconds = nullptr,
    const BytecodeModule *Bc = nullptr,
    const ShardRetryPolicy &Retry = ShardRetryPolicy()) {
  return detail::runSharded(
      B, In, NShards, MaxInstrs, ShardSeconds, Bc, Retry,
      [&] {
        return runMarkerIntervals(B, Loops, G, M, In, CollectBbv,
                                  RecordFirings, MaxInstrs, PerfOpts, Bc);
      },
      [&](bool Keep) {
        return MarkerStack(B, Loops, G, M, CollectBbv, Keep && RecordFirings,
                           PerfOpts);
      },
      [&](auto &Legs) {
        MarkerRun Out;
        // Cumulative totals; limit flag of the final segment, whose budget
        // is the original cap.
        Out.Run = Legs.back()->Run;
        for (auto &L : Legs) {
          detail::append(Out.Intervals, L->Out.Intervals);
          detail::append(Out.Firings, L->Out.Firings);
        }
        return Out;
      });
}

/// Sharded fixed-length interval run: byte-identical to runFixedIntervals
/// for any shard count. \p Bc, when non-null, runs every segment on the
/// bytecode tier.
inline std::vector<IntervalRecord> runFixedIntervalsSharded(
    const Binary &B, const WorkloadInput &In, uint64_t Len, bool CollectBbv,
    unsigned NShards,
    uint64_t MaxInstrs = std::numeric_limits<uint64_t>::max(),
    const PerfModelOptions &PerfOpts = PerfModelOptions(),
    std::vector<double> *ShardSeconds = nullptr,
    const BytecodeModule *Bc = nullptr,
    const ShardRetryPolicy &Retry = ShardRetryPolicy()) {
  return detail::runSharded(
      B, In, NShards, MaxInstrs, ShardSeconds, Bc, Retry,
      [&] {
        return runFixedIntervals(B, In, Len, CollectBbv, MaxInstrs, PerfOpts,
                                 Bc);
      },
      [&](bool) { return FixedStack(B, Len, CollectBbv, PerfOpts); },
      [&](auto &Legs) {
        std::vector<IntervalRecord> Merged;
        for (auto &L : Legs)
          detail::append(Merged, L->Out);
        return Merged;
      });
}

} // namespace spm

#endif // SPM_MARKERS_SHARDED_H
