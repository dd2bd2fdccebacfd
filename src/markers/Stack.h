//===- markers/Stack.h - The pipelines' observer stacks ---------*- C++ -*-===//
//
// Part of the SPM project: reproduction of "Selecting Software Phase Markers
// with Code Structure Analysis" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One type per pipeline owns its observers, their fan-out order, and the
/// checkpoint sections they carry: GraphStack (the call-loop tracker that
/// profiles the graph, Sec. 4.2; tracker section), FixedStack (fixed-length
/// intervals measured by the performance model, the SimPoint baseline;
/// interval + perf) and MarkerStack (the paper's marker pipeline, Secs.
/// 4-5: the tracker fires markers through its MarkerRuntime listener, the
/// markers cut variable-length intervals, the performance model measures
/// them; all four sections). Every driver builds one of these rather than
/// wiring observers by hand. obs() is the stack's concrete StaticMux (or
/// the tracker itself), so event dispatch stays static. save() stamps
/// exactly the stack's own sections; restore() requires them present and
/// fitting, and a stack whose restore returned false must be discarded.
/// The stacks hold internal references: they are built in place and never
/// copied or moved.
///
//===----------------------------------------------------------------------===//

#ifndef SPM_MARKERS_STACK_H
#define SPM_MARKERS_STACK_H

#include "markers/Checkpoint.h"
#include "markers/MarkerSet.h"
#include "vm/Interpreter.h"

#include <vector>

namespace spm {

/// Result of a marker-instrumented run.
struct MarkerRun {
  std::vector<IntervalRecord> Intervals;
  /// Sequence of marker indices in firing order (the "phase marker trace"
  /// compared across binaries in Sec. 5.3.1). Only filled when requested.
  std::vector<int32_t> Firings;
  RunResult Run;
};

/// Tracker listener that records every finished edge traversal in stream
/// order, for exact-order replay into a graph during shard merge.
class TraversalLog : public TrackerListener {
public:
  struct Entry {
    NodeId From;
    NodeId To;
    uint64_t Hier;
  };

  void onEdgeEnd(NodeId From, NodeId To, uint64_t HierInstrs) override {
    Log.push_back({From, To, HierInstrs});
  }

  std::vector<Entry> Log;
};

/// Call-loop graph profiling: the tracker alone. It records into a graph
/// only when given a profile target (CallLoopTracker::setProfileTarget) and
/// into its traversal log only when \p LogTraversals is set.
class GraphStack {
public:
  GraphStack(const Binary &B, const LoopIndex &Loops, const CallLoopGraph &G,
             bool LogTraversals = false)
      : Tracker(B, Loops, G) {
    if (LogTraversals)
      Tracker.addListener(&Log);
  }
  GraphStack(const GraphStack &) = delete;
  GraphStack &operator=(const GraphStack &) = delete;

  CallLoopTracker &obs() { return Tracker; }

  void save(PipelineCheckpoint &C) const {
    C.HasTracker = true;
    C.Tracker = Tracker.saveState();
  }
  bool restore(const PipelineCheckpoint &C) {
    return C.HasTracker && Tracker.restoreState(C.Tracker);
  }
  std::vector<TraversalLog::Entry> take() { return std::move(Log.Log); }

  CallLoopTracker Tracker;

private:
  TraversalLog Log;
};

/// Fixed-length intervals of \p Len instructions.
class FixedStack {
public:
  FixedStack(const Binary &B, uint64_t Len, bool CollectBbv,
             const PerfModelOptions &PerfOpts = PerfModelOptions())
      : Perf(PerfOpts),
        Ivb(IntervalBuilder::fixedLength(Len, &Perf, CollectBbv)),
        NumBlocks(B.Blocks.size()), Mux(Ivb, Perf) {}
  FixedStack(const FixedStack &) = delete;
  FixedStack &operator=(const FixedStack &) = delete;

  StaticMux<IntervalBuilder, PerfModel> &obs() { return Mux; }

  void save(PipelineCheckpoint &C) const {
    C.HasInterval = true;
    C.Interval = Ivb.saveState();
    C.HasPerf = true;
    C.Perf = Perf.saveState();
  }
  bool restore(const PipelineCheckpoint &C) {
    return C.HasInterval && C.HasPerf &&
           Ivb.restoreState(C.Interval, NumBlocks) &&
           Perf.restoreState(C.Perf);
  }
  std::vector<IntervalRecord> take() { return Ivb.takeIntervals(); }

  PerfModel Perf;
  IntervalBuilder Ivb;

private:
  size_t NumBlocks;
  StaticMux<IntervalBuilder, PerfModel> Mux;
};

/// The marker pipeline. \p G and \p Loops must belong to \p B. Firings are
/// recorded (for take()) only when \p RecordFirings is set.
class MarkerStack {
public:
  MarkerStack(const Binary &B, const LoopIndex &Loops, const CallLoopGraph &G,
              const MarkerSet &M, bool CollectBbv, bool RecordFirings = false,
              const PerfModelOptions &PerfOpts = PerfModelOptions())
      : Perf(PerfOpts), Ivb(IntervalBuilder::markerDriven(&Perf, CollectBbv)),
        Tracker(B, Loops, G), Runtime(M, G), NumBlocks(B.Blocks.size()),
        Mux(Tracker, Ivb, Perf) {
    Tracker.addListener(&Runtime);
    Runtime.setCallback([this, RecordFirings](int32_t Idx) {
      Ivb.requestCut(Idx);
      if (RecordFirings)
        Firings.push_back(Idx);
    });
  }
  MarkerStack(const MarkerStack &) = delete;
  MarkerStack &operator=(const MarkerStack &) = delete;

  /// Declaration order is the fan-out order (see StaticMux): the tracker
  /// fires markers first, so cuts precede interval accounting, which
  /// precedes counter updates.
  using Sink = StaticMux<CallLoopTracker, IntervalBuilder, PerfModel>;
  Sink &obs() { return Mux; }

  void save(PipelineCheckpoint &C) const {
    C.HasTracker = true;
    C.Tracker = Tracker.saveState();
    C.HasInterval = true;
    C.Interval = Ivb.saveState();
    C.HasPerf = true;
    C.Perf = Perf.saveState();
    C.HasMarkers = true;
    C.Markers = Runtime.saveState();
  }
  bool restore(const PipelineCheckpoint &C) {
    return C.HasTracker && C.HasInterval && C.HasPerf && C.HasMarkers &&
           Tracker.restoreState(C.Tracker) &&
           Ivb.restoreState(C.Interval, NumBlocks) &&
           Perf.restoreState(C.Perf) && Runtime.restoreState(C.Markers);
  }
  /// Intervals cut and firings recorded so far (Run is left empty).
  MarkerRun take() {
    MarkerRun Out;
    Out.Intervals = Ivb.takeIntervals();
    Out.Firings = std::move(Firings);
    return Out;
  }

  PerfModel Perf;
  IntervalBuilder Ivb;
  CallLoopTracker Tracker;
  MarkerRuntime Runtime;

private:
  size_t NumBlocks;
  std::vector<int32_t> Firings;
  Sink Mux;
};

} // namespace spm

#endif // SPM_MARKERS_STACK_H
