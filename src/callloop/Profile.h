//===- callloop/Profile.h - Offline call-loop graph profiling --*- C++ -*-===//
//
// Part of the SPM project: reproduction of "Selecting Software Phase Markers
// with Code Structure Analysis" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// GraphProfiler turns tracker edge-end events into the annotated call-loop
/// graph (Sec. 4.2). The one-call driver, buildCallLoopGraph, lives with
/// the other pipeline drivers in markers/Pipeline.h.
///
//===----------------------------------------------------------------------===//

#ifndef SPM_CALLLOOP_PROFILE_H
#define SPM_CALLLOOP_PROFILE_H

#include "callloop/Graph.h"
#include "callloop/Tracker.h"

namespace spm {

/// Accumulates hierarchical-instruction-count statistics per edge.
/// The listener-indirection form of profiling; the production driver
/// (buildCallLoopGraph) uses CallLoopTracker::setProfileTarget instead
/// (same stats, no per-edge virtual call or hash lookup), so this class
/// mainly serves tests and callers composing their own listener stacks.
class GraphProfiler : public TrackerListener {
public:
  explicit GraphProfiler(CallLoopGraph &G) : G(G) {}

  void onEdgeEnd(NodeId From, NodeId To, uint64_t HierInstrs) override {
    G.addTraversal(From, To, HierInstrs);
  }

private:
  CallLoopGraph &G;
};

} // namespace spm

#endif // SPM_CALLLOOP_PROFILE_H
