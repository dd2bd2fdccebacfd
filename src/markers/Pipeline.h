//===- markers/Pipeline.h - One-call profiling/marking runs -----*- C++ -*-===//
//
// Part of the SPM project: reproduction of "Selecting Software Phase Markers
// with Code Structure Analysis" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One-call drivers for the three pipelines. Each builds the pipeline's
/// observer stack (markers/Stack.h), which fixes the observer order in
/// exactly one place, and runs it on the tree walk or a bytecode module.
///
//===----------------------------------------------------------------------===//

#ifndef SPM_MARKERS_PIPELINE_H
#define SPM_MARKERS_PIPELINE_H

#include "markers/Stack.h"
#include "support/Parallel.h"
#include "support/Trace.h"

#include <limits>
#include <memory>
#include <vector>

namespace spm {

namespace detail {

/// Runs \p Obs over a whole run of \p B on \p In. \p Bc, when non-null,
/// selects the bytecode execution tier — plain or fused (vm/Fusion.h); both
/// produce byte-identical output, so callers pick the module, not the
/// semantics (see vm/Bytecode.h).
template <class ObsT>
RunResult runWithEngine(const Binary &B, const WorkloadInput &In, ObsT &Obs,
                        uint64_t MaxInstrs, const BytecodeModule *Bc) {
  Interpreter Interp(B, In);
  return Bc ? Interp.runBytecode(*Bc, Obs, MaxInstrs)
            : Interp.runFast(Obs, MaxInstrs);
}

} // namespace detail

/// Profiles \p B on \p In and returns the finalized call-loop graph
/// (Sec. 4.2) — the equivalent of the paper's ATOM profiling pass, which
/// "runs in a matter of minutes" there and in milliseconds here.
inline std::unique_ptr<CallLoopGraph>
buildCallLoopGraph(const Binary &B, const LoopIndex &Loops,
                   const WorkloadInput &In,
                   uint64_t MaxInstrs = std::numeric_limits<uint64_t>::max(),
                   const BytecodeModule *Bc = nullptr) {
  SPM_TRACE_SPAN("pipeline.build_graph");
  auto G = std::make_unique<CallLoopGraph>(B, Loops);
  GraphStack S(B, Loops, *G);
  S.Tracker.setProfileTarget(G.get());
  detail::runWithEngine(B, In, S.obs(), MaxInstrs, Bc);
  G->finalize();
  return G;
}

/// Runs \p B on \p In with fixed-length intervals of \p Len instructions.
inline std::vector<IntervalRecord>
runFixedIntervals(const Binary &B, const WorkloadInput &In, uint64_t Len,
                  bool CollectBbv,
                  uint64_t MaxInstrs = std::numeric_limits<uint64_t>::max(),
                  const PerfModelOptions &PerfOpts = PerfModelOptions(),
                  const BytecodeModule *Bc = nullptr) {
  SPM_TRACE_SPAN("pipeline.fixed_intervals");
  FixedStack S(B, Len, CollectBbv, PerfOpts);
  detail::runWithEngine(B, In, S.obs(), MaxInstrs, Bc);
  return S.take();
}

/// Runs \p B on \p In with the markers of \p M cutting variable-length
/// intervals. \p G and \p Loops must belong to \p B.
inline MarkerRun
runMarkerIntervals(const Binary &B, const LoopIndex &Loops,
                   const CallLoopGraph &G, const MarkerSet &M,
                   const WorkloadInput &In, bool CollectBbv,
                   bool RecordFirings = false,
                   uint64_t MaxInstrs = std::numeric_limits<uint64_t>::max(),
                   const PerfModelOptions &PerfOpts = PerfModelOptions(),
                   const BytecodeModule *Bc = nullptr) {
  SPM_TRACE_SPAN("pipeline.marker_intervals");
  MarkerStack S(B, Loops, G, M, CollectBbv, RecordFirings, PerfOpts);
  RunResult R = detail::runWithEngine(B, In, S.obs(), MaxInstrs, Bc);
  MarkerRun Out = S.take();
  Out.Run = R;
  return Out;
}

/// Profiles one binary on several inputs, one annotated call-loop graph
/// per input, fanning the runs out over the ambient parallelJobs() (each
/// interpreter run owns all of its observer state, so runs are
/// independent). Results are ordered like \p Inputs regardless of job
/// count — slot I is always input I's graph.
inline std::vector<std::unique_ptr<CallLoopGraph>>
buildCallLoopGraphs(const Binary &B, const LoopIndex &Loops,
                    const std::vector<const WorkloadInput *> &Inputs,
                    const BytecodeModule *Bc = nullptr) {
  return parallelMap(Inputs.size(), [&](size_t I) {
    // A BytecodeModule is immutable after compilation (and fusion), so one
    // module may back all concurrent runs; its verification memo makes the
    // per-run verify a single atomic load after the first.
    return buildCallLoopGraph(B, Loops, *Inputs[I],
                              std::numeric_limits<uint64_t>::max(), Bc);
  });
}

} // namespace spm

#endif // SPM_MARKERS_PIPELINE_H
