//===- examples/quickstart.cpp - the five-minute tour ---------------------==//
//
// The canonical end-to-end use of the library, mirroring the paper's
// pipeline on the gzip workload:
//
//   1. compile a workload program to a binary,
//   2. profile it into a hierarchical call-loop graph (Sec. 4),
//   3. select software phase markers from the graph (Sec. 5),
//   4. run the binary with the markers cutting variable-length intervals,
//   5. report how homogeneous the resulting phases are (Sec. 3.1 metrics).
//
// Build & run:  ./examples/quickstart
//
//===----------------------------------------------------------------------===//

#include "ir/Lowering.h"
#include "markers/Pipeline.h"
#include "markers/Selector.h"
#include "phase/Metrics.h"
#include "support/Table.h"
#include "workloads/Workloads.h"

#include <cstdio>

using namespace spm;

int main() {
  // 1. A workload = source program + train/ref inputs. Compile it.
  Workload W = WorkloadRegistry::create("gzip");
  std::unique_ptr<Binary> Bin = lower(*W.Program, LoweringOptions::O2());
  LoopIndex Loops = LoopIndex::build(*Bin);
  std::printf("workload %s: %zu functions, %zu blocks, %zu loops\n",
              W.displayName().c_str(), Bin->Funcs.size(), Bin->Blocks.size(),
              Loops.size());

  // 2. Profile the *train* input into an annotated call-loop graph.
  std::unique_ptr<CallLoopGraph> Graph =
      buildCallLoopGraph(*Bin, Loops, W.Train);
  std::printf("\ncall-loop graph (train input):\n%s\n",
              printGraph(*Graph).c_str());

  // 3. Select phase markers: minimum average interval of 10K instructions.
  SelectorConfig Config;
  Config.ILower = 10000;
  SelectionResult Sel = selectMarkers(*Graph, Config);
  std::printf("selected %zu markers (from %zu candidates, "
              "avg CoV %.1f%%):\n%s\n",
              Sel.Markers.size(), Sel.NumCandidates,
              Sel.AvgCandidateCov * 100.0,
              printMarkers(Sel.Markers, *Graph).c_str());

  // 4. Run the *ref* input with the markers cutting VLIs (cross-input!).
  MarkerRun Run = runMarkerIntervals(*Bin, Loops, *Graph, Sel.Markers,
                                     W.Ref, /*CollectBbv=*/false);

  // 5. Phase homogeneity: per-phase CoV of CPI vs the whole program.
  ClassificationSummary S = summarizeClassification(
      Run.Intervals, phasesFromRecords(Run.Intervals), cpiMetric);
  double Whole = wholeProgramCov(Run.Intervals, cpiMetric);

  Table T;
  T.row().cell("metric").cell("value");
  T.row().cell("ref instructions").cell(Run.Run.TotalInstrs);
  T.row().cell("intervals").cell(static_cast<uint64_t>(S.NumIntervals));
  T.row().cell("phases").cell(static_cast<uint64_t>(S.NumPhases));
  T.row().cell("avg interval (instrs)").cell(S.AvgIntervalLen, 0);
  T.row().cell("per-phase CoV of CPI").percentCell(S.OverallCov);
  T.row().cell("whole-program CoV").percentCell(Whole);
  std::printf("%s\n", T.str().c_str());

  if (S.OverallCov < Whole)
    std::printf("markers partition execution into phases more homogeneous "
                "than the program as a whole — the paper's core claim.\n");
  return 0;
}
