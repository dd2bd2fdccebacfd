//===- examples/online_phase_prediction.cpp - predict the next phase ------==//
//
// Software phase markers detect a phase change the moment it happens; an
// adaptive client gets one step better by *predicting* which phase comes
// next and pre-applying its configuration at the boundary. This example
// streams a workload's marker firings through the last-phase and Markov
// predictors and prints the per-workload accuracies, plus the learned
// transition table for one workload.
//
//   ./examples/online_phase_prediction [workload]
//
//===----------------------------------------------------------------------===//

#include "ir/Lowering.h"
#include "markers/Pipeline.h"
#include "markers/Selector.h"
#include "phase/Prediction.h"
#include "support/Table.h"
#include "workloads/Workloads.h"

#include <cstdio>

using namespace spm;

int main(int Argc, char **Argv) {
  std::string Focus = Argc > 1 ? Argv[1] : "gzip";

  Table T;
  T.row().cell("workload").cell("firings").cell("last-phase").cell("markov");
  for (const std::string &Name : WorkloadRegistry::allNames()) {
    Workload W = WorkloadRegistry::create(Name);
    auto Bin = lower(*W.Program, LoweringOptions::O2());
    LoopIndex Loops = LoopIndex::build(*Bin);
    auto G = buildCallLoopGraph(*Bin, Loops, W.Train);
    SelectorConfig C;
    C.ILower = 10000;
    MarkerSet M = selectMarkers(*G, C).Markers;
    MarkerRun R = runMarkerIntervals(*Bin, Loops, *G, M, W.Ref, false,
                                     /*RecordFirings=*/true);
    auto [Last, Markov] = evaluatePredictors(R.Firings);
    T.row()
        .cell(W.displayName())
        .cell(static_cast<uint64_t>(R.Firings.size()))
        .percentCell(Last)
        .percentCell(Markov);
  }
  std::printf("next-phase prediction accuracy over marker firing "
              "streams:\n%s\n",
              T.str().c_str());

  // Detail view: the learned transition structure of one workload.
  Workload W = WorkloadRegistry::create(Focus);
  auto Bin = lower(*W.Program, LoweringOptions::O2());
  LoopIndex Loops = LoopIndex::build(*Bin);
  auto G = buildCallLoopGraph(*Bin, Loops, W.Train);
  SelectorConfig C;
  C.ILower = 10000;
  MarkerSet M = selectMarkers(*G, C).Markers;
  MarkerRun R = runMarkerIntervals(*Bin, Loops, *G, M, W.Ref, false, true);

  MarkovPhasePredictor Markov;
  for (int32_t P : R.Firings)
    Markov.observe(P);

  std::printf("%s: learned transitions (marker -> predicted next):\n",
              W.displayName().c_str());
  for (size_t I = 0; I < M.size(); ++I) {
    int32_t Next = Markov.predict(static_cast<int32_t>(I));
    if (Next < 0)
      continue;
    std::printf("  m%-3zu %-40s -> m%d %s\n", I,
                (G->node(M[I].From).Label + "->" + G->node(M[I].To).Label)
                    .c_str(),
                Next, G->node(M[static_cast<size_t>(Next)].To).Label.c_str());
  }
  return 0;
}
