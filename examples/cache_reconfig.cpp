//===- examples/cache_reconfig.cpp - adaptive cache walkthrough -----------==//
//
// The Sec. 6.1 scenario on one workload (default compress95): select phase
// markers, then drive adaptive data-cache reconfiguration with them and
// compare against the reuse-distance baseline, the oracle BBV approach,
// and the best fixed size.
//
//   ./examples/cache_reconfig [workload]
//
//===----------------------------------------------------------------------===//

#include "adaptcache/Policies.h"
#include "ir/Lowering.h"
#include "markers/Pipeline.h"
#include "markers/Selector.h"
#include "support/Table.h"
#include "workloads/Workloads.h"

#include <cstdio>

using namespace spm;

int main(int Argc, char **Argv) {
  std::string Name = Argc > 1 ? Argv[1] : "compress95";
  Workload W = WorkloadRegistry::create(Name);
  auto Bin = lower(*W.Program, LoweringOptions::O2());
  LoopIndex Loops = LoopIndex::build(*Bin);

  // Phase markers from the train input (SPM-Cross) and ref (SPM-Self).
  auto GTrain = buildCallLoopGraph(*Bin, Loops, W.Train);
  auto GRef = buildCallLoopGraph(*Bin, Loops, W.Ref);
  SelectorConfig SC;
  SC.ILower = 10000;
  MarkerSet Cross = selectMarkers(*GTrain, SC).Markers;
  MarkerSet Self = selectMarkers(*GRef, SC).Markers;
  SelectorConfig ProcSC = SC;
  ProcSC.ProceduresOnly = true;
  MarkerSet Procs = selectMarkers(*GTrain, ProcSC).Markers;

  // Reuse-distance baseline markers (trained on train, like the paper).
  ReuseMarkerSet Reuse = profileReuseMarkers(*Bin, W.Train);

  std::printf("%s: %zu SPM markers (train), %zu (ref), %zu procs-only, "
              "%zu reuse markers\n\n",
              W.displayName().c_str(), Cross.size(), Self.size(),
              Procs.size(), Reuse.size());

  AdaptiveCacheResult RSelf =
      runAdaptiveWithMarkers(*Bin, Loops, *GRef, Self, W.Ref);
  AdaptiveCacheResult RCross =
      runAdaptiveWithMarkers(*Bin, Loops, *GTrain, Cross, W.Ref);
  AdaptiveCacheResult RProcs =
      runAdaptiveWithMarkers(*Bin, Loops, *GTrain, Procs, W.Ref);
  AdaptiveCacheResult RReuse =
      runAdaptiveWithReuseMarkers(*Bin, Reuse, W.Ref);
  AdaptiveCacheResult RBbv = runAdaptiveWithOracleBbv(*Bin, W.Ref, 10000);
  FixedSizeResult Fixed = bestFixedSize(*Bin, W.Ref);

  Table T;
  T.row().cell("policy").cell("avg KB").cell("miss rate").cell("intervals");
  auto Row = [&](const char *L, const AdaptiveCacheResult &R) {
    T.row().cell(L).cell(R.AvgCacheKB, 1).percentCell(R.MissRate).cell(
        R.Intervals);
  };
  Row("BBV (oracle SimPoint)", RBbv);
  Row("SPM-Self", RSelf);
  Row("Procs-Cross", RProcs);
  Row("Reuse Distance", RReuse);
  Row("SPM-Cross", RCross);
  T.row()
      .cell("Best Fixed Size")
      .cell(Fixed.BestFixedKB, 1)
      .percentCell(Fixed.PerConfig[Fixed.BestIdx].missRate())
      .cell(std::string("-"));
  std::printf("%s", T.str().c_str());

  std::printf("\nper-config whole-run miss rates:\n");
  auto Sweep = CacheConfig::reconfigSweep();
  for (size_t I = 0; I < Sweep.size(); ++I)
    std::printf("  %3.0fKB: %5.2f%%\n", Sweep[I].sizeKB(),
                Fixed.PerConfig[I].missRate() * 100.0);
  return 0;
}
