//===- examples/cross_binary_simpoints.cpp - Sec. 5.3.1 demo --------------==//
//
// Cross-binary simulation points: select markers on the unoptimized (O0)
// compilation, map them through source locations into the optimized (O2)
// compilation, and verify the two executed marker traces are identical —
// then pick SimPoint simulation points over the marker-defined VLIs and
// show they land on the same source constructs in both binaries.
//
//   ./examples/cross_binary_simpoints [workload]
//
//===----------------------------------------------------------------------===//

#include "ir/Lowering.h"
#include "markers/Pipeline.h"
#include "markers/Selector.h"
#include "simpoint/SimPoint.h"
#include "support/Table.h"
#include "workloads/Workloads.h"

#include <cstdio>

using namespace spm;

int main(int Argc, char **Argv) {
  std::string Name = Argc > 1 ? Argv[1] : "bzip2";
  Workload W = WorkloadRegistry::create(Name);

  auto B0 = lower(*W.Program, LoweringOptions::O0());
  auto B2 = lower(*W.Program, LoweringOptions::O2());
  LoopIndex L0 = LoopIndex::build(*B0);
  LoopIndex L2 = LoopIndex::build(*B2);
  std::printf("%s: O0 has %zu blocks, O2 has %zu blocks (same source)\n",
              W.displayName().c_str(), B0->Blocks.size(), B2->Blocks.size());

  // Select on the O0 profile (counts are ~2x, scale ilower accordingly).
  auto G0 = buildCallLoopGraph(*B0, L0, W.Train);
  SelectorConfig SC;
  SC.ILower = 20000;
  SC.Limit = true;
  SC.MaxLimit = 400000;
  SelectionResult Sel = selectMarkers(*G0, SC);
  std::printf("selected %zu markers on the O0 binary\n", Sel.Markers.size());

  // Re-anchor in O2 via source locations.
  auto G2 = std::make_unique<CallLoopGraph>(*B2, L2);
  MarkerSet M2 = fromPortable(toPortable(Sel.Markers, *G0, *B0), *G2, *B2, L2);
  std::printf("%zu markers mapped into the O2 binary\n\n", M2.size());

  // Run both binaries on the same input, recording the marker traces.
  MarkerRun R0 = runMarkerIntervals(*B0, L0, *G0, Sel.Markers, W.Ref,
                                    /*CollectBbv=*/true, /*Firings=*/true);
  MarkerRun R2 = runMarkerIntervals(*B2, L2, *G2, M2, W.Ref, true, true);

  bool Identical = R0.Firings == R2.Firings;
  std::printf("marker trace: O0 fired %zu, O2 fired %zu -> %s\n",
              R0.Firings.size(), R2.Firings.size(),
              Identical ? "IDENTICAL" : "MISMATCH");
  std::printf("dynamic instructions: O0 %llu vs O2 %llu (%.2fx)\n\n",
              static_cast<unsigned long long>(R0.Run.TotalInstrs),
              static_cast<unsigned long long>(R2.Run.TotalInstrs),
              static_cast<double>(R0.Run.TotalInstrs) /
                  static_cast<double>(R2.Run.TotalInstrs));

  // SimPoint over the VLIs of each binary: the chosen simulation points
  // are interval indices, and since the interval sequences align one-to-one
  // (same marker trace), a point chosen on one binary names the same
  // portion of execution in the other.
  SimPointConfig SPC;
  SPC.WeightByLength = true;
  SimPointResult SP0 = runSimPoint(R0.Intervals, SPC);
  SimPointResult SP2 = runSimPoint(R2.Intervals, SPC);
  CpiEstimate E0 = estimateCpi(R0.Intervals, SP0, 1.0);
  CpiEstimate E2 = estimateCpi(R2.Intervals, SP2, 1.0);

  Table T;
  T.row().cell("binary").cell("VLIs").cell("k").cell("true CPI").cell(
      "est CPI").cell("rel err");
  T.row()
      .cell("O0")
      .cell(static_cast<uint64_t>(R0.Intervals.size()))
      .cell(static_cast<uint64_t>(SP0.K))
      .cell(E0.TrueCpi, 3)
      .cell(E0.EstCpi, 3)
      .percentCell(E0.RelError);
  T.row()
      .cell("O2")
      .cell(static_cast<uint64_t>(R2.Intervals.size()))
      .cell(static_cast<uint64_t>(SP2.K))
      .cell(E2.TrueCpi, 3)
      .cell(E2.EstCpi, 3)
      .percentCell(E2.RelError);
  std::printf("%s", T.str().c_str());

  if (Identical && R0.Intervals.size() == R2.Intervals.size())
    std::printf("\nsimulation points picked on one compilation can be "
                "replayed on the other: interval k of O0 is interval k of "
                "O2 by construction.\n");
  return Identical ? 0 : 1;
}
