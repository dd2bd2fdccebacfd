//===- bench/fig04_crossbinary.cpp - Figure 4 & Sec. 5.3.1 ----------------==//
//
// Fig. 4: markers selected from one compilation's call-loop graph, mapped
// back to source constructs, and applied to a *different* compilation of
// the same source — the paper's Alpha/OSF -> x86/Linux experiment, realized
// here as O0 -> O2. The harness shows (a) the time-varying DL1 miss rate of
// the target binary with the mapped markers detecting the same high-level
// patterns, and (b) the Sec. 5.3.1 validation: the executed marker traces
// of the two binaries match exactly, for every workload.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include <cstdio>

using namespace spm;
using namespace spm::bench;

int main() {
  std::printf("=== Figure 4: cross-binary phase markers (gzip/graphic, "
              "O0 -> O2) ===\n\n");

  Workload W = WorkloadRegistry::create("gzip");
  auto B0 = lower(*W.Program, LoweringOptions::O0());
  auto B2 = lower(*W.Program, LoweringOptions::O2());
  LoopIndex L0 = LoopIndex::build(*B0);
  LoopIndex L2 = LoopIndex::build(*B2);

  // Profile and select on the O0 binary ("the Alpha binary").
  auto G0 = buildCallLoopGraph(*B0, L0, W.Train);
  SelectorConfig SC;
  SC.ILower = 2 * ILower; // O0 roughly doubles instruction counts.
  SelectionResult Sel = selectMarkers(*G0, SC);

  // Map to the O2 binary ("the x86 binary") through source locations. No
  // call-loop graph profile is ever taken on the target binary.
  auto G2 = std::make_unique<CallLoopGraph>(*B2, L2);
  MarkerSet M2 = fromPortable(toPortable(Sel.Markers, *G0, *B0), *G2, *B2, L2);
  std::printf("%zu markers selected on O0, %zu mapped into O2\n\n",
              Sel.Markers.size(), M2.size());

  // Time-varying DL1 miss rate of the O2 run with mapped-marker positions.
  PerfModel Perf;
  IntervalBuilder Sampler = IntervalBuilder::fixedLength(2000, &Perf, false);
  CallLoopTracker Tracker(*B2, L2, *G2);
  MarkerRuntime Runtime(M2, *G2);
  Tracker.addListener(&Runtime);
  struct Counter : ExecutionObserver {
    uint64_t Instrs = 0;
    void onBlock(const LoweredBlock &B) override { Instrs += B.NumInstrs; }
  } Count;
  std::vector<std::pair<uint64_t, int32_t>> Events;
  Runtime.setCallback(
      [&](int32_t Idx) { Events.push_back({Count.Instrs, Idx}); });

  StaticMux<Counter, CallLoopTracker, IntervalBuilder, PerfModel> Mux(
      Count, Tracker, Sampler, Perf);
  Interpreter(*B2, W.Ref).runFast(Mux);

  std::printf("O2 DL1 miss-rate series (every 8th 2K sample) with marker "
              "positions:\n");
  Table T;
  T.row().cell("instr").cell("DL1 miss");
  for (size_t I = 0; I < Sampler.intervals().size(); I += 8) {
    const IntervalRecord &R = Sampler.intervals()[I];
    T.row().cell(R.StartInstr).percentCell(R.metrics().L1MissRate);
  }
  std::printf("%s\n", T.str().c_str());
  std::printf("first marker events on O2 (mapped from O0):\n");
  int32_t Last = -2;
  int Shown = 0;
  for (const auto &[At, Idx] : Events) {
    if (Idx == Last)
      continue;
    Last = Idx;
    std::printf("  @%-10llu m%d\n", static_cast<unsigned long long>(At), Idx);
    if (++Shown >= 16)
      break;
  }

  // Sec. 5.3.1 validation over the full suite: identical traces.
  std::printf("\n=== Sec. 5.3.1: marker-trace identity across compilations "
              "===\n\n");
  Table V;
  V.row().cell("workload").cell("markers").cell("O0 firings").cell(
      "O2 firings").cell("identical");
  int Identical = 0, Total = 0;
  for (const std::string &Name : WorkloadRegistry::allNames()) {
    Workload WL = WorkloadRegistry::create(Name);
    auto A0 = lower(*WL.Program, LoweringOptions::O0());
    auto A2 = lower(*WL.Program, LoweringOptions::O2());
    LoopIndex La = LoopIndex::build(*A0);
    LoopIndex Lb = LoopIndex::build(*A2);
    auto Ga = buildCallLoopGraph(*A0, La, WL.Train);
    SelectorConfig C;
    C.ILower = 2 * ILower;
    SelectionResult S = selectMarkers(*Ga, C);
    auto Gb = std::make_unique<CallLoopGraph>(*A2, Lb);
    MarkerSet Mb = fromPortable(toPortable(S.Markers, *Ga, *A0), *Gb, *A2, Lb);
    MarkerRun Ra = runMarkerIntervals(*A0, La, *Ga, S.Markers, WL.Train,
                                      false, true);
    MarkerRun Rb =
        runMarkerIntervals(*A2, Lb, *Gb, Mb, WL.Train, false, true);
    bool Same = Ra.Firings == Rb.Firings;
    Identical += Same;
    ++Total;
    V.row()
        .cell(WL.displayName())
        .cell(static_cast<uint64_t>(S.Markers.size()))
        .cell(static_cast<uint64_t>(Ra.Firings.size()))
        .cell(static_cast<uint64_t>(Rb.Firings.size()))
        .cell(Same ? std::string("yes") : std::string("NO"));
  }
  std::printf("%s\n%d/%d workloads have identical marker traces across "
              "compilations (paper: \"these traces were an identical "
              "match\").\n",
              V.str().c_str(), Identical, Total);
  return Identical == Total ? 0 : 1;
}
