//===- examples/explore_callloop.cpp - inspect any workload ---------------==//
//
// CLI for poking at the system:
//
//   explore_callloop [workload] [--input train|ref] [--dump-binary]
//                    [--dot] [--markers] [--procs-only] [--limit]
//
// Prints the source program, optionally the lowered binary, the annotated
// call-loop graph (text or Graphviz DOT), and the selected markers.
//
//===----------------------------------------------------------------------===//

#include "ir/Lowering.h"
#include "ir/Printer.h"
#include "ir/Verify.h"
#include "markers/Pipeline.h"
#include "markers/Selector.h"
#include "workloads/Workloads.h"

#include <cstdio>
#include <cstring>
#include <string>

using namespace spm;

int main(int Argc, char **Argv) {
  std::string Name = "gzip";
  bool UseRef = true, DumpBinary = false, Dot = false, ShowMarkers = false;
  SelectorConfig Config;
  Config.ILower = 10000;

  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A == "--input" && I + 1 < Argc) {
      UseRef = std::strcmp(Argv[++I], "ref") == 0;
    } else if (A == "--dump-binary") {
      DumpBinary = true;
    } else if (A == "--dot") {
      Dot = true;
    } else if (A == "--markers") {
      ShowMarkers = true;
    } else if (A == "--procs-only") {
      Config.ProceduresOnly = true;
    } else if (A == "--limit") {
      Config.Limit = true;
      Config.MaxLimit = 200000;
    } else if (A == "--help") {
      std::printf("usage: explore_callloop [workload] [--input train|ref] "
                  "[--dump-binary] [--dot] [--markers] [--procs-only] "
                  "[--limit]\nworkloads:");
      for (const std::string &N : WorkloadRegistry::allNames())
        std::printf(" %s", N.c_str());
      std::printf("\n");
      return 0;
    } else if (A[0] != '-') {
      Name = A;
    } else {
      std::fprintf(stderr, "unknown option %s (try --help)\n", A.c_str());
      return 1;
    }
  }

  Workload W = WorkloadRegistry::create(Name);
  std::string Err = verify(*W.Program);
  if (!Err.empty()) {
    std::fprintf(stderr, "program verification failed: %s\n", Err.c_str());
    return 1;
  }
  const WorkloadInput &In = UseRef ? W.Ref : W.Train;

  if (!Dot)
    std::printf("%s\n", printProgram(*W.Program).c_str());

  std::unique_ptr<Binary> Bin = lower(*W.Program, LoweringOptions::O2());
  if (DumpBinary)
    std::printf("%s\n", printBinary(*Bin).c_str());

  LoopIndex Loops = LoopIndex::build(*Bin);
  std::unique_ptr<CallLoopGraph> Graph = buildCallLoopGraph(*Bin, Loops, In);

  if (Dot) {
    std::printf("%s", printGraphDot(*Graph).c_str());
    return 0;
  }
  std::printf("call-loop graph (%s input, %zu edges):\n%s\n",
              In.name().c_str(), Graph->numEdges(),
              printGraph(*Graph).c_str());

  if (ShowMarkers) {
    SelectionResult Sel = selectMarkers(*Graph, Config);
    std::printf("markers (ilower=%llu%s%s): %zu selected, "
                "avg candidate CoV %.1f%% (+/- %.1f%%)\n%s",
                static_cast<unsigned long long>(Config.ILower),
                Config.ProceduresOnly ? ", procs-only" : "",
                Config.Limit ? ", limit" : "", Sel.Markers.size(),
                Sel.AvgCandidateCov * 100.0,
                Sel.StddevCandidateCov * 100.0,
                printMarkers(Sel.Markers, *Graph).c_str());
  }
  return 0;
}
