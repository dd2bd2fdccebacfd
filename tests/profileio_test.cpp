//===- tests/profileio_test.cpp - profile file round trips ----------------==//

#include "callloop/ProfileIO.h"
#include "ir/Lowering.h"
#include "markers/Pipeline.h"
#include "markers/Selector.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace spm;

namespace {

struct Profiled {
  Workload W = WorkloadRegistry::create("gzip");
  std::unique_ptr<Binary> Bin = lower(*W.Program, LoweringOptions::O2());
  LoopIndex Loops = LoopIndex::build(*Bin);
  std::unique_ptr<CallLoopGraph> G = buildCallLoopGraph(*Bin, Loops, W.Train);
};

} // namespace

TEST(ProfileIO, RoundTripPreservesEdgeStatistics) {
  Profiled P;
  std::string Text = serializeProfile(*P.G, *P.Bin, P.Loops);
  std::string Err;
  auto Loaded = parseProfile(Text, &Err);
  ASSERT_TRUE(Loaded.has_value()) << Err;

  EXPECT_EQ(Loaded->Graph->numFuncs(), P.G->numFuncs());
  EXPECT_EQ(Loaded->Graph->numLoops(), P.G->numLoops());
  EXPECT_EQ(Loaded->Graph->numEdges(), P.G->numEdges());

  for (const CallLoopEdge *E : P.G->sortedEdges()) {
    const CallLoopEdge *L = Loaded->Graph->findEdge(E->From, E->To);
    ASSERT_NE(L, nullptr);
    EXPECT_EQ(L->Hier.count(), E->Hier.count());
    EXPECT_DOUBLE_EQ(L->Hier.mean(), E->Hier.mean());
    EXPECT_DOUBLE_EQ(L->Hier.stddev(), E->Hier.stddev());
    EXPECT_DOUBLE_EQ(L->Hier.max(), E->Hier.max());
    EXPECT_DOUBLE_EQ(L->Hier.sum(), E->Hier.sum());
  }
}

TEST(ProfileIO, LoadedGraphSelectsIdenticalMarkers) {
  Profiled P;
  auto Loaded =
      parseProfile(serializeProfile(*P.G, *P.Bin, P.Loops), nullptr);
  ASSERT_TRUE(Loaded.has_value());

  SelectorConfig C;
  C.ILower = 10000;
  SelectionResult A = selectMarkers(*P.G, C);
  SelectionResult B = selectMarkers(*Loaded->Graph, C);
  ASSERT_EQ(A.Markers.size(), B.Markers.size());
  for (size_t I = 0; I < A.Markers.size(); ++I) {
    EXPECT_EQ(A.Markers[I].From, B.Markers[I].From);
    EXPECT_EQ(A.Markers[I].To, B.Markers[I].To);
    EXPECT_EQ(A.Markers[I].GroupN, B.Markers[I].GroupN);
  }
  EXPECT_DOUBLE_EQ(A.AvgCandidateCov, B.AvgCandidateCov);
}

TEST(ProfileIO, LoadedGraphCarriesNames) {
  Profiled P;
  auto Loaded =
      parseProfile(serializeProfile(*P.G, *P.Bin, P.Loops), nullptr);
  ASSERT_TRUE(Loaded.has_value());
  EXPECT_EQ(Loaded->FuncNames[0], "main");
  EXPECT_EQ(Loaded->Graph->node(Loaded->Graph->procHead(0)).Label,
            "main.head");
  // Loop nodes carry source statement ids for portability.
  if (Loaded->Graph->numLoops() > 0) {
    uint32_t Stmt = Loaded->LoopInfo[0].second;
    EXPECT_EQ(Loaded->Graph->node(Loaded->Graph->loopHead(0)).SrcStmtId,
              Stmt);
  }
}

TEST(ProfileIO, RejectsMalformedInput) {
  const char *Bad[] = {
      "",
      "wrong header\n",
      "spm-profile v1\nfuncs x\n",
      "spm-profile v1\nfuncs 1\nfunc 5 main\n",
      "spm-profile v1\nfuncs 1\nfunc 0 main\nloops 0\nedges 1\n"
      "edge 0 99 1 1 0 1 1 1\n",
      "spm-profile v1\nfuncs 1\nfunc 0 main\nloops 0\nedges 1\n"
      "edge 0 1 0 1 0 1 1 1\n", // Zero-count edge.
  };
  for (const char *Text : Bad) {
    std::string Err;
    EXPECT_FALSE(parseProfile(Text, &Err).has_value()) << Text;
    EXPECT_FALSE(Err.empty());
  }
}

TEST(ProfileIO, CommentsTolerated) {
  Profiled P;
  std::string Text = serializeProfile(*P.G, *P.Bin, P.Loops);
  Text.insert(Text.find('\n') + 1, "# a comment line\n");
  EXPECT_TRUE(parseProfile(Text, nullptr).has_value());
}
