//===- tests/prediction_test.cpp - next-phase prediction ------------------==//

#include "ir/Lowering.h"
#include "markers/Pipeline.h"
#include "markers/Selector.h"
#include "phase/Prediction.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace spm;

TEST(LastPhase, PerfectOnConstantSequence) {
  LastPhasePredictor P;
  for (int I = 0; I < 10; ++I)
    P.observe(4);
  EXPECT_EQ(P.stats().Predictions, 9u);
  EXPECT_DOUBLE_EQ(P.stats().accuracy(), 1.0);
}

TEST(LastPhase, ZeroOnStrictAlternation) {
  LastPhasePredictor P;
  for (int I = 0; I < 10; ++I)
    P.observe(I % 2);
  EXPECT_DOUBLE_EQ(P.stats().accuracy(), 0.0);
}

TEST(Markov, LearnsAlternation) {
  MarkovPhasePredictor P;
  for (int I = 0; I < 20; ++I)
    P.observe(I % 2);
  // After the first cycle the 0->1->0 pattern is fully predictable.
  EXPECT_GT(P.stats().accuracy(), 0.85);
  EXPECT_EQ(P.predict(0), 1);
  EXPECT_EQ(P.predict(1), 0);
}

TEST(Markov, LearnsLongerCycle) {
  MarkovPhasePredictor P;
  const int Cycle[] = {3, 1, 4, 1}; // Note: 1 has two successors (4, 3).
  for (int I = 0; I < 400; ++I)
    P.observe(Cycle[I % 4]);
  // 3->1 and 4->1 are deterministic; 1 alternates 4/3, so the best
  // guess is right half the time: overall ~75%.
  EXPECT_NEAR(P.stats().accuracy(), 0.75, 0.05);
}

TEST(Markov, NoPredictionBeforeLearning) {
  MarkovPhasePredictor P;
  EXPECT_EQ(P.predict(7), -1);
  P.observe(7);
  EXPECT_EQ(P.stats().Predictions, 0u); // Nothing learnable yet.
  P.observe(8);
  EXPECT_EQ(P.predict(7), 8);
}

TEST(Markov, AdaptsWhenTransitionChanges) {
  MarkovPhasePredictor P;
  for (int I = 0; I < 10; ++I) {
    P.observe(0);
    P.observe(1);
  }
  EXPECT_EQ(P.predict(0), 1);
  // The program moves to a new phase pattern 0 -> 2.
  for (int I = 0; I < 30; ++I) {
    P.observe(0);
    P.observe(2);
  }
  EXPECT_EQ(P.predict(0), 2);
}

TEST(Prediction, MarkovBeatsLastPhaseOnMarkerTraces) {
  // Marker firing sequences are transition streams: last-phase is nearly
  // always wrong while the Markov predictor captures the program's phase
  // cycle. This is the practical payoff of marker-based prediction.
  int MarkovWins = 0, Cases = 0;
  for (const std::string &Name : {std::string("gzip"),
                                  std::string("compress95"),
                                  std::string("mcf"), std::string("art")}) {
    Workload W = WorkloadRegistry::create(Name);
    auto Bin = lower(*W.Program, LoweringOptions::O2());
    LoopIndex Loops = LoopIndex::build(*Bin);
    auto G = buildCallLoopGraph(*Bin, Loops, W.Train);
    SelectorConfig C;
    C.ILower = 10000;
    MarkerSet M = selectMarkers(*G, C).Markers;
    MarkerRun R = runMarkerIntervals(*Bin, Loops, *G, M, W.Ref, false,
                                     /*RecordFirings=*/true);
    ASSERT_GT(R.Firings.size(), 20u) << Name;
    auto [Last, Markov] = evaluatePredictors(R.Firings);
    EXPECT_GT(Markov, 0.8) << Name << ": cyclic phases must be learnable";
    MarkovWins += Markov > Last;
    ++Cases;
  }
  EXPECT_EQ(MarkovWins, Cases);
}

TEST(Prediction, EmptySequenceIsSafe) {
  auto [Last, Markov] = evaluatePredictors({});
  EXPECT_EQ(Last, 0.0);
  EXPECT_EQ(Markov, 0.0);
}
