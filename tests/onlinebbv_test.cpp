//===- tests/onlinebbv_test.cpp - hardware-style phase classifier ---------==//

#include "ir/Lowering.h"
#include "markers/Pipeline.h"
#include "phase/Metrics.h"
#include "simpoint/OnlineBbv.h"
#include "simpoint/SimPoint.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

using namespace spm;

namespace {

struct Classified {
  Workload W;
  std::unique_ptr<Binary> Bin;
  std::vector<int32_t> Assign;
  std::vector<IntervalRecord> Intervals; ///< Matching fixed intervals.
  size_t Phases = 0;

  explicit Classified(const std::string &Name, uint64_t Len = 10000)
      : W(WorkloadRegistry::create(Name)) {
    Bin = lower(*W.Program, LoweringOptions::O2());
    OnlineBbvConfig C;
    C.IntervalLen = Len;
    OnlineBbvClassifier Cls(C);
    Interpreter(*Bin, W.Ref).runFast(Cls);
    Assign = Cls.assignments();
    Phases = Cls.numPhases();
    Intervals = runFixedIntervals(*Bin, W.Ref, Len, /*CollectBbv=*/true);
  }
};

} // namespace

TEST(OnlineBbv, OneAssignmentPerInterval) {
  Classified C("gzip");
  // Same fixed-interval framing as IntervalBuilder: counts must agree.
  EXPECT_EQ(C.Assign.size(), C.Intervals.size());
}

TEST(OnlineBbv, FindsFewStablePhasesOnRegularProgram) {
  Classified C("gzip");
  EXPECT_GE(C.Phases, 2u);
  // Boundary-straddling intervals found a few extra mixture phases (the
  // hardware has the same effect); the dominant phases must still cover
  // the bulk of execution.
  EXPECT_LE(C.Phases, 24u);
  std::map<int32_t, int> ByCount;
  for (int32_t P : C.Assign)
    ++ByCount[P];
  std::vector<int> Sizes;
  for (const auto &[Id, N] : ByCount)
    Sizes.push_back(N);
  std::sort(Sizes.rbegin(), Sizes.rend());
  int Top4 = 0;
  for (size_t I = 0; I < Sizes.size() && I < 4; ++I)
    Top4 += Sizes[I];
  EXPECT_GT(Top4 * 10, static_cast<int>(C.Assign.size()) * 7)
      << "top-4 phases should cover >70% of intervals";
  // Phase ids recur: the alternation revisits earlier phases.
  std::map<int32_t, int> Counts;
  for (int32_t P : C.Assign)
    ++Counts[P];
  int Recurring = 0;
  for (const auto &[Id, N] : Counts)
    Recurring += N >= 5;
  EXPECT_GE(Recurring, 2);
}

TEST(OnlineBbv, PhasesAreBehaviorHomogeneous) {
  // The online classification, like the offline one, must yield phases
  // far more homogeneous than the whole program.
  Classified C("bzip2");
  ASSERT_EQ(C.Assign.size(), C.Intervals.size());
  ClassificationSummary S =
      summarizeClassification(C.Intervals, C.Assign, cpiMetric);
  double Whole = wholeProgramCov(C.Intervals, cpiMetric);
  EXPECT_LT(S.OverallCov * 3, Whole);
}

TEST(OnlineBbv, AgreesBroadlyWithOfflineSimPoint) {
  // The paper treats oracle SimPoint as "a good approximation" of the
  // hardware classifier; quantify the agreement via the pairwise Rand
  // index between the two partitions.
  Classified C("gzip");
  SimPointResult SP = runSimPoint(C.Intervals, SimPointConfig());
  ASSERT_EQ(SP.Assign.size(), C.Assign.size());
  size_t Agree = 0, Total = 0;
  // Subsample pairs for speed.
  for (size_t I = 0; I < C.Assign.size(); I += 3) {
    for (size_t J = I + 1; J < C.Assign.size(); J += 7) {
      bool SameOnline = C.Assign[I] == C.Assign[J];
      bool SameOffline = SP.Assign[I] == SP.Assign[J];
      Agree += SameOnline == SameOffline;
      ++Total;
    }
  }
  ASSERT_GT(Total, 100u);
  EXPECT_GT(static_cast<double>(Agree) / static_cast<double>(Total), 0.75);
}

TEST(OnlineBbv, DeterministicAcrossRuns) {
  Classified A("mcf");
  Classified B("mcf");
  EXPECT_EQ(A.Assign, B.Assign);
}

TEST(OnlineBbv, TableCapacityRespected) {
  OnlineBbvConfig C;
  C.IntervalLen = 1000;
  C.MaxPhases = 4;
  C.MatchThreshold = 0.001; // Nearly everything founds a new phase...
  Workload W = WorkloadRegistry::create("gcc");
  auto Bin = lower(*W.Program, LoweringOptions::O2());
  OnlineBbvClassifier Cls(C);
  Interpreter(*Bin, W.Train).runFast(Cls);
  EXPECT_LE(Cls.numPhases(), 4u); // ...but the table caps out.
  for (int32_t P : Cls.assignments()) {
    EXPECT_GE(P, 0);
    EXPECT_LT(P, 4);
  }
}
