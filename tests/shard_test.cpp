//===- tests/shard_test.cpp - sharded execution differential tests --------==//
//
// Proves the shard execution layer produces output byte-identical to the
// uninterrupted engines: call-loop graph dumps, marker interval streams and
// firing traces, fixed-interval BBV streams, and cache statistics must not
// change for any shard count. Also covers checkpoint round-trips through
// the versioned binary format (save -> serialize -> parse -> resume must
// equal never-having-stopped), negative parsing paths, structural frame
// validation, and a seeded random-boundary fuzz over the segment chain.
//
//===----------------------------------------------------------------------==//

#include "callloop/Profile.h"
#include "ir/Builder.h"
#include "ir/Lowering.h"
#include "markers/Checkpoint.h"
#include "markers/Pipeline.h"
#include "markers/Selector.h"
#include "markers/Sharded.h"
#include "workloads/Workloads.h"

#include "CkptTestUtil.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

using namespace spm;

namespace {

/// Same cap as engine_test: truncates every workload mid-run, so shard
/// boundaries land in live loop/call nests and the final segment exercises
/// the limit-hit path.
constexpr uint64_t Cap = 1'500'000;

/// Shard counts under test. 1 must take the no-plan fast path; 7 does not
/// divide anything evenly, so boundaries fall at ragged positions.
const unsigned ShardCounts[] = {1, 2, 3, 7};

struct RunCase {
  std::string Name;
  WorkloadInput In;
};

std::vector<RunCase> differentialCases() {
  std::vector<RunCase> Cases;
  std::vector<std::string> Names = WorkloadRegistry::allNames();
  for (size_t I = 0; I < Names.size() && I < 3; ++I) {
    Workload W = WorkloadRegistry::create(Names[I]);
    Cases.push_back({Names[I] + "/seed0", W.Ref});
    WorkloadInput Other = W.Ref;
    Other.setSeed(W.Ref.seed() + 1);
    Cases.push_back({Names[I] + "/seed1", Other});
  }
  return Cases;
}

void expectSameCounters(const PerfCounters &A, const PerfCounters &B,
                        const std::string &Ctx) {
  EXPECT_EQ(A.Instrs, B.Instrs) << Ctx;
  EXPECT_EQ(A.BaseCycles, B.BaseCycles) << Ctx;
  EXPECT_EQ(A.L1Accesses, B.L1Accesses) << Ctx;
  EXPECT_EQ(A.L1Misses, B.L1Misses) << Ctx;
  EXPECT_EQ(A.L2Accesses, B.L2Accesses) << Ctx;
  EXPECT_EQ(A.L2Misses, B.L2Misses) << Ctx;
  EXPECT_EQ(A.Branches, B.Branches) << Ctx;
  EXPECT_EQ(A.Mispredicts, B.Mispredicts) << Ctx;
}

void expectSameIntervals(const std::vector<IntervalRecord> &A,
                         const std::vector<IntervalRecord> &B,
                         const std::string &Ctx) {
  ASSERT_EQ(A.size(), B.size()) << Ctx;
  for (size_t I = 0; I < A.size(); ++I) {
    std::string C = Ctx + " interval " + std::to_string(I);
    EXPECT_EQ(A[I].StartInstr, B[I].StartInstr) << C;
    EXPECT_EQ(A[I].NumInstrs, B[I].NumInstrs) << C;
    EXPECT_EQ(A[I].PhaseId, B[I].PhaseId) << C;
    expectSameCounters(A[I].Perf, B[I].Perf, C);
    ASSERT_EQ(A[I].Vector.size(), B[I].Vector.size()) << C;
    for (size_t J = 0; J < A[I].Vector.size(); ++J) {
      EXPECT_EQ(A[I].Vector[J].first, B[I].Vector[J].first) << C;
      EXPECT_EQ(A[I].Vector[J].second, B[I].Vector[J].second) << C;
    }
  }
}

void expectSameRun(const RunResult &A, const RunResult &B,
                   const std::string &Ctx) {
  EXPECT_EQ(A.TotalInstrs, B.TotalInstrs) << Ctx;
  EXPECT_EQ(A.TotalBlocks, B.TotalBlocks) << Ctx;
  EXPECT_EQ(A.TotalMemAccesses, B.TotalMemAccesses) << Ctx;
  EXPECT_EQ(A.HitInstrLimit, B.HitInstrLimit) << Ctx;
}

} // namespace

//===----------------------------------------------------------------------===//
// Differential: sharded drivers vs uninterrupted engines
//===----------------------------------------------------------------------===//

// Call-loop graph dump: runFast + listener profiling vs the sharded
// build for every shard count. Byte-identical dumps prove the per-shard
// traversal logs concatenate into the exact global traversal-end order,
// including the traversal split across a boundary.
TEST(ShardDifferential, CallLoopGraphDump) {
  for (const RunCase &RC : differentialCases()) {
    Workload W =
        WorkloadRegistry::create(RC.Name.substr(0, RC.Name.find('/')));
    auto B = lower(*W.Program, LoweringOptions::O2());
    LoopIndex Loops = LoopIndex::build(*B);

    CallLoopGraph Whole(*B, Loops);
    {
      CallLoopTracker T(*B, Loops, Whole);
      GraphProfiler Prof(Whole);
      T.addListener(&Prof);
      Interpreter(*B, RC.In).runFast(T, Cap);
      Whole.finalize();
    }
    std::string Ref = printGraph(Whole);
    ASSERT_FALSE(Ref.empty()) << RC.Name;

    for (unsigned N : ShardCounts) {
      auto G = buildCallLoopGraphSharded(*B, Loops, RC.In, N, Cap);
      EXPECT_EQ(Ref, printGraph(*G))
          << RC.Name << " shards=" << N;
    }
  }
}

// Marker-cut intervals, firing trace, and run totals: the full pipeline
// stack through runMarkerIntervalsSharded must reproduce the single-run
// driver exactly — intervals carry BBVs and perf-counter deltas, so this
// also transitively checks cache and predictor state restoration.
TEST(ShardDifferential, MarkerIntervalsAndFirings) {
  for (const RunCase &RC : differentialCases()) {
    Workload W =
        WorkloadRegistry::create(RC.Name.substr(0, RC.Name.find('/')));
    auto B = lower(*W.Program, LoweringOptions::O2());
    LoopIndex Loops = LoopIndex::build(*B);
    auto G = buildCallLoopGraph(*B, Loops, RC.In, Cap);
    SelectorConfig SC;
    SelectionResult Sel = selectMarkers(*G, SC);
    if (Sel.Markers.empty())
      continue; // Nothing to differentiate on this input.

    MarkerRun Ref =
        runMarkerIntervals(*B, Loops, *G, Sel.Markers, RC.In,
                           /*CollectBbv=*/true, /*RecordFirings=*/true, Cap);

    for (unsigned N : ShardCounts) {
      std::string Ctx = RC.Name + " shards=" + std::to_string(N);
      MarkerRun Got = runMarkerIntervalsSharded(
          *B, Loops, *G, Sel.Markers, RC.In, /*CollectBbv=*/true,
          /*RecordFirings=*/true, N, Cap);
      EXPECT_EQ(Ref.Firings, Got.Firings) << Ctx;
      expectSameRun(Ref.Run, Got.Run, Ctx);
      expectSameIntervals(Ref.Intervals, Got.Intervals, Ctx);
    }
  }
}

// Fixed-length intervals with BBVs: a boundary almost never coincides with
// an interval cut, so every inner shard starts inside an open interval —
// the carried partial BBV and counter snapshot must stitch it seamlessly.
TEST(ShardDifferential, FixedIntervalsAndBbv) {
  constexpr uint64_t Len = 100'000;
  for (const RunCase &RC : differentialCases()) {
    Workload W =
        WorkloadRegistry::create(RC.Name.substr(0, RC.Name.find('/')));
    auto B = lower(*W.Program, LoweringOptions::O2());

    std::vector<IntervalRecord> Ref =
        runFixedIntervals(*B, RC.In, Len, /*CollectBbv=*/true, Cap);

    for (unsigned N : ShardCounts) {
      std::vector<IntervalRecord> Got = runFixedIntervalsSharded(
          *B, RC.In, Len, /*CollectBbv=*/true, N, Cap);
      expectSameIntervals(Ref, Got,
                          RC.Name + " shards=" + std::to_string(N));
    }
  }
}

// Whole-run cache statistics across a segmented run: each segment runs a
// *fresh* PerfModel restored from the previous segment's saved state, so
// tag arrays, LRU stamps, and predictor counters must transfer exactly.
TEST(ShardDifferential, CacheCountersAcrossSegments) {
  for (const RunCase &RC : differentialCases()) {
    Workload W =
        WorkloadRegistry::create(RC.Name.substr(0, RC.Name.find('/')));
    auto B = lower(*W.Program, LoweringOptions::O2());

    PerfModel Full;
    RunResult RefR = Interpreter(*B, RC.In).runFast(Full, Cap);
    uint64_t Total = RefR.TotalInstrs;

    for (unsigned N : ShardCounts) {
      std::string Ctx = RC.Name + " shards=" + std::to_string(N);
      std::vector<uint64_t> Until;
      for (unsigned S = 0; S + 1 < N; ++S)
        Until.push_back(Total * (S + 1) / N);
      Until.push_back(Cap);

      PerfModelState St;
      InterpCheckpoint Cks[2];
      const InterpCheckpoint *From = nullptr;
      RunResult R;
      PerfCounters Final;
      for (size_t S = 0; S < Until.size(); ++S) {
        PerfModel P;
        if (S > 0) {
          ASSERT_TRUE(P.restoreState(St)) << Ctx;
        }
        Interpreter Interp(*B, RC.In);
        InterpCheckpoint *Out =
            S + 1 < Until.size() ? &Cks[S % 2] : nullptr;
        R = Interp.runFastSegment(P, From, Until[S], Out);
        St = P.saveState();
        Final = P.counters();
        From = Out;
      }
      expectSameRun(RefR, R, Ctx);
      expectSameCounters(Full.counters(), Final, Ctx);
    }
  }
}

//===----------------------------------------------------------------------===//
// Checkpoint round-trip through the binary format
//===----------------------------------------------------------------------===//

// save -> serialize -> parse -> restore -> resume must equal never having
// stopped: the parsed checkpoint drives a completely fresh pipeline stack
// for the second half of the run, and the concatenated outputs must match
// the uninterrupted driver byte for byte.
TEST(ShardCheckpoint, SerializedRoundTripResumesExactly) {
  for (const RunCase &RC : differentialCases()) {
    Workload W =
        WorkloadRegistry::create(RC.Name.substr(0, RC.Name.find('/')));
    auto B = lower(*W.Program, LoweringOptions::O2());
    LoopIndex Loops = LoopIndex::build(*B);
    auto G = buildCallLoopGraph(*B, Loops, RC.In, Cap);
    SelectorConfig SC;
    SelectionResult Sel = selectMarkers(*G, SC);
    if (Sel.Markers.empty())
      continue;

    MarkerRun Ref =
        runMarkerIntervals(*B, Loops, *G, Sel.Markers, RC.In,
                           /*CollectBbv=*/true, /*RecordFirings=*/true, Cap);
    uint64_t Mid = Ref.Run.TotalInstrs / 2;
    ASSERT_GT(Mid, 0u) << RC.Name;

    // First half: full stack, suspend at Mid, capture everything.
    PipelineCheckpoint C;
    MarkerRun First;
    {
      MarkerStack S(*B, Loops, *G, Sel.Markers, /*CollectBbv=*/true,
                    /*RecordFirings=*/true);
      Interpreter Interp(*B, RC.In);
      S.obs().onRunStart(*B, RC.In);
      Interp.runFastSegment(S.obs(), nullptr, Mid, &C.Interp);
      C.Seed = RC.In.seed();
      S.save(C);
      First = S.take();
    }

    // Through the wire format.
    std::string Bytes = serializeCheckpoint(C);
    std::string Err;
    std::optional<PipelineCheckpoint> Parsed = parseCheckpoint(Bytes, &Err);
    ASSERT_TRUE(Parsed.has_value()) << RC.Name << ": " << Err;
    EXPECT_EQ(Parsed->Seed, RC.In.seed()) << RC.Name;
    EXPECT_TRUE(Parsed->Interp.validateFor(*B, &Err)) << RC.Name << ": "
                                                      << Err;
    EXPECT_EQ(C.Interp.Frames.size(), Parsed->Interp.Frames.size())
        << RC.Name;
    for (size_t I = 0; I < C.Interp.Frames.size(); ++I)
      EXPECT_TRUE(C.Interp.Frames[I] == Parsed->Interp.Frames[I])
          << RC.Name << " frame " << I;

    // Second half: a fresh stack resumed from the *parsed* checkpoint.
    MarkerRun Second;
    {
      MarkerStack S(*B, Loops, *G, Sel.Markers, /*CollectBbv=*/true,
                    /*RecordFirings=*/true);
      ASSERT_TRUE(S.restore(*Parsed)) << RC.Name;
      Interpreter Interp(*B, RC.In);
      RunResult R = Interp.runFastSegment(S.obs(), &Parsed->Interp, Cap);
      S.obs().onRunEnd(R.TotalInstrs);
      Second = S.take();
      Second.Run = R;
    }

    expectSameRun(Ref.Run, Second.Run, RC.Name);
    detail::append(First.Firings, Second.Firings);
    EXPECT_EQ(Ref.Firings, First.Firings) << RC.Name;
    detail::append(First.Intervals, Second.Intervals);
    expectSameIntervals(Ref.Intervals, First.Intervals, RC.Name);
  }
}

// Each stack restores only from a checkpoint carrying all of its own
// sections, and only when the interval partial fits the binary: a leg or a
// `checkpoint resume` handed anything else must refuse instead of running
// on from a half-restored stack.
TEST(ShardCheckpoint, StackRestoreRequiresItsOwnFittingSections) {
  Workload W = WorkloadRegistry::create("gzip");
  auto B = lower(*W.Program, LoweringOptions::O2());
  LoopIndex Loops = LoopIndex::build(*B);
  auto G = buildCallLoopGraph(*B, Loops, W.Ref, Cap);
  SelectionResult Sel = selectMarkers(*G, SelectorConfig());
  ASSERT_FALSE(Sel.Markers.empty());
  const uint64_t Mid = Cap / 2;

  // A graph-warm checkpoint carries the tracker section only.
  PipelineCheckpoint GraphCk;
  {
    GraphStack S(*B, Loops, *G);
    Interpreter Interp(*B, W.Ref);
    S.obs().onRunStart(*B, W.Ref);
    Interp.runFastSegment(S.obs(), nullptr, Mid, &GraphCk.Interp);
    S.save(GraphCk);
  }
  EXPECT_TRUE(GraphCk.HasTracker);
  EXPECT_FALSE(GraphCk.HasInterval || GraphCk.HasPerf || GraphCk.HasMarkers);
  EXPECT_FALSE(MarkerStack(*B, Loops, *G, Sel.Markers, true).restore(GraphCk));
  EXPECT_FALSE(FixedStack(*B, 10000, true).restore(GraphCk));
  EXPECT_TRUE(GraphStack(*B, Loops, *G).restore(GraphCk));

  PipelineCheckpoint Ck;
  {
    MarkerStack S(*B, Loops, *G, Sel.Markers, /*CollectBbv=*/true);
    Interpreter Interp(*B, W.Ref);
    S.obs().onRunStart(*B, W.Ref);
    Interp.runFastSegment(S.obs(), nullptr, Mid, &Ck.Interp);
    S.save(Ck);
  }
  ASSERT_FALSE(Ck.Interval.Partial.empty());
  EXPECT_TRUE(MarkerStack(*B, Loops, *G, Sel.Markers, true).restore(Ck));
  for (bool *Has : {&Ck.HasTracker, &Ck.HasInterval, &Ck.HasPerf,
                    &Ck.HasMarkers}) {
    *Has = false;
    EXPECT_FALSE(MarkerStack(*B, Loops, *G, Sel.Markers, true).restore(Ck));
    *Has = true;
  }

  // The interval section is checked against the stack's binary
  // (trace_test covers the builder's other refusals).
  PipelineCheckpoint BadId = Ck;
  BadId.Interval.Partial.back().first =
      static_cast<uint32_t>(B->Blocks.size());
  EXPECT_FALSE(MarkerStack(*B, Loops, *G, Sel.Markers, true).restore(BadId));
  EXPECT_FALSE(FixedStack(*B, 10000, true).restore(BadId));
  // The wire format carries such an id intact (its CRCs are valid), so the
  // restore is the check that keeps it from sizing the BBV accumulator.
  std::optional<PipelineCheckpoint> Parsed =
      parseCheckpoint(serializeCheckpoint(BadId));
  ASSERT_TRUE(Parsed.has_value());
  EXPECT_FALSE(
      MarkerStack(*B, Loops, *G, Sel.Markers, true).restore(*Parsed));
}

//===----------------------------------------------------------------------===//
// Negative paths: the parser must reject anything it cannot prove whole
//===----------------------------------------------------------------------===//

namespace {

/// A small but fully-populated checkpoint for corruption tests.
PipelineCheckpoint sampleCheckpoint() {
  PipelineCheckpoint C;
  C.Seed = 42;
  C.Interp.TotalInstrs = 1000;
  C.Interp.TotalBlocks = 100;
  C.Interp.TotalMemAccesses = 50;
  C.Interp.Rand.S[0] = 1;
  C.Interp.SeqPos = {1, 2, 3};
  ResumeFrame F;
  F.K = ResumeFrame::Kind::Func;
  F.Step = ResumeFrame::StepBody;
  C.Interp.Frames.push_back(F);
  C.HasMarkers = true;
  C.Markers.GroupCounter = {7, 8};
  C.Markers.Fired = 2;
  return C;
}

} // namespace

TEST(ShardCheckpoint, ParseRejectsTruncation) {
  std::string Bytes = serializeCheckpoint(sampleCheckpoint());
  // Every strict prefix must fail: the format has no optional tail.
  for (size_t Len = 0; Len < Bytes.size(); ++Len) {
    std::string Err;
    EXPECT_FALSE(parseCheckpoint(Bytes.substr(0, Len), &Err).has_value())
        << "prefix of length " << Len << " parsed";
    EXPECT_FALSE(Err.empty()) << "no error for prefix " << Len;
  }
  // The untouched original still parses.
  EXPECT_TRUE(parseCheckpoint(Bytes).has_value());
}

TEST(ShardCheckpoint, ParseRejectsBadMagic) {
  std::string Bytes = serializeCheckpoint(sampleCheckpoint());
  std::string Bad = Bytes;
  Bad[0] = 'X';
  std::string Err;
  EXPECT_FALSE(parseCheckpoint(Bad, &Err).has_value());
  EXPECT_NE(Err.find("magic"), std::string::npos) << Err;
}

TEST(ShardCheckpoint, ParseRejectsWrongVersion) {
  std::string Bytes = serializeCheckpoint(sampleCheckpoint());
  std::string Bad = Bytes;
  Bad[8] = static_cast<char>(PipelineCheckpoint::Version + 1); // LE u32.
  std::string Err;
  EXPECT_FALSE(parseCheckpoint(Bad, &Err).has_value());
  EXPECT_NE(Err.find("version"), std::string::npos) << Err;
}

TEST(ShardCheckpoint, ParseRejectsTrailingGarbage) {
  std::string Bytes = serializeCheckpoint(sampleCheckpoint());
  {
    // A raw appended byte trips the whole-file CRC before anything else.
    std::string Err;
    EXPECT_FALSE(parseCheckpoint(Bytes + '\0', &Err).has_value());
    EXPECT_NE(Err.find("ckpt[crc:file]"), std::string::npos) << Err;
  }
  {
    // With the trailer resealed over the stray byte, the parser itself
    // must still reject the surplus.
    std::string Bad = Bytes;
    Bad.insert(Bad.size() - ckptutil::TrailerSize, 1, '\0');
    ckptutil::resealFile(Bad);
    std::string Err;
    EXPECT_FALSE(parseCheckpoint(Bad, &Err).has_value());
    EXPECT_NE(Err.find("trailing"), std::string::npos) << Err;
  }
}

TEST(ShardCheckpoint, ParseRejectsCorruptFrameKindStepAndBool) {
  // Structural validation must survive an attacker who reseals the CRCs:
  // corrupt a field inside the interp payload, recompute both checksums,
  // and the strict parsers still have to name the damage. Interp payload
  // layout: totals(24) rng S(32) spare(8) -> HaveSpare bool at 64, then
  // six empty-vector counts (6*8) and the frame count (8) put the first
  // frame's kind byte at 121 for a minimal checkpoint with empty vectors.
  PipelineCheckpoint C;
  ResumeFrame F;
  F.K = ResumeFrame::Kind::Loop;
  F.Step = ResumeFrame::StepBody;
  C.Interp.Frames.push_back(F);
  std::string Bytes = serializeCheckpoint(C);
  ckptutil::SectionSpan Interp = ckptutil::sections(Bytes).at(0);

  const size_t HaveSpareOff = Interp.PayloadOff + ckptutil::InterpHaveSpareOff;
  const size_t FrameKindOff =
      Interp.PayloadOff + ckptutil::InterpHaveSpareOff + 1 + 6 * 8 + 8;
  const size_t FrameStepOff = FrameKindOff + 1;

  auto Corrupt = [&](size_t Off, char V) {
    std::string Bad = Bytes;
    Bad[Off] = V;
    ckptutil::resealSection(Bad, Interp);
    return Bad;
  };
  {
    std::string Err;
    EXPECT_FALSE(
        parseCheckpoint(Corrupt(HaveSpareOff, 2), &Err).has_value());
    EXPECT_NE(Err.find("boolean"), std::string::npos) << Err;
  }
  {
    std::string Err;
    EXPECT_FALSE(
        parseCheckpoint(Corrupt(FrameKindOff, 17), &Err).has_value());
    EXPECT_NE(Err.find("frame kind"), std::string::npos) << Err;
  }
  {
    std::string Err;
    EXPECT_FALSE(
        parseCheckpoint(Corrupt(FrameStepOff, 7), &Err).has_value());
    EXPECT_NE(Err.find("frame step"), std::string::npos) << Err;
  }
}

TEST(ShardCheckpoint, RoundTripPreservesEverySection) {
  PipelineCheckpoint C = sampleCheckpoint();
  C.HasTracker = true;
  TrackerCheckpoint::FrameState TF;
  TF.K = 1;
  TF.Node = 3;
  TF.Hier = 99;
  C.Tracker.Stack.push_back(TF);
  C.Tracker.ActiveDepth = {1, 0};
  C.HasInterval = true;
  C.Interval.StartInstr = 500;
  C.Interval.CurInstrs = 123;
  C.Interval.CurBlocks = 17;
  C.Interval.CurMem = 456;
  C.Interval.PendingCut = true;
  C.Interval.PendingPhase = 4;
  C.Interval.Partial = {{2, 10.0}, {5, 1.5}};
  C.HasPerf = true;
  C.Perf.C.Instrs = 1000;
  C.Perf.DL1.Tags = {11, 22};
  C.Perf.DL1.Stamps = {1, 2};
  C.Perf.DL1.Clock = 7;
  C.Perf.HasL2 = true;
  C.Perf.L2.Tags = {33};
  C.Perf.L2.Stamps = {3};
  C.Perf.Bp.Counters = {0, 1, 2, 3};
  C.Perf.Bp.Branches = 40;
  C.Perf.Bp.Mispredicts = 4;

  std::string Err;
  std::optional<PipelineCheckpoint> P =
      parseCheckpoint(serializeCheckpoint(C), &Err);
  ASSERT_TRUE(P.has_value()) << Err;
  EXPECT_EQ(P->Seed, C.Seed);
  ASSERT_EQ(P->Interp.Frames.size(), C.Interp.Frames.size());
  EXPECT_TRUE(P->Interp.Frames[0] == C.Interp.Frames[0]);
  EXPECT_EQ(P->Interp.SeqPos, C.Interp.SeqPos);
  ASSERT_TRUE(P->HasTracker);
  ASSERT_EQ(P->Tracker.Stack.size(), 1u);
  EXPECT_EQ(P->Tracker.Stack[0].Node, TF.Node);
  EXPECT_EQ(P->Tracker.Stack[0].Hier, TF.Hier);
  EXPECT_EQ(P->Tracker.ActiveDepth, C.Tracker.ActiveDepth);
  ASSERT_TRUE(P->HasInterval);
  EXPECT_EQ(P->Interval.StartInstr, C.Interval.StartInstr);
  EXPECT_EQ(P->Interval.CurInstrs, C.Interval.CurInstrs);
  EXPECT_EQ(P->Interval.CurBlocks, C.Interval.CurBlocks);
  EXPECT_EQ(P->Interval.CurMem, C.Interval.CurMem);
  EXPECT_EQ(P->Interval.PendingCut, C.Interval.PendingCut);
  EXPECT_EQ(P->Interval.Partial, C.Interval.Partial);
  ASSERT_TRUE(P->HasPerf);
  EXPECT_EQ(P->Perf.DL1.Tags, C.Perf.DL1.Tags);
  EXPECT_EQ(P->Perf.DL1.Clock, C.Perf.DL1.Clock);
  ASSERT_TRUE(P->Perf.HasL2);
  EXPECT_EQ(P->Perf.L2.Tags, C.Perf.L2.Tags);
  EXPECT_EQ(P->Perf.Bp.Counters, C.Perf.Bp.Counters);
  ASSERT_TRUE(P->HasMarkers);
  EXPECT_EQ(P->Markers.GroupCounter, C.Markers.GroupCounter);
  EXPECT_EQ(P->Markers.Fired, C.Markers.Fired);
}

//===----------------------------------------------------------------------===//
// Structural validation of deserialized frame stacks
//===----------------------------------------------------------------------===//

TEST(ShardCheckpoint, ValidateForRejectsStructuralNonsense) {
  Workload W = WorkloadRegistry::create("gzip");
  auto B = lower(*W.Program, LoweringOptions::O2());

  // A genuine mid-run checkpoint passes.
  InterpCheckpoint Good;
  {
    struct NullObs {};
    NullObs O;
    Interpreter Interp(*B, W.Ref);
    RunResult R = Interp.runFast(O, Cap);
    Interpreter Interp2(*B, W.Ref);
    Interp2.runFastSegment(O, nullptr, R.TotalInstrs / 2, &Good);
  }
  std::string Err;
  ASSERT_TRUE(Good.validateFor(*B, &Err)) << Err;
  ASSERT_FALSE(Good.Frames.empty());

  // Outermost frame must be main's Func frame.
  {
    InterpCheckpoint Bad = Good;
    Bad.Frames[0].Id = 1;
    EXPECT_FALSE(Bad.validateFor(*B, &Err));
  }
  {
    InterpCheckpoint Bad = Good;
    Bad.Frames[0].K = ResumeFrame::Kind::Loop;
    EXPECT_FALSE(Bad.validateFor(*B, &Err));
  }
  // Truncated frame stack: the walk must consume every frame.
  {
    InterpCheckpoint Bad = Good;
    Bad.Frames.push_back(Bad.Frames.back());
    EXPECT_FALSE(Bad.validateFor(*B, &Err));
  }
  // Per-site vector shape mismatch.
  {
    InterpCheckpoint Bad = Good;
    Bad.SeqPos.push_back(0);
    EXPECT_FALSE(Bad.validateFor(*B, &Err));
    EXPECT_FALSE(Err.empty());
  }
  {
    InterpCheckpoint Bad = Good;
    Bad.RRCursor.clear();
    EXPECT_FALSE(Bad.validateFor(*B, &Err));
  }
}

//===----------------------------------------------------------------------===//
// Randomized shard-boundary fuzz
//===----------------------------------------------------------------------===//

namespace {

/// Records the full event sequence for exact stream-identity comparison.
class RecordingObserver : public ExecutionObserver {
public:
  struct Event {
    enum class Kind { Block, Mem, Branch, Call, Ret } K;
    uint64_t A = 0;
    uint64_t B = 0;
    bool Flag = false;
    bool Backward = false;

    bool operator==(const Event &O) const {
      return K == O.K && A == O.A && B == O.B && Flag == O.Flag &&
             Backward == O.Backward;
    }
  };

  void onBlock(const LoweredBlock &Blk) override {
    Events.push_back({Event::Kind::Block, Blk.Addr, 0, false, false});
  }
  void onMemAccess(uint64_t Addr, bool IsStore) override {
    Events.push_back({Event::Kind::Mem, Addr, 0, IsStore, false});
  }
  void onBranch(uint64_t Pc, uint64_t Target, bool Taken, bool Backward,
                bool Conditional) override {
    (void)Conditional;
    Events.push_back({Event::Kind::Branch, Pc, Target, Taken, Backward});
  }
  void onCall(uint64_t Site, uint32_t Callee) override {
    Events.push_back({Event::Kind::Call, Callee, Site, false, false});
  }
  void onReturn(uint32_t Callee) override {
    Events.push_back({Event::Kind::Ret, Callee, 0, false, false});
  }

  std::vector<Event> Events;
};

} // namespace

// Twenty seeded random boundary sets, each splitting the run into up to
// nine segments at arbitrary positions (mid-loop, mid-call — wherever the
// draw lands). Each segment resumes in a FRESH interpreter instance from
// the previous checkpoint; the concatenated event stream and final totals
// must equal the uninterrupted run.
TEST(ShardFuzz, RandomBoundariesPreserveEventStream) {
  constexpr uint64_t FuzzCap = 300'000;
  Workload W = WorkloadRegistry::create("gzip");
  auto B = lower(*W.Program, LoweringOptions::O2());

  RecordingObserver Ref;
  RunResult RefR = Interpreter(*B, W.Ref).runFast(Ref, FuzzCap);
  uint64_t Total = RefR.TotalInstrs;
  ASSERT_GT(Total, 10u);

  Rng Rand(0xf00dULL);
  for (int Round = 0; Round < 20; ++Round) {
    // 1..8 boundaries; duplicates allowed (zero-length segments must be
    // harmless pass-throughs).
    size_t NBounds = 1 + Rand.nextBelow(8);
    std::vector<uint64_t> Until;
    for (size_t I = 0; I < NBounds; ++I)
      Until.push_back(1 + Rand.nextBelow(Total - 1));
    std::sort(Until.begin(), Until.end());
    Until.push_back(FuzzCap);
    std::string Ctx = "round " + std::to_string(Round);

    RecordingObserver Got;
    InterpCheckpoint Cks[2];
    const InterpCheckpoint *From = nullptr;
    RunResult R;
    for (size_t S = 0; S < Until.size(); ++S) {
      Interpreter Interp(*B, W.Ref);
      InterpCheckpoint *Out = S + 1 < Until.size() ? &Cks[S % 2] : nullptr;
      R = Interp.runFastSegment(Got, From, Until[S], Out);
      if (Out) {
        std::string Err;
        ASSERT_TRUE(Out->validateFor(*B, &Err))
            << Ctx << " segment " << S << ": " << Err;
      }
      From = Out;
    }
    expectSameRun(RefR, R, Ctx);
    ASSERT_EQ(Ref.Events.size(), Got.Events.size()) << Ctx;
    EXPECT_TRUE(Ref.Events == Got.Events) << Ctx;
  }
}

// A boundary exactly at the end of the run: the next segment must be a
// no-op that reports Finished, and resuming past the end must not emit
// any events.
TEST(ShardFuzz, BoundaryAtRunEndResumesToNothing) {
  Workload W = WorkloadRegistry::create("gzip");
  auto B = lower(*W.Program, LoweringOptions::O2());
  constexpr uint64_t FuzzCap = 200'000;

  RecordingObserver Ref;
  RunResult RefR = Interpreter(*B, W.Ref).runFast(Ref, FuzzCap);

  RecordingObserver Got;
  InterpCheckpoint C1;
  Interpreter(*B, W.Ref).runFastSegment(Got, nullptr, FuzzCap, &C1);
  size_t EventsAfterFull = Got.Events.size();
  EXPECT_TRUE(Ref.Events == Got.Events);

  // Resume at the cap: zero-length segment, nothing new.
  InterpCheckpoint C2;
  Interpreter Interp2(*B, W.Ref);
  RunResult R2 = Interp2.runFastSegment(Got, &C1, FuzzCap, &C2);
  EXPECT_EQ(Got.Events.size(), EventsAfterFull);
  expectSameRun(RefR, R2, "zero-length resume");
  EXPECT_EQ(C1.TotalInstrs, C2.TotalInstrs);
}

// Graph merge via RunningStat::merge (Chan's parallel Welford): counts,
// sums, and maxima must combine exactly; means must agree to floating
// tolerance with the sequential accumulation. This is the approximate
// alternative to ordered-log replay.
TEST(ShardMerge, WelfordGraphMergeMatchesSequentialStats) {
  Workload W = WorkloadRegistry::create("gzip");
  auto B = lower(*W.Program, LoweringOptions::O2());
  LoopIndex Loops = LoopIndex::build(*B);

  auto Ref = buildCallLoopGraph(*B, Loops, W.Ref, Cap);

  // Split the same run into two tracker passes at a midpoint and merge.
  struct NullObs {};
  NullObs O;
  Interpreter Probe(*B, W.Ref);
  uint64_t Total = Probe.runFast(O, Cap).TotalInstrs;

  CallLoopGraph Acc(*B, Loops);
  CallLoopGraph Part0(*B, Loops), Part1(*B, Loops);
  {
    InterpCheckpoint C;
    PipelineCheckpoint Pc;
    // Segment 1.
    {
      CallLoopTracker T(*B, Loops, Part0);
      T.setProfileTarget(&Part0);
      T.onRunStart(*B, W.Ref);
      Interpreter Interp(*B, W.Ref);
      Interp.runFastSegment(T, nullptr, Total / 2, &C);
      Pc.Tracker = T.saveState();
    }
    // Segment 2 on a fresh tracker writing into a different graph.
    {
      CallLoopTracker T(*B, Loops, Part1);
      T.setProfileTarget(&Part1);
      ASSERT_TRUE(T.restoreState(Pc.Tracker));
      Interpreter Interp(*B, W.Ref);
      RunResult R = Interp.runFastSegment(T, &C, Cap);
      T.onRunEnd(R.TotalInstrs);
    }
  }
  Acc.mergeFrom(Part0);
  Acc.mergeFrom(Part1);
  Acc.finalize();

  auto RefEdges = Ref->sortedEdges();
  auto GotEdges = Acc.sortedEdges();
  ASSERT_EQ(RefEdges.size(), GotEdges.size());
  for (size_t I = 0; I < RefEdges.size(); ++I) {
    const CallLoopEdge *A = RefEdges[I], *G = GotEdges[I];
    EXPECT_EQ(A->From, G->From);
    EXPECT_EQ(A->To, G->To);
    EXPECT_EQ(A->Hier.count(), G->Hier.count())
        << "edge " << I << " count drifted";
    EXPECT_DOUBLE_EQ(A->Hier.sum(), G->Hier.sum()) << "edge " << I;
    EXPECT_DOUBLE_EQ(A->Hier.max(), G->Hier.max()) << "edge " << I;
    EXPECT_NEAR(A->Hier.mean(), G->Hier.mean(),
                1e-9 * std::max(1.0, std::abs(A->Hier.mean())))
        << "edge " << I;
  }
}
