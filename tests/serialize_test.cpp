//===- tests/serialize_test.cpp - marker file format ----------------------==//

#include "ir/Lowering.h"
#include "markers/Checkpoint.h"
#include "markers/Pipeline.h"
#include "markers/Selector.h"
#include "markers/Serialize.h"
#include "workloads/Workloads.h"

#include "CkptTestUtil.h"

#include <gtest/gtest.h>

using namespace spm;

namespace {

std::vector<PortableMarker> sampleMarkers() {
  std::vector<PortableMarker> Ms;
  PortableMarker A;
  A.From.K = NodeKind::ProcBody;
  A.From.Func = "main";
  A.To.K = NodeKind::ProcHead;
  A.To.Func = "deflate";
  Ms.push_back(A);
  PortableMarker B;
  B.From.K = NodeKind::LoopHead;
  B.From.LoopStmt = 7;
  B.To.K = NodeKind::LoopBody;
  B.To.LoopStmt = 7;
  B.GroupN = 40;
  Ms.push_back(B);
  PortableMarker C;
  C.From.K = NodeKind::Root;
  C.To.K = NodeKind::ProcHead;
  C.To.Func = "main";
  Ms.push_back(C);
  return Ms;
}

} // namespace

TEST(Serialize, RoundTripPreservesEverything) {
  auto Ms = sampleMarkers();
  std::string Text = serializeMarkers(Ms);
  std::string Err;
  auto Back = parseMarkers(Text, &Err);
  ASSERT_TRUE(Back.has_value()) << Err;
  ASSERT_EQ(Back->size(), Ms.size());
  for (size_t I = 0; I < Ms.size(); ++I) {
    EXPECT_EQ((*Back)[I].From.K, Ms[I].From.K);
    EXPECT_EQ((*Back)[I].From.Func, Ms[I].From.Func);
    EXPECT_EQ((*Back)[I].From.LoopStmt, Ms[I].From.LoopStmt);
    EXPECT_EQ((*Back)[I].To.K, Ms[I].To.K);
    EXPECT_EQ((*Back)[I].To.Func, Ms[I].To.Func);
    EXPECT_EQ((*Back)[I].To.LoopStmt, Ms[I].To.LoopStmt);
    EXPECT_EQ((*Back)[I].GroupN, Ms[I].GroupN);
  }
}

TEST(Serialize, EmptySetRoundTrips) {
  auto Back = parseMarkers(serializeMarkers({}));
  ASSERT_TRUE(Back.has_value());
  EXPECT_TRUE(Back->empty());
}

TEST(Serialize, CommentsAndBlankLinesIgnored) {
  std::string Text = "spm-markers v1\n"
                     "# a comment\n"
                     "\n"
                     "pbody main phead deflate 1\n";
  auto Back = parseMarkers(Text);
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(Back->size(), 1u);
}

TEST(Serialize, RejectsMissingHeader) {
  std::string Err;
  EXPECT_FALSE(parseMarkers("pbody main phead deflate 1\n", &Err));
  EXPECT_NE(Err.find("header"), std::string::npos);
}

TEST(Serialize, RejectsMalformedLines) {
  const char *Bad[] = {
      "spm-markers v1\npbody main phead 1\n",          // 4 fields.
      "spm-markers v1\npbody main phead deflate 1 x\n", // 6 fields.
      "spm-markers v1\nwat main phead deflate 1\n",     // Bad kind.
      "spm-markers v1\nlhead s7 lbody seven 1\n",       // Bad stmt id.
      "spm-markers v1\npbody main phead deflate 0\n",   // Zero group.
      "spm-markers v1\nroot main phead deflate 1\n",    // Root with a name.
      "spm-markers v1\nphead - pbody main 1\n",         // Proc without name.
  };
  for (const char *Text : Bad) {
    std::string Err;
    EXPECT_FALSE(parseMarkers(Text, &Err).has_value()) << Text;
    EXPECT_FALSE(Err.empty());
  }
}

TEST(Serialize, RealSelectionRoundTripsThroughText) {
  // Full workflow: select -> portable -> text -> parse -> re-anchor.
  Workload W = WorkloadRegistry::create("gzip");
  auto Bin = lower(*W.Program, LoweringOptions::O2());
  LoopIndex Loops = LoopIndex::build(*Bin);
  auto G = buildCallLoopGraph(*Bin, Loops, W.Train);
  SelectorConfig C;
  C.ILower = 10000;
  SelectionResult Sel = selectMarkers(*G, C);
  ASSERT_GT(Sel.Markers.size(), 0u);

  std::string Text =
      serializeMarkers(toPortable(Sel.Markers, *G, *Bin));
  std::string Err;
  auto Parsed = parseMarkers(Text, &Err);
  ASSERT_TRUE(Parsed.has_value()) << Err;
  MarkerSet Back = fromPortable(*Parsed, *G, *Bin, Loops);
  ASSERT_EQ(Back.size(), Sel.Markers.size());
  for (size_t I = 0; I < Back.size(); ++I) {
    EXPECT_EQ(Back[I].From, Sel.Markers[I].From);
    EXPECT_EQ(Back[I].To, Sel.Markers[I].To);
    EXPECT_EQ(Back[I].GroupN, Sel.Markers[I].GroupN);
  }
}

TEST(Serialize, RejectsWrongVersionHeader) {
  std::string Err;
  EXPECT_FALSE(
      parseMarkers("spm-markers v2\npbody main phead deflate 1\n", &Err)
          .has_value());
  EXPECT_FALSE(Err.empty());
}

//===----------------------------------------------------------------------===//
// Checkpoint binary format: same strictness guarantees as the text formats
//===----------------------------------------------------------------------===//

namespace {

PipelineCheckpoint sampleCheckpoint() {
  PipelineCheckpoint C;
  C.Seed = 1234;
  C.Interp.TotalInstrs = 777;
  C.Interp.SeqPos = {4, 5};
  ResumeFrame F;
  F.K = ResumeFrame::Kind::Func;
  F.Step = ResumeFrame::StepBody;
  C.Interp.Frames.push_back(F);
  C.HasPerf = true;
  C.Perf.DL1.Tags = {9, 9, 9};
  C.Perf.DL1.Stamps = {1, 2, 3};
  C.Perf.Bp.Counters = {0, 1, 2, 3};
  return C;
}

} // namespace

TEST(SerializeCheckpoint, RejectsEveryTruncation) {
  std::string Bytes = serializeCheckpoint(sampleCheckpoint());
  for (size_t Len = 0; Len < Bytes.size(); ++Len) {
    std::string Err;
    EXPECT_FALSE(parseCheckpoint(Bytes.substr(0, Len), &Err).has_value())
        << "prefix " << Len;
    EXPECT_FALSE(Err.empty()) << "prefix " << Len;
  }
  EXPECT_TRUE(parseCheckpoint(Bytes).has_value());
}

TEST(SerializeCheckpoint, RejectsCorruptMagicAndVersion) {
  std::string Bytes = serializeCheckpoint(sampleCheckpoint());
  {
    std::string Bad = Bytes;
    Bad[3] ^= 0x40;
    std::string Err;
    EXPECT_FALSE(parseCheckpoint(Bad, &Err).has_value());
    EXPECT_NE(Err.find("magic"), std::string::npos) << Err;
  }
  {
    std::string Bad = Bytes;
    Bad[8] = 0x7f; // Version field (LE u32 right after the magic).
    std::string Err;
    EXPECT_FALSE(parseCheckpoint(Bad, &Err).has_value());
    EXPECT_NE(Err.find("version"), std::string::npos) << Err;
  }
}

TEST(SerializeCheckpoint, RejectsTrailingBytesAndInsaneCounts) {
  std::string Bytes = serializeCheckpoint(sampleCheckpoint());
  {
    // A raw appended byte never reaches the structural checks: the
    // whole-file CRC catches it first.
    std::string Err;
    EXPECT_FALSE(parseCheckpoint(Bytes + "x", &Err).has_value());
    EXPECT_NE(Err.find("ckpt[crc:file]"), std::string::npos) << Err;
  }
  {
    // Insert a byte *before* the trailer and reseal the file CRC: the
    // checksums pass, so the parser itself must flag the stray byte.
    std::string Bad = Bytes;
    Bad.insert(Bad.size() - ckptutil::TrailerSize, 1, 'x');
    ckptutil::resealFile(Bad);
    std::string Err;
    EXPECT_FALSE(parseCheckpoint(Bad, &Err).has_value());
    EXPECT_NE(Err.find("trailing"), std::string::npos) << Err;
  }
  {
    // Blow up the SeqPos length prefix (first vector after the fixed
    // 65-byte scalar prelude of the interp payload) to an impossible
    // element count and reseal both CRCs; the sanity cap must reject it
    // without attempting the allocation.
    std::string Bad = Bytes;
    ckptutil::SectionSpan Interp = ckptutil::sections(Bad).at(0);
    size_t Off = Interp.PayloadOff + ckptutil::InterpSeqPosCountOff;
    for (int I = 0; I < 8; ++I)
      Bad[Off + I] = static_cast<char>(0xff);
    ckptutil::resealSection(Bad, Interp);
    std::string Err;
    EXPECT_FALSE(parseCheckpoint(Bad, &Err).has_value());
    EXPECT_NE(Err.find("sanity cap"), std::string::npos) << Err;
  }
}

TEST(SerializeCheckpoint, RejectsInsaneCountInEveryVectorSection) {
  // Each section that starts with a vector/element count must hit the
  // ByteReader sanity cap when that count is blown to 2^64-1 — with the
  // CRCs resealed so corruption detection cannot mask the structural check.
  PipelineCheckpoint C = sampleCheckpoint();
  C.HasTracker = true;
  C.Tracker.ActiveDepth = {1};
  C.HasInterval = true;
  C.Interval.Partial = {{1, 2.0}};
  C.HasMarkers = true;
  C.Markers.GroupCounter = {3};
  std::string Bytes = serializeCheckpoint(C);
  std::vector<ckptutil::SectionSpan> Spans = ckptutil::sections(Bytes);
  ASSERT_EQ(Spans.size(), 5u);
  for (const ckptutil::SectionSpan &S : Spans) {
    if (std::string(S.Name) == "perf")
      continue; // Perf opens with fixed counters, not a count.
    std::string Bad = Bytes;
    // First element-count field within each section's payload: tracker and
    // markers open with one; interp's SeqPos count follows the scalar
    // prelude; interval's partial-BBV count follows StartInstr(8) +
    // CurInstrs(8) + CurBlocks(8) + CurMem(8) + CurPhase(4) +
    // PendingCut(1) + PendingPhase(4) + LastPerf counters(64).
    size_t CountOff = S.PayloadOff;
    if (std::string(S.Name) == "interp")
      CountOff += ckptutil::InterpSeqPosCountOff;
    else if (std::string(S.Name) == "interval")
      CountOff += 8 + 8 + 8 + 8 + 4 + 1 + 4 + 64;
    for (int I = 0; I < 8; ++I)
      Bad[CountOff + I] = static_cast<char>(0xff);
    ckptutil::resealSection(Bad, S);
    std::string Err;
    EXPECT_FALSE(parseCheckpoint(Bad, &Err).has_value()) << S.Name;
    EXPECT_NE(Err.find("sanity cap"), std::string::npos)
        << S.Name << ": " << Err;
  }
}

TEST(SerializeCheckpoint, RejectsTruncationAtEverySectionBoundary) {
  // Cut the body exactly at each section boundary and reseal the trailer so
  // the file CRC passes: the parser's own framing checks must still name
  // the damage as truncation (or a missing section flag).
  PipelineCheckpoint C = sampleCheckpoint();
  C.HasTracker = true;
  C.Tracker.ActiveDepth = {1};
  std::string Bytes = serializeCheckpoint(C);
  std::vector<size_t> Cuts = {ckptutil::SeedOff, ckptutil::FirstSectionOff};
  for (const ckptutil::SectionSpan &S : ckptutil::sections(Bytes)) {
    Cuts.push_back(S.LenOff);              // Flag present, framing missing.
    Cuts.push_back(S.PayloadOff);          // Length present, payload missing.
    Cuts.push_back(S.CrcOff);              // Payload present, CRC missing.
  }
  for (size_t Cut : Cuts) {
    std::string Bad = ckptutil::truncateAndReseal(Bytes, Cut);
    std::string Err;
    EXPECT_FALSE(parseCheckpoint(Bad, &Err).has_value()) << "cut " << Cut;
    EXPECT_NE(Err.find("ckpt["), std::string::npos)
        << "cut " << Cut << ": " << Err;
  }
}

TEST(SerializeCheckpoint, PerByteCorruptionSweepIsDeterministic) {
  // CRC-32 catches every burst error of 32 bits or fewer, so flipping any
  // single byte must be rejected — and for every offset past the 12-byte
  // header the rejection is specifically the named whole-file CRC check,
  // which runs before any length field is trusted.
  PipelineCheckpoint C = sampleCheckpoint();
  C.HasTracker = true;
  C.HasInterval = true;
  C.HasMarkers = true;
  std::string Bytes = serializeCheckpoint(C);
  for (size_t Off = 0; Off < Bytes.size(); ++Off) {
    std::string Bad = Bytes;
    Bad[Off] = static_cast<char>(static_cast<uint8_t>(Bad[Off]) ^ 0xff);
    std::string Err;
    EXPECT_FALSE(parseCheckpoint(Bad, &Err).has_value()) << "offset " << Off;
    if (Off < 8)
      EXPECT_NE(Err.find("magic"), std::string::npos)
          << "offset " << Off << ": " << Err;
    else if (Off < 12)
      EXPECT_NE(Err.find("version"), std::string::npos)
          << "offset " << Off << ": " << Err;
    else
      EXPECT_NE(Err.find("ckpt[crc:file]"), std::string::npos)
          << "offset " << Off << ": " << Err;
  }
  EXPECT_TRUE(parseCheckpoint(Bytes).has_value());
}

TEST(SerializeCheckpoint, SectionCrcLocalizesDamage) {
  // When a section payload is corrupted but the *file* trailer is resealed,
  // the per-section CRC must name the damaged section.
  PipelineCheckpoint C = sampleCheckpoint();
  C.HasMarkers = true;
  C.Markers.GroupCounter = {3, 4};
  std::string Bytes = serializeCheckpoint(C);
  for (const ckptutil::SectionSpan &S : ckptutil::sections(Bytes)) {
    std::string Bad = Bytes;
    Bad[S.PayloadOff] =
        static_cast<char>(static_cast<uint8_t>(Bad[S.PayloadOff]) ^ 0xff);
    ckptutil::resealFile(Bad);
    std::string Err;
    EXPECT_FALSE(parseCheckpoint(Bad, &Err).has_value()) << S.Name;
    EXPECT_NE(Err.find(std::string("ckpt[crc:") + S.Name + "]"),
              std::string::npos)
        << S.Name << ": " << Err;
  }
}

TEST(SerializeCheckpoint, ReportsSectionInventory) {
  PipelineCheckpoint C = sampleCheckpoint();
  std::string Bytes = serializeCheckpoint(C);
  std::string Err;
  std::vector<CheckpointSectionInfo> Info;
  ASSERT_TRUE(parseCheckpoint(Bytes, &Err, &Info).has_value()) << Err;
  ASSERT_EQ(Info.size(), 5u);
  EXPECT_STREQ(Info[0].Name, "interp");
  EXPECT_TRUE(Info[0].Present);
  EXPECT_GT(Info[0].Bytes, 0u);
  EXPECT_TRUE(Info[3].Present); // sampleCheckpoint sets HasPerf.
  EXPECT_FALSE(Info[1].Present);
  EXPECT_FALSE(Info[2].Present);
  EXPECT_FALSE(Info[4].Present);
}

TEST(SerializeCheckpoint, BinaryRoundTripIsBitExact) {
  PipelineCheckpoint C = sampleCheckpoint();
  std::string Bytes = serializeCheckpoint(C);
  std::string Err;
  auto P = parseCheckpoint(Bytes, &Err);
  ASSERT_TRUE(P.has_value()) << Err;
  // Re-serializing the parsed checkpoint reproduces the exact bytes.
  EXPECT_EQ(Bytes, serializeCheckpoint(*P));
}
