//===- tests/wavelet_test.cpp - Haar DWT and Shen-variant selection -------==//

#include "ir/Lowering.h"
#include "reuse/ReuseMarkers.h"
#include "reuse/Wavelet.h"
#include "support/Random.h"
#include "vm/Interpreter.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace spm;

TEST(Haar, ForwardInverseRoundTrip) {
  std::vector<double> S = {4, 6, 10, 12, 14, 14, 2, 0};
  HaarLevel L = haarForward(S);
  ASSERT_EQ(L.Approx.size(), 4u);
  ASSERT_EQ(L.Detail.size(), 4u);
  std::vector<double> Back = haarInverse(L.Approx, L.Detail);
  ASSERT_EQ(Back.size(), S.size());
  for (size_t I = 0; I < S.size(); ++I)
    EXPECT_NEAR(Back[I], S[I], 1e-12);
}

TEST(Haar, OddLengthPadsAndTrims) {
  std::vector<double> S = {1, 2, 3};
  HaarLevel L = haarForward(S);
  EXPECT_EQ(L.Approx.size(), 2u);
  std::vector<double> D = waveletDenoise(S, 1, 0.0);
  EXPECT_EQ(D.size(), S.size());
}

TEST(Haar, TransformIsOrthonormal) {
  // Energy (sum of squares) is preserved by one level.
  Rng R(3);
  std::vector<double> S;
  for (int I = 0; I < 64; ++I)
    S.push_back(R.nextGaussian());
  HaarLevel L = haarForward(S);
  double EIn = 0, EOut = 0;
  for (double X : S)
    EIn += X * X;
  for (double X : L.Approx)
    EOut += X * X;
  for (double X : L.Detail)
    EOut += X * X;
  EXPECT_NEAR(EIn, EOut, 1e-9);
}

TEST(Haar, ConstantSignalHasZeroDetail) {
  std::vector<double> S(32, 5.0);
  HaarLevel L = haarForward(S);
  for (double D : L.Detail)
    EXPECT_NEAR(D, 0.0, 1e-12);
}

TEST(Denoise, ZeroThresholdIsIdentity) {
  Rng R(7);
  std::vector<double> S;
  for (int I = 0; I < 40; ++I)
    S.push_back(R.nextDouble() * 10);
  std::vector<double> D = waveletDenoise(S, 3, 0.0);
  ASSERT_EQ(D.size(), S.size());
  for (size_t I = 0; I < S.size(); ++I)
    EXPECT_NEAR(D[I], S[I], 1e-9);
}

TEST(Denoise, SuppressesNoiseKeepsSteps) {
  // A two-level square wave with additive noise: after denoising, the
  // reconstruction should be closer to the clean wave than the noisy
  // input was.
  Rng R(11);
  std::vector<double> Clean, Noisy;
  for (int I = 0; I < 128; ++I) {
    double Base = (I / 32) % 2 ? 10.0 : 2.0;
    Clean.push_back(Base);
    Noisy.push_back(Base + R.nextGaussian() * 0.8);
  }
  std::vector<double> D = waveletDenoise(Noisy, 2, 1.0);
  double ErrNoisy = 0, ErrDenoised = 0;
  for (size_t I = 0; I < Clean.size(); ++I) {
    ErrNoisy += std::abs(Noisy[I] - Clean[I]);
    ErrDenoised += std::abs(D[I] - Clean[I]);
  }
  EXPECT_LT(ErrDenoised, ErrNoisy);
}

TEST(WaveletEdges, FindsTheStep) {
  std::vector<double> S;
  for (int I = 0; I < 64; ++I)
    S.push_back(I < 32 ? 1.0 : 9.0);
  std::vector<size_t> E = waveletEdges(S, 2.0);
  ASSERT_FALSE(E.empty());
  // The detected edge is at the step (pair starting at 30 or 32).
  for (size_t P : E) {
    EXPECT_GE(P, 28u);
    EXPECT_LE(P, 34u);
  }
}

TEST(WaveletEdges, FlatSignalHasNone) {
  std::vector<double> S(64, 3.0);
  EXPECT_TRUE(waveletEdges(S, 2.0).empty());
}

//===----------------------------------------------------------------------===//
// Shen-variant selection mechanics
//===----------------------------------------------------------------------===//

namespace {

ReuseProfile profileOf(const std::string &Name) {
  Workload W = WorkloadRegistry::create(Name);
  auto Bin = lower(*W.Program, LoweringOptions::O2());
  ReuseMarkerConfig RC;
  ReuseSignalCollector Col(RC.WindowInstrs);
  Interpreter(*Bin, W.Train).runFast(Col);
  return Col.takeProfile();
}

} // namespace

TEST(ShenVariant, FindsMarkersOnCyclicPrograms) {
  // The wavelet+Sequitur pipeline must handle at least some of the
  // locality-periodic suite.
  int Found = 0;
  for (const std::string &Name :
       {std::string("mesh"), std::string("mcf"), std::string("lucas"),
        std::string("mgrid")}) {
    ReuseProfile P = profileOf(Name);
    Found += !selectReuseMarkersShen(P, ReuseMarkerConfig()).empty();
  }
  EXPECT_GE(Found, 3);
}

TEST(ShenVariant, BailsOutOnStructurelessSignals) {
  // vortex's flat-but-jittery signal yields a degenerate label stream;
  // the grammar gate must reject it.
  ReuseProfile P = profileOf("vortex");
  EXPECT_TRUE(selectReuseMarkersShen(P, ReuseMarkerConfig()).empty());
}

TEST(ShenVariant, TinyProfilesAreSafe) {
  ReuseProfile P;
  P.Signal = {1.0, 2.0};
  EXPECT_TRUE(selectReuseMarkersShen(P, ReuseMarkerConfig()).empty());
}

TEST(ShenVariant, MarkersAreRealBlocks) {
  ReuseProfile P = profileOf("mesh");
  ReuseMarkerSet M = selectReuseMarkersShen(P, ReuseMarkerConfig());
  for (uint32_t B : M.Blocks)
    EXPECT_TRUE(P.BlockExecs.count(B)) << "marker on a never-executed block";
}
