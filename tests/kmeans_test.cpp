//===- tests/kmeans_test.cpp - pruned k-means vs the plain oracle ---------==//
//
// The library's k-means prunes distance evaluations with triangle-
// inequality bounds; its contract is that nothing else changes. Every test
// here compares it bit for bit with the plain k-means++ + Lloyd of
// tests/KMeansReference.h: assignments, centroids, distortion, BIC score
// and the k pickClustering chooses, on generated blobs, adversarial ties,
// degenerate inputs and the real projected BBVs of the Figs. 11/12 sweep.
//
//===----------------------------------------------------------------------===//

#include "../bench/BenchUtil.h"
#include "KMeansReference.h"
#include "simpoint/KMeans.h"
#include "simpoint/Projection.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <string>

using namespace spm;

namespace {

using Points = std::vector<std::vector<double>>;

struct Dataset {
  std::string Name;
  Points Pts;
  std::vector<double> W;
};

uint64_t bits(double X) { return std::bit_cast<uint64_t>(X); }

void expectSame(const KMeansResult &Got, const KMeansResult &Want,
                const std::string &What) {
  SCOPED_TRACE(What);
  ASSERT_EQ(Got.K, Want.K);
  ASSERT_EQ(Got.Assign, Want.Assign);
  ASSERT_EQ(Got.Centroids.size(), Want.Centroids.size());
  for (size_t C = 0; C < Want.Centroids.size(); ++C) {
    ASSERT_EQ(Got.Centroids[C].size(), Want.Centroids[C].size());
    for (size_t D = 0; D < Want.Centroids[C].size(); ++D)
      ASSERT_EQ(bits(Got.Centroids[C][D]), bits(Want.Centroids[C][D]))
          << "centroid " << C << " dim " << D;
  }
  ASSERT_EQ(bits(Got.Distortion), bits(Want.Distortion));
}

/// kmeansSingleRun against the reference Lloyd for every K in \p Ks, every
/// iteration cap in \p Caps and a few raw seeds.
void checkSingleRuns(const Dataset &S, const std::vector<uint32_t> &Ks,
                     const std::vector<int> &Caps) {
  for (uint32_t K : Ks)
    for (int Cap : Caps)
      for (uint64_t Seed : {1ull, 7ull, 0x9e3779b97f4a7c15ull}) {
        uint32_t KK = std::min<uint32_t>(K, S.Pts.size());
        Rng Rand(Seed);
        KMeansResult Want = ref::lloydOnce(S.Pts, S.W, KK, Rand, Cap);
        KMeansResult Got = kmeansSingleRun(S.Pts, S.W, K, Seed, Cap);
        expectSame(Got, Want,
                   S.Name + " single k=" + std::to_string(K) + " cap=" +
                       std::to_string(Cap) + " seed=" + std::to_string(Seed));
        if (::testing::Test::HasFatalFailure())
          return;
      }
}

/// The pickClustering sweep over k = 1..KMax: every kmeansCluster result,
/// its BIC score and the chosen k.
void checkSweep(const Dataset &S, uint32_t KMax, uint64_t Seed,
                int Restarts) {
  std::vector<uint32_t> Ks;
  for (uint32_t K = 1; K <= KMax && K <= S.Pts.size(); ++K)
    Ks.push_back(K);
  std::vector<KMeansResult> Want = ref::sweep(S.Pts, S.W, Ks, Seed, Restarts);
  for (size_t I = 0; I < Ks.size(); ++I) {
    std::string What = S.Name + " cluster k=" + std::to_string(Ks[I]);
    KMeansResult Got =
        kmeansCluster(S.Pts, S.W, Ks[I], Seed + Ks[I], Restarts);
    expectSame(Got, Want[I], What);
    if (::testing::Test::HasFatalFailure())
      return;
    ASSERT_EQ(bits(bicScore(S.Pts, S.W, Got)),
              bits(bicScore(S.Pts, S.W, Want[I])))
        << What;
  }
  size_t Pick = ref::pickIndex(S.Pts, S.W, Want);
  KMeansResult Got = pickClustering(S.Pts, S.W, Ks, Seed, 0.9, Restarts);
  EXPECT_EQ(Got.K, Want[Pick].K) << S.Name;
  expectSame(Got, Want[Pick], S.Name + " pick");
}

/// Gaussian blobs with centres spread uniformly in [0, 10]^Dim.
Dataset blobs(uint32_t NumBlobs, int PerBlob, size_t Dim, double Spread,
              uint64_t Seed) {
  Rng R(Seed);
  Dataset S;
  S.Name = "blobs" + std::to_string(NumBlobs) + "x" +
           std::to_string(PerBlob) + "d" + std::to_string(Dim);
  std::vector<std::vector<double>> Centres(NumBlobs,
                                           std::vector<double>(Dim));
  for (auto &C : Centres)
    for (double &X : C)
      X = 10.0 * R.nextDouble();
  // Interleave the blobs so cluster members are not contiguous.
  for (int I = 0; I < PerBlob; ++I)
    for (const auto &C : Centres) {
      std::vector<double> P(Dim);
      for (size_t D = 0; D < Dim; ++D)
        P[D] = C[D] + Spread * R.nextGaussian();
      S.Pts.push_back(std::move(P));
    }
  S.W.assign(S.Pts.size(), 1.0);
  return S;
}

/// An integer lattice: small-integer coordinates make squared distances
/// exact, so a point often sits at exactly equal distance from several
/// centres and only the lowest-index rule decides.
Dataset lattice(int Side) {
  Dataset S;
  S.Name = "lattice" + std::to_string(Side);
  for (int X = 0; X < Side; ++X)
    for (int Y = 0; Y < Side; ++Y)
      S.Pts.push_back({static_cast<double>(X), static_cast<double>(Y)});
  S.W.assign(S.Pts.size(), 1.0);
  return S;
}

/// Rings of points symmetric about the origin plus the origin itself:
/// every centre pair chosen from one ring leaves equidistant points.
Dataset symmetric() {
  Dataset S;
  S.Name = "symmetric";
  S.Pts.push_back({0.0, 0.0, 0.0});
  for (double R : {1.0, 2.0, 4.0})
    for (int Axis = 0; Axis < 3; ++Axis)
      for (double Sign : {-1.0, 1.0}) {
        std::vector<double> P(3, 0.0);
        P[Axis] = Sign * R;
        S.Pts.push_back(P);
        S.Pts.push_back(P); // Duplicate points too.
      }
  S.W.assign(S.Pts.size(), 1.0);
  return S;
}

/// Each blob point three times over.
Dataset duplicated() {
  Dataset Base = blobs(4, 20, 3, 0.3, 11);
  Dataset S;
  S.Name = "duplicated";
  for (const auto &P : Base.Pts)
    for (int Copy = 0; Copy < 3; ++Copy)
      S.Pts.push_back(P);
  S.W.assign(S.Pts.size(), 1.0);
  return S;
}

/// Three distinct points, five copies each: any k > 3 runs out of mass
/// during seeding and duplicates a centre (the Sum <= 0 branch).
Dataset fewDistinct() {
  Dataset S;
  S.Name = "fewDistinct";
  const double Base[3][2] = {{0.0, 0.0}, {1.0, 0.5}, {-2.0, 3.0}};
  for (int Copy = 0; Copy < 5; ++Copy)
    for (const auto &B : Base)
      S.Pts.push_back({B[0], B[1]});
  S.W.assign(S.Pts.size(), 1.0);
  return S;
}

/// Blobs weighted like marker VLIs: instruction counts from 1 to 1e7.
Dataset vliWeighted() {
  Dataset S = blobs(5, 40, 15, 0.8, 23);
  S.Name = "vliWeighted";
  Rng R(5);
  for (double &X : S.W)
    X = std::floor(std::pow(10.0, 7.0 * R.nextDouble()));
  S.W[0] = 1.0;
  S.W[1] = 1e7;
  return S;
}

} // namespace

//===----------------------------------------------------------------------===//
// Synthetic inputs
//===----------------------------------------------------------------------===//

TEST(KMeansExact, Blobs) {
  Dataset S = blobs(6, 60, 15, 0.7, 1);
  checkSingleRuns(S, {1, 2, 6, 11}, {1, 2, 100});
  checkSweep(S, 12, 42, 3);
}

TEST(KMeansExact, OverlappingBlobs) {
  // Heavy overlap keeps points near cluster borders for many iterations.
  Dataset S = blobs(8, 50, 4, 3.0, 2);
  checkSingleRuns(S, {3, 8, 20}, {1, 2, 100});
  checkSweep(S, 20, 7, 3);
}

TEST(KMeansExact, LatticeTies) {
  Dataset S = lattice(9);
  checkSingleRuns(S, {1, 2, 4, 9, 16}, {1, 2, 100});
  checkSweep(S, 16, 3, 5);
}

TEST(KMeansExact, SymmetricTiesAndDuplicates) {
  Dataset S = symmetric();
  checkSingleRuns(S, {1, 2, 3, 7, 12}, {1, 2, 100});
  checkSweep(S, 12, 5, 5);
  Dataset D = duplicated();
  checkSingleRuns(D, {2, 4, 9}, {1, 2, 100});
  checkSweep(D, 10, 9, 3);
}

TEST(KMeansExact, FewerDistinctPointsThanK) {
  Dataset S = fewDistinct();
  checkSingleRuns(S, {1, 3, 4, 8, 15, 40}, {1, 2, 100});
  checkSweep(S, 15, 13, 5);
}

TEST(KMeansExact, VliWeights) {
  Dataset S = vliWeighted();
  checkSingleRuns(S, {1, 5, 10}, {1, 2, 100});
  checkSweep(S, 10, 17, 5);
}

TEST(KMeansExact, SinglePoint) {
  Dataset S{"single", {{0.25, -1.0}}, {3.0}};
  checkSingleRuns(S, {1, 4}, {1, 2, 100});
  checkSweep(S, 3, 1, 2);
}

TEST(KMeansExact, IterationCountsAndPruning) {
#if !SPM_TRACE_ENABLED
  GTEST_SKIP() << "trace compiled out";
#else
  // simpoint.kmeans_iters counts the same iterations as the plain Lloyd,
  // the first one (whose assignment comes out of the seeding) included,
  // and simpoint.kmeans_dist_evals shows the pruning: on well-separated
  // blobs far fewer distances than the plain run's seeding, N*K per
  // iteration and the final distortion pass.
  Dataset S = blobs(10, 100, 15, 0.5, 3);
  const uint32_t K = 10;
  for (uint64_t Seed : {1ull, 2ull, 3ull}) {
    metrics().resetAll();
    spmTraceSetEnabled(true);
    KMeansResult Got = kmeansSingleRun(S.Pts, S.W, K, Seed);
    spmTraceSetEnabled(false);
    int Iters = 0;
    Rng Rand(Seed);
    KMeansResult Want = ref::lloydOnce(S.Pts, S.W, K, Rand, 100, &Iters);
    expectSame(Got, Want, "blobs iters seed " + std::to_string(Seed));
    RunningStat Hist = metrics().histogram("simpoint.kmeans_iters").snapshot();
    ASSERT_EQ(Hist.count(), 1u);
    EXPECT_EQ(Hist.sum(), Iters);
    EXPECT_EQ(metrics().counterValue("simpoint.restarts"), 1u);
    uint64_t Plain = S.Pts.size() * ((K - 1) + uint64_t(Iters) * K + 1);
    uint64_t Evals = metrics().counterValue("simpoint.kmeans_dist_evals");
    EXPECT_GT(Evals, 0u);
    EXPECT_LT(Evals, Plain / 2) << "pruning stopped working";
  }
  metrics().resetAll();
#endif
}

TEST(KMeansExact, MaxItersMustBePositive) {
  Dataset S = blobs(2, 5, 2, 0.1, 4);
  EXPECT_DEBUG_DEATH(kmeansSingleRun(S.Pts, S.W, 2, 1, /*MaxIters=*/0),
                     "at least one iteration");
}

//===----------------------------------------------------------------------===//
// Real projected BBVs of the Figs. 11/12 sweep
//===----------------------------------------------------------------------===//

class KMeansExactReal : public ::testing::TestWithParam<const char *> {};

TEST_P(KMeansExactReal, FixedAndVliIntervals) {
  // Exactly the inputs bench/SimPointSweep.h clusters: fixed-length SP_1k,
  // SP_10k and SP_100k with kmax 30/30/10 and 3 restarts, then the
  // length-weighted marker VLIs with kmax 10 and the default restarts.
  bench::Prepared P = bench::prepare(GetParam());
  SimPointConfig Cfg;
  const struct {
    uint64_t Len;
    uint32_t KMax;
  } Fixed[3] = {{1000, 30}, {10000, 30}, {100000, 10}};
  for (const auto &F : Fixed) {
    std::vector<IntervalRecord> Ivs =
        runFixedIntervals(*P.Bin, P.W.Ref, F.Len, /*CollectBbv=*/true);
    Dataset S;
    S.Name = std::string(GetParam()) + " SP_" + std::to_string(F.Len);
    S.Pts = projectIntervals(Ivs, Cfg.Dim, Cfg.Seed);
    S.W.assign(S.Pts.size(), 1.0);
    checkSweep(S, F.KMax, Cfg.Seed, 3);
    if (HasFatalFailure())
      return;
  }
  MarkerRun Vli =
      bench::markerRun(P, *P.GRef, bench::limitConfig(), /*CollectBbv=*/true);
  Dataset S;
  S.Name = std::string(GetParam()) + " VLI";
  S.Pts = projectIntervals(Vli.Intervals, Cfg.Dim, Cfg.Seed);
  for (const IntervalRecord &Iv : Vli.Intervals)
    S.W.push_back(static_cast<double>(Iv.NumInstrs));
  checkSweep(S, 10, Cfg.Seed, Cfg.Restarts);
}

INSTANTIATE_TEST_SUITE_P(BehaviorSuite, KMeansExactReal,
                         ::testing::Values("art", "gcc", "mcf", "vortex"));
