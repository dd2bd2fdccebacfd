//===- simpoint/KMeans.cpp ------------------------------------------------==//
//
// Exactness contract: the clustering here is bit for bit the plain
// k-means++ + Lloyd (every point scans every centre in index order, strict
// < so ties go to the lowest index, sums accumulated point by point in
// index order); tests/kmeans_test.cpp checks it against a verbatim copy of
// that plain code. What changes is how many distances get computed:
//   - seeding draws exactly the same random numbers, skips a point's
//     distance to a new centre only when the triangle inequality proves it
//     is larger than the point's current minimum, and leaves behind the
//     first Lloyd assignment;
//   - later assignment steps keep Hamerly bounds per point (one upper bound
//     on the distance to the own centre, one lower bound on every other
//     centre). When the bounds, tightened by one exact distance, do not
//     prove the own centre strictly closest, an exact argmin decides; it
//     skips only centres provably farther than the own one;
//   - a cluster whose membership did not change keeps its centroid, which
//     is exactly what summing the same points in the same order gives.
// Every pruning test carries the relative slack below, so a rounding error
// in a distance or a bound can never flip a comparison the full scan makes.
// The contract assumes finite coordinates and weights.
//
//===----------------------------------------------------------------------===//

#include "simpoint/KMeans.h"

#include "support/Metrics.h"
#include "support/Parallel.h"
#include "support/Trace.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

using namespace spm;

namespace {

constexpr double Inf = std::numeric_limits<double>::infinity();

/// Relative slack on every pruning test. A bound is a square root of a
/// Dim-term sum of squares plus at most MaxIters drift updates; its
/// relative rounding error stays many orders of magnitude below this.
constexpr double Slack = 1e-9;

/// Squared Euclidean distance, summed in dimension order.
double sqDist(const double *A, const double *B, size_t Dim) {
  double S = 0.0;
  for (size_t I = 0; I < Dim; ++I) {
    double D = A[I] - B[I];
    S += D * D;
  }
  return S;
}

/// The points as one row-major N x Dim buffer.
struct FlatPoints {
  size_t N;
  size_t Dim;
  std::vector<double> X;

  explicit FlatPoints(const std::vector<std::vector<double>> &Pts)
      : N(Pts.size()), Dim(Pts[0].size()) {
    X.reserve(N * Dim);
    for (const std::vector<double> &P : Pts) {
      assert(P.size() == Dim && "points must share one dimension");
      X.insert(X.end(), P.begin(), P.end());
    }
  }
  const double *row(size_t I) const { return X.data() + I * Dim; }
};

/// k-means++ centres plus the first Lloyd assignment over them.
struct Seeding {
  std::vector<double> Centers; ///< K x Dim, row-major.
  std::vector<int32_t> Near;   ///< Nearest centre, lowest index on ties.
  std::vector<double> NearD;   ///< Squared distance to it.
  std::vector<double> OtherD;  ///< Squared lower bound on every other centre.
};

/// k-means++ seeding over weighted points. Draws exactly what plain
/// seeding draws; adds \p Evals for every distance it computes.
Seeding seedPlusPlus(const FlatPoints &P, const std::vector<double> &W,
                     uint32_t K, Rng &Rand, uint64_t &Evals) {
  const size_t N = P.N;
  const size_t Dim = P.Dim;
  Seeding S;
  S.Centers.resize(K * Dim);
  S.Near.assign(N, 0);
  S.NearD.assign(N, Inf);
  S.OtherD.assign(N, Inf);
  auto Center = [&](uint32_t C) { return S.Centers.data() + C * Dim; };

  // First center: weighted-uniform draw.
  double TotalW = 0.0;
  for (double X : W)
    TotalW += X;
  double Pick = Rand.nextDouble() * TotalW;
  size_t First = 0;
  for (size_t I = 0; I < N; ++I) {
    Pick -= W[I];
    if (Pick <= 0.0) {
      First = I;
      break;
    }
  }
  std::copy_n(P.row(First), Dim, Center(0));

  // Squared distance of each centre to the newest, and its square root.
  std::vector<double> CC(K), RootCC(K);
  std::vector<double> MinR(N); // sqrt(NearD), kept for the lower bounds.
  for (uint32_t New = 0;; ++New) {
    const double *NewC = Center(New);
    for (uint32_t B = 0; B < New; ++B) {
      CC[B] = sqDist(Center(B), NewC, Dim);
      RootCC[B] = std::sqrt(CC[B]);
    }
    Evals += New;

    double Sum = 0.0;
    for (size_t I = 0; I < N; ++I) {
      double &MinD = S.NearD[I];
      auto Near = static_cast<uint32_t>(S.Near[I]);
      if (New > 0 && CC[Near] * (1.0 - Slack) > 4.0 * MinD * (1.0 + Slack)) {
        // d(near, new) - r > r, so d(point, new) > r: neither the minimum
        // nor the sampling sum can change.
        double Lb = RootCC[Near] - MinR[I];
        S.OtherD[I] = std::min(S.OtherD[I], Lb * Lb);
      } else {
        double D = sqDist(P.row(I), NewC, Dim);
        ++Evals;
        if (D < MinD) {
          S.OtherD[I] = std::min(S.OtherD[I], MinD);
          MinD = D;
          MinR[I] = std::sqrt(D);
          S.Near[I] = static_cast<int32_t>(New);
        } else {
          S.OtherD[I] = std::min(S.OtherD[I], D);
        }
      }
      Sum += MinD * W[I];
    }
    if (New + 1 == K)
      break;

    if (Sum <= 0.0) {
      // All mass sits on existing centers; duplicate one.
      std::copy_n(NewC, Dim, Center(New + 1));
      continue;
    }
    double Target = Rand.nextDouble() * Sum;
    size_t Chosen = N - 1;
    for (size_t I = 0; I < N; ++I) {
      Target -= S.NearD[I] * W[I];
      if (Target <= 0.0) {
        Chosen = I;
        break;
      }
    }
    std::copy_n(P.row(Chosen), Dim, Center(New + 1));
  }
  return S;
}

/// The distances between the centres of one Lloyd iteration.
class CentreTable {
public:
  explicit CentreTable(uint32_t K)
      : K(K), CC(size_t(K) * K), Order(size_t(K) * (K - 1)), Half(K, Inf) {}

  void rebuild(const std::vector<double> &Cent, size_t Dim, uint64_t &Evals) {
    const uint32_t Others = K - 1;
    for (uint32_t A = 0; A < K; ++A)
      for (uint32_t B = 0; B < A; ++B)
        CC[A * K + B] = CC[B * K + A] =
            sqDist(Cent.data() + A * Dim, Cent.data() + B * Dim, Dim);
    Evals += K * Others / 2;
    for (uint32_t A = 0; A < K; ++A) {
      uint32_t *Row = Order.data() + A * Others;
      const double *ACC = cc(A);
      for (uint32_t B = 0, J = 0; B < K; ++B)
        if (B != A)
          Row[J++] = B;
      std::sort(Row, Row + Others, [&](uint32_t X, uint32_t Y) {
        return ACC[X] < ACC[Y] || (ACC[X] == ACC[Y] && X < Y);
      });
      if (Others > 0)
        Half[A] = 0.5 * std::sqrt(ACC[Row[0]]);
    }
  }

  /// Squared distances from centre \p A to every centre.
  const double *cc(uint32_t A) const { return CC.data() + A * K; }
  /// The other centres, nearest to \p A first (ties by index).
  const uint32_t *order(uint32_t A) const {
    return Order.data() + A * (K - 1);
  }
  /// Half the distance from \p A to its nearest other centre: a point
  /// closer than that to A is closer to A than to any other centre.
  double half(uint32_t A) const { return Half[A]; }

private:
  uint32_t K;
  std::vector<double> CC;
  std::vector<uint32_t> Order;
  std::vector<double> Half;
};

KMeansResult lloydOnce(const FlatPoints &P, const std::vector<double> &W,
                       uint32_t K, Rng &Rand, int MaxIters) {
  assert(MaxIters >= 1 && "Lloyd needs at least one iteration");
  const size_t N = P.N;
  const size_t Dim = P.Dim;
  uint64_t Evals = 0;
  Seeding S = seedPlusPlus(P, W, K, Rand, Evals);
  std::vector<double> &Cent = S.Centers;
  std::vector<int32_t> &Assign = S.Near;
  auto Center = [&](uint32_t C) { return Cent.data() + C * Dim; };

  // Hamerly bounds as plain distances: Upper >= d(point, own centre),
  // Lower <= d(point, every other centre).
  std::vector<double> &Upper = S.NearD;
  std::vector<double> &Lower = S.OtherD;
  for (size_t I = 0; I < N; ++I) {
    Upper[I] = std::sqrt(Upper[I]);
    Lower[I] = std::sqrt(Lower[I]);
  }
  CentreTable Table(K);
  auto Proven = [&](size_t I, uint32_t Own) {
    return Upper[I] * (1.0 + Slack) <
           std::max(Lower[I], Table.half(Own)) * (1.0 - Slack);
  };

  // Clusters whose membership changed since their centroid was computed;
  // the others would recompute to the very same bits.
  std::vector<char> Dirty(K, 1);
  std::vector<double> Sums(K * Dim), Mass(K), Drift(K);
  int ItersRun = 0;
  for (int Iter = 0; Iter < MaxIters; ++Iter) {
    ItersRun = Iter + 1;
    // Assignment step; the first one came out of the seeding.
    if (Iter > 0) {
      Table.rebuild(Cent, Dim, Evals);
      bool Changed = false;
      for (size_t I = 0; I < N; ++I) {
        auto Own = static_cast<uint32_t>(Assign[I]);
        if (Proven(I, Own))
          continue;
        const double *X = P.row(I);
        const double OwnD = sqDist(X, Center(Own), Dim);
        const double OwnR = std::sqrt(OwnD);
        ++Evals;
        Upper[I] = OwnR;
        if (Proven(I, Own))
          continue;
        // Exact argmin. Visit the other centres nearest-first to the own
        // one, up to the first that is provably farther from the point
        // than the own centre (d(own, c) > 2 d(point, own)): it and all
        // after it can neither be the minimum nor tie with it. The pick is
        // the smallest distance, lowest index on ties: what the in-order
        // strict < scan over every centre picks.
        const double *OwnCC = Table.cc(Own);
        const uint32_t *Near = Table.order(Own);
        const double Far = 4.0 * OwnD * (1.0 + Slack) / (1.0 - Slack);
        uint32_t Best = Own;
        double BestD = OwnD;
        double SecondD = Inf;
        double SkippedCC = Inf;
        for (uint32_t J = 0; J + 1 < K; ++J) {
          uint32_t C = Near[J];
          if (OwnCC[C] > Far) {
            SkippedCC = OwnCC[C];
            break;
          }
          double D = sqDist(X, Center(C), Dim);
          ++Evals;
          if (D < BestD || (D == BestD && C < Best)) {
            SecondD = std::min(SecondD, BestD);
            BestD = D;
            Best = C;
          } else {
            SecondD = std::min(SecondD, D);
          }
        }
        Upper[I] = std::sqrt(BestD);
        Lower[I] = std::min(std::sqrt(SecondD), std::sqrt(SkippedCC) - OwnR);
        if (Best != Own) {
          Assign[I] = static_cast<int32_t>(Best);
          Dirty[Own] = Dirty[Best] = 1;
          Changed = true;
        }
      }
      if (!Changed)
        break;
    }
    // Update step over the dirty clusters, summed point by point in index
    // order.
    for (uint32_t C = 0; C < K; ++C)
      if (Dirty[C]) {
        Mass[C] = 0.0;
        std::fill_n(Sums.data() + C * Dim, Dim, 0.0);
      }
    for (size_t I = 0; I < N; ++I) {
      auto C = static_cast<uint32_t>(Assign[I]);
      if (!Dirty[C])
        continue;
      Mass[C] += W[I];
      const double *X = P.row(I);
      double *Sum = Sums.data() + C * Dim;
      for (size_t D = 0; D < Dim; ++D)
        Sum[D] += W[I] * X[D];
    }
    // Each centre's move, inflated by the slack so the widened bounds stay
    // on the safe side of rounding.
    double Max1 = 0.0, Max2 = 0.0;
    uint32_t MaxC = 0;
    for (uint32_t C = 0; C < K; ++C) {
      Drift[C] = 0.0;
      if (!Dirty[C])
        continue;
      Dirty[C] = 0;
      if (Mass[C] <= 0.0)
        continue; // Empty cluster keeps its centroid.
      double *Sum = Sums.data() + C * Dim;
      for (size_t D = 0; D < Dim; ++D)
        Sum[D] /= Mass[C];
      Drift[C] = std::sqrt(sqDist(Sum, Center(C), Dim)) * (1.0 + Slack);
      ++Evals;
      std::copy_n(Sum, Dim, Center(C));
      if (Drift[C] > Max1) {
        Max2 = Max1;
        Max1 = Drift[C];
        MaxC = C;
      } else if (Drift[C] > Max2) {
        Max2 = Drift[C];
      }
    }
    if (Iter + 1 == MaxIters)
      break;
    for (size_t I = 0; I < N; ++I) {
      auto C = static_cast<uint32_t>(Assign[I]);
      Upper[I] += Drift[C];
      Lower[I] -= C == MaxC ? Max2 : Max1;
    }
  }

  KMeansResult R;
  R.K = K;
  R.Distortion = 0.0;
  for (size_t I = 0; I < N; ++I)
    R.Distortion += W[I] * sqDist(P.row(I),
                                  Center(static_cast<uint32_t>(Assign[I])),
                                  Dim);
  Evals += N;
  R.Assign = std::move(Assign);
  R.Centroids.reserve(K);
  for (uint32_t C = 0; C < K; ++C)
    R.Centroids.emplace_back(Center(C), Center(C) + Dim);

  if (spmTraceEnabled()) {
    MetricsRegistry &M = metrics();
    M.counter("simpoint.restarts").forceAdd(1);
    M.counter("simpoint.kmeans_dist_evals").forceAdd(Evals);
    M.histogram("simpoint.kmeans_iters").forceRecord(ItersRun);
    M.histogram("simpoint.kmeans_inertia").forceRecord(R.Distortion);
  }
  return R;
}

/// kmeansCluster over already-flattened points.
KMeansResult clusterFlat(const FlatPoints &P, const std::vector<double> &W,
                         uint32_t K, uint64_t Seed, int Restarts,
                         int MaxIters) {
  SPM_TRACE_SPAN("simpoint.kmeans");
  if (K > P.N)
    K = static_cast<uint32_t>(P.N);

  // Every restart's seed is derived by index before any work starts; no
  // restart ever touches a generator another restart reads. This is what
  // makes the parallel fan-out bit-identical to the serial loop.
  SplitMix64 SeedSeq(Seed);
  std::vector<uint64_t> Seeds(static_cast<size_t>(Restarts));
  for (uint64_t &S : Seeds)
    S = SeedSeq.next();

  std::vector<KMeansResult> Runs =
      parallelMap(Seeds.size(), [&](size_t T) {
        Rng Rand(Seeds[T]);
        return lloydOnce(P, W, K, Rand, MaxIters);
      });

  // Lowest distortion wins; strict < keeps the earliest restart on ties,
  // matching what the serial loop always did.
  KMeansResult Best;
  Best.Distortion = std::numeric_limits<double>::infinity();
  for (KMeansResult &R : Runs)
    if (R.Distortion < Best.Distortion)
      Best = std::move(R);
  return Best;
}

} // namespace

uint64_t spm::kmeansRestartSeed(uint64_t Seed, int Restart) {
  SplitMix64 SM(Seed);
  uint64_t S = SM.next();
  for (int I = 0; I < Restart; ++I)
    S = SM.next();
  return S;
}

KMeansResult
spm::kmeansSingleRun(const std::vector<std::vector<double>> &Pts,
                     const std::vector<double> &W, uint32_t K,
                     uint64_t RawSeed, int MaxIters) {
  assert(!Pts.empty() && "clustering requires points");
  assert(Pts.size() == W.size() && "one weight per point");
  assert(K >= 1 && "k must be positive");
  if (K > Pts.size())
    K = static_cast<uint32_t>(Pts.size());
  Rng Rand(RawSeed);
  return lloydOnce(FlatPoints(Pts), W, K, Rand, MaxIters);
}

KMeansResult spm::kmeansCluster(const std::vector<std::vector<double>> &Pts,
                                const std::vector<double> &W, uint32_t K,
                                uint64_t Seed, int Restarts, int MaxIters) {
  assert(!Pts.empty() && "clustering requires points");
  assert(Pts.size() == W.size() && "one weight per point");
  assert(K >= 1 && "k must be positive");
  return clusterFlat(FlatPoints(Pts), W, K, Seed, Restarts, MaxIters);
}

double spm::bicScore(const std::vector<std::vector<double>> &Pts,
                     const std::vector<double> &W, const KMeansResult &R) {
  size_t Dim = Pts[0].size();
  uint32_t K = R.K;

  double TotalMass = 0.0;
  std::vector<double> Mass(K, 0.0);
  for (size_t I = 0; I < Pts.size(); ++I) {
    Mass[static_cast<uint32_t>(R.Assign[I])] += W[I];
    TotalMass += W[I];
  }

  // Pooled spherical variance estimate.
  double Var = R.Distortion / (Dim * std::max(TotalMass - K, 1.0));
  if (Var <= 0.0)
    Var = 1e-12;

  double Llh = 0.0;
  for (uint32_t C = 0; C < K; ++C) {
    if (Mass[C] <= 0.0)
      continue;
    Llh += Mass[C] * std::log(Mass[C] / TotalMass) -
           Mass[C] * 0.5 * std::log(2.0 * M_PI * Var) * Dim -
           (Mass[C] - 1.0) * 0.5 * Dim;
  }
  double NumParams = K * (Dim + 1.0);
  return Llh - 0.5 * NumParams * std::log(TotalMass);
}

KMeansResult
spm::pickClustering(const std::vector<std::vector<double>> &Pts,
                    const std::vector<double> &W,
                    const std::vector<uint32_t> &Ks, uint64_t Seed,
                    double BicThreshold, int Restarts) {
  assert(!Ks.empty() && "no candidate cluster counts");
  assert(!Pts.empty() && "clustering requires points");
  assert(Pts.size() == W.size() && "one weight per point");
  // Each candidate k is an independent clustering with its own seed; fan
  // them out over one shared copy of the points. Restarts nested inside
  // each clustering then run inline on their worker (Parallel.h's nesting
  // rule).
  const FlatPoints P(Pts);
  std::vector<KMeansResult> Runs = parallelMap(Ks.size(), [&](size_t I) {
    assert(Ks[I] >= 1 && "k must be positive");
    return clusterFlat(P, W, Ks[I], Seed + Ks[I], Restarts, /*MaxIters=*/100);
  });
  std::vector<double> Bics(Runs.size());
  double MinBic = std::numeric_limits<double>::infinity();
  double MaxBic = -std::numeric_limits<double>::infinity();
  for (size_t I = 0; I < Runs.size(); ++I) {
    Bics[I] = bicScore(Pts, W, Runs[I]);
    MinBic = std::min(MinBic, Bics[I]);
    MaxBic = std::max(MaxBic, Bics[I]);
  }
  double Cut = MinBic + BicThreshold * (MaxBic - MinBic);
  for (size_t I = 0; I < Runs.size(); ++I)
    if (Bics[I] >= Cut)
      return Runs[I];
  return Runs.back();
}
