//===- tests/KMeansReference.h - plain k-means oracle -----------*- C++ -*-===//
//
// Part of the SPM project: reproduction of "Selecting Software Phase Markers
// with Code Structure Analysis" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The plain k-means++ + Lloyd clustering that src/simpoint/KMeans.cpp must
/// reproduce bit for bit: full in-order assignment scans over
/// vector-of-vector points, no pruning. seedPlusPlus and lloydOnce are the
/// library's former bodies verbatim, except that lloydOnce hands the
/// iteration count it used to record as a trace metric to \p ItersOut.
/// The drivers below are the serial form of kmeansCluster and
/// pickClustering. Test-only: the library keeps a single k-means path.
///
//===----------------------------------------------------------------------===//

#ifndef SPM_TESTS_KMEANSREFERENCE_H
#define SPM_TESTS_KMEANSREFERENCE_H

#include "simpoint/KMeans.h"

#include <limits>
#include <vector>

namespace spm {
namespace ref {

inline double sqDist(const std::vector<double> &A,
                     const std::vector<double> &B) {
  double S = 0.0;
  for (size_t I = 0; I < A.size(); ++I) {
    double D = A[I] - B[I];
    S += D * D;
  }
  return S;
}

/// k-means++ seeding over weighted points.
inline std::vector<std::vector<double>>
seedPlusPlus(const std::vector<std::vector<double>> &Pts,
             const std::vector<double> &W, uint32_t K, Rng &Rand) {
  std::vector<std::vector<double>> Centers;
  Centers.reserve(K);

  // First center: weighted-uniform draw.
  double TotalW = 0.0;
  for (double X : W)
    TotalW += X;
  double Pick = Rand.nextDouble() * TotalW;
  size_t First = 0;
  for (size_t I = 0; I < Pts.size(); ++I) {
    Pick -= W[I];
    if (Pick <= 0.0) {
      First = I;
      break;
    }
  }
  Centers.push_back(Pts[First]);

  std::vector<double> MinD(Pts.size(),
                           std::numeric_limits<double>::infinity());
  while (Centers.size() < K) {
    double Sum = 0.0;
    for (size_t I = 0; I < Pts.size(); ++I) {
      double D = sqDist(Pts[I], Centers.back());
      if (D < MinD[I])
        MinD[I] = D;
      Sum += MinD[I] * W[I];
    }
    if (Sum <= 0.0) {
      // All mass sits on existing centers; duplicate one.
      Centers.push_back(Centers.back());
      continue;
    }
    double Target = Rand.nextDouble() * Sum;
    size_t Chosen = Pts.size() - 1;
    for (size_t I = 0; I < Pts.size(); ++I) {
      Target -= MinD[I] * W[I];
      if (Target <= 0.0) {
        Chosen = I;
        break;
      }
    }
    Centers.push_back(Pts[Chosen]);
  }
  return Centers;
}

inline KMeansResult lloydOnce(const std::vector<std::vector<double>> &Pts,
                              const std::vector<double> &W, uint32_t K,
                              Rng &Rand, int MaxIters,
                              int *ItersOut = nullptr) {
  size_t N = Pts.size();
  size_t Dim = Pts[0].size();
  KMeansResult R;
  R.K = K;
  R.Centroids = seedPlusPlus(Pts, W, K, Rand);
  R.Assign.assign(N, -1);

  int ItersRun = 0;
  for (int Iter = 0; Iter < MaxIters; ++Iter) {
    ItersRun = Iter + 1;
    bool Changed = false;
    // Assignment step.
    for (size_t I = 0; I < N; ++I) {
      int32_t Best = 0;
      double BestD = std::numeric_limits<double>::infinity();
      for (uint32_t C = 0; C < K; ++C) {
        double D = sqDist(Pts[I], R.Centroids[C]);
        if (D < BestD) {
          BestD = D;
          Best = static_cast<int32_t>(C);
        }
      }
      if (R.Assign[I] != Best) {
        R.Assign[I] = Best;
        Changed = true;
      }
    }
    if (!Changed && Iter > 0)
      break;
    // Update step.
    std::vector<std::vector<double>> Sums(K,
                                          std::vector<double>(Dim, 0.0));
    std::vector<double> Mass(K, 0.0);
    for (size_t I = 0; I < N; ++I) {
      auto C = static_cast<uint32_t>(R.Assign[I]);
      Mass[C] += W[I];
      for (size_t D = 0; D < Dim; ++D)
        Sums[C][D] += W[I] * Pts[I][D];
    }
    for (uint32_t C = 0; C < K; ++C) {
      if (Mass[C] <= 0.0)
        continue; // Empty cluster keeps its centroid.
      for (size_t D = 0; D < Dim; ++D)
        R.Centroids[C][D] = Sums[C][D] / Mass[C];
    }
  }

  R.Distortion = 0.0;
  for (size_t I = 0; I < N; ++I)
    R.Distortion +=
        W[I] * sqDist(Pts[I], R.Centroids[static_cast<uint32_t>(R.Assign[I])]);
  if (ItersOut)
    *ItersOut = ItersRun;
  return R;
}


/// Serial kmeansCluster: the lowest-distortion restart, earliest on ties.
inline KMeansResult kmeansCluster(const std::vector<std::vector<double>> &Pts,
                                  const std::vector<double> &W, uint32_t K,
                                  uint64_t Seed, int Restarts = 5,
                                  int MaxIters = 100) {
  if (K > Pts.size())
    K = static_cast<uint32_t>(Pts.size());
  KMeansResult Best;
  Best.Distortion = std::numeric_limits<double>::infinity();
  for (int T = 0; T < Restarts; ++T) {
    Rng Rand(kmeansRestartSeed(Seed, T));
    KMeansResult R = lloydOnce(Pts, W, K, Rand, MaxIters);
    if (R.Distortion < Best.Distortion)
      Best = std::move(R);
  }
  return Best;
}

/// The clusterings pickClustering chooses among, one per k in \p Ks.
inline std::vector<KMeansResult>
sweep(const std::vector<std::vector<double>> &Pts,
      const std::vector<double> &W, const std::vector<uint32_t> &Ks,
      uint64_t Seed, int Restarts = 5) {
  std::vector<KMeansResult> Runs;
  for (uint32_t K : Ks)
    Runs.push_back(kmeansCluster(Pts, W, K, Seed + K, Restarts));
  return Runs;
}

/// pickClustering's BIC rule over the results of sweep(): the index of the
/// chosen clustering.
inline size_t pickIndex(const std::vector<std::vector<double>> &Pts,
                        const std::vector<double> &W,
                        const std::vector<KMeansResult> &Runs,
                        double BicThreshold = 0.9) {
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
      return I;
  return Runs.size() - 1;
}

} // namespace ref
} // namespace spm

#endif // SPM_TESTS_KMEANSREFERENCE_H
