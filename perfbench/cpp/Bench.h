//===- perfbench/cpp/Bench.h - End-to-end benchmark items -------*- C++ -*-===//
//
// Part of the SPM project: reproduction of "Selecting Software Phase Markers
// with Code Structure Analysis" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared types of the end-to-end benchmark. A workload is an ordered list
/// of items; an item is one unit of a paper experiment (one SimPoint
/// configuration of one program, one Fig. 10 bar, one spm_tool chain). Every
/// item calls the library's public drivers with their default arguments,
/// wraps each call in a benchmark-side span named "bench/<layer>.<call>",
/// checks its own output, and folds the output into a digest.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "callloop/Graph.h"
#include "ir/Binary.h"
#include "workloads/Workloads.h"

#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// 64-bit FNV-1a over the fields that define an item's output. Doubles
/// hash by bit pattern, so any numeric change shows.
class Digest {
public:
  void u64(uint64_t V) {
    for (int I = 0; I < 8; ++I) {
      H ^= (V >> (8 * I)) & 0xff;
      H *= 0x100000001b3ULL;
    }
  }
  void f64(double V) {
    uint64_t Bits = 0;
    std::memcpy(&Bits, &V, sizeof(Bits));
    u64(Bits);
  }
  void str(const std::string &S) {
    u64(S.size());
    for (unsigned char C : S) {
      H ^= C;
      H *= 0x100000001b3ULL;
    }
  }
  uint64_t value() const { return H; }

private:
  uint64_t H = 0xcbf29ce484222325ULL;
};

/// One program of a workload, set up before the first item (created,
/// lowered, loops recovered) and given seed-derived input data per pass.
struct Program {
  std::string Name;
  spm::Workload W;
  std::unique_ptr<spm::Binary> Bin;
  spm::LoopIndex Loops;
  /// Run lengths of both inputs of the current pass, from null-observer
  /// runs; the interval-sum checks compare against them.
  uint64_t TrainInstrs = 0;
  uint64_t RefInstrs = 0;
  /// Call-loop graphs produced by a reconfig workload's profiling item and
  /// consumed by the same program's later items.
  std::unique_ptr<spm::CallLoopGraph> GTrain, GRef;
};

/// Measurements the traced run makes after an item, with tracing off:
/// replays of the item's inputs that split a span's time between layers.
struct Extras {
  /// Summed per name across items (e.g. "vm.null_run_s").
  std::vector<std::pair<std::string, double>> Values;
  /// Self time to move from the layer of benchmark span Span to Layer.
  struct Move {
    std::string Span;
    std::string Layer;
    double Seconds;
  };
  std::vector<Move> Moves;

  void add(const std::string &Name, double V) { Values.push_back({Name, V}); }
};

/// What one item run produced.
struct ItemOut {
  uint64_t Digest = 0;
  /// Failed checks; empty when the item's output is correct.
  std::vector<std::string> Failures;
  /// Accuracy outputs: CPI relative errors (simpoint) and average adaptive
  /// cache sizes in KB (reconfig).
  std::vector<double> CpiErrors;
  std::vector<double> CacheKB;
  /// Work counts of this item, summed across traced items.
  std::vector<std::pair<std::string, double>> Counts;
  /// Traced-run replays; null when the item has none.
  std::function<void(Extras &)> Replay;

  void fail(const std::string &Why) { Failures.push_back(Why); }
  void count(const std::string &Name, double V) { Counts.push_back({Name, V}); }
};

struct Item {
  std::string Name; ///< "<program>/<kind>".
  std::function<ItemOut()> Run;
};

/// The workloads, by name.
const std::vector<std::string> &workloadNames();

/// Programs a workload runs, in item order.
std::vector<std::string> workloadPrograms(const std::string &Workload);

/// The data seed of \p Program's train (Which = 0) or ref (Which = 1)
/// input in pass \p Pass of a run with benchmark seed \p Seed. Each pass
/// of a run gets fresh input data, so a run's timings average over several
/// data draws rather than one.
uint64_t dataSeed(uint64_t Seed, const std::string &Program, int Which,
                  uint64_t Pass);

/// Set-up timings of one set-up repetition.
struct SetupTimes {
  double CreateS = 0, LowerS = 0, LoopIndexS = 0;
};

/// Creates, lowers and loop-indexes every program of a workload.
std::vector<std::unique_ptr<Program>>
setupPrograms(const std::vector<std::string> &Names, SetupTimes &T);

/// Gives every program pass \p Pass's input data, measures the new run
/// lengths with null-observer runs and drops graphs of the previous pass.
void preparePass(std::vector<std::unique_ptr<Program>> &Progs, uint64_t Seed,
                 uint64_t Pass);

/// The item list of \p Workload over \p Progs. \p Shards > 1 runs the
/// markers chain through the sharded drivers.
std::vector<Item> makeItems(const std::string &Workload,
                            std::vector<std::unique_ptr<Program>> &Progs,
                            unsigned Shards);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
