//===- perfbench/cpp/main.cpp - End-to-end benchmark runner ---------------===//
//
// Part of the SPM project: reproduction of "Selecting Software Phase Markers
// with Code Structure Analysis" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one workload closed-loop (one client, items back to back) and
/// writes the raw record of the run as JSON: set-up timings, every item's
/// latency, digest and failed checks, and in the traced run the work counts,
/// replay timings and registry counters that perfbench/run.py turns into
/// the per-layer metrics. Usage:
///
///   perfbench --workload NAME --seed N --passes P --seconds S --trace 0|1
///             --out DIR [--commit ID] [--source-digest HEX]
///
/// Untraced (--trace 0): items run in a fixed order, in exactly P whole
/// passes. Pass p runs on input data derived from the seed and p alone, so
/// every build given the same arguments does the same work on the same
/// inputs. The run digest covers the first pass.
///
/// Traced (--trace 1): every item runs twice, untraced and traced, the
/// order alternating between items, for S seconds (at least one item of
/// each kind); the outputs must be identical. Spans
/// stay in memory and go through the library's Chrome-trace and metrics
/// exporters to DIR/trace.json and DIR/metrics.jsonl at exit.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "support/Metrics.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <exception>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

using namespace spm;
using namespace perfbench;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// Timed set-up repetitions before every item. One set-up takes well under
/// a millisecond, so only a median over many samples, spread over the whole
/// run, is steady.
constexpr int SetupRepsPerItem = 2;

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  std::string Out;
  size_t Passes = 0; ///< Required for an untraced run.
  std::string Commit = "unknown";
  std::string SourceDigest = "unknown";
};

bool parseArgs(int Argc, char **Argv, Args &A) {
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      return false;
    std::string V = Argv[++I];
    if (Flag == "--workload")
      A.Workload = V;
    else if (Flag == "--seed")
      A.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (Flag == "--seconds")
      A.Seconds = std::atof(V.c_str());
    else if (Flag == "--trace")
      A.Trace = V == "1";
    else if (Flag == "--out")
      A.Out = V;
    else if (Flag == "--passes")
      A.Passes = static_cast<size_t>(std::max(0, std::atoi(V.c_str())));
    else if (Flag == "--commit")
      A.Commit = V;
    else if (Flag == "--source-digest")
      A.SourceDigest = V;
    else
      return false;
  }
  const std::vector<std::string> &W = workloadNames();
  return !A.Out.empty() && A.Seconds > 0 && (A.Trace || A.Passes > 0) &&
         std::find(W.begin(), W.end(), A.Workload) != W.end();
}

//===----------------------------------------------------------------------===//
// JSON output
//===----------------------------------------------------------------------===//

std::string quote(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  return Out + "\"";
}

std::string num(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string hex(uint64_t V) {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

std::string numList(const std::vector<double> &Vs) {
  std::string Out = "[";
  for (size_t I = 0; I < Vs.size(); ++I)
    Out += (I ? "," : "") + num(Vs[I]);
  return Out + "]";
}

std::string numMap(const std::map<std::string, double> &M) {
  std::string Out = "{";
  bool First = true;
  for (const auto &[K, V] : M) {
    Out += (First ? "" : ",") + quote(K) + ":" + num(V);
    First = false;
  }
  return Out + "}";
}

bool writeFile(const std::string &Path, const std::string &Text) {
  std::ofstream F(Path, std::ios::binary);
  F << Text;
  return static_cast<bool>(F);
}

//===----------------------------------------------------------------------===//
// Item execution
//===----------------------------------------------------------------------===//

/// One completed item run.
struct Record {
  size_t Index = 0;
  std::string Name;
  double LatencyS = 0.0;
  double TracedS = -1.0; ///< Traced twin's latency; -1 when untraced.
  uint64_t Digest = 0;
  std::vector<std::string> Failures;
};

struct Timed {
  ItemOut Out;
  double Seconds = 0.0;
};

/// Runs one item, turning an exception into a failed check.
Timed runItem(const Item &It) {
  Timed T;
  auto T0 = Clock::now();
  try {
    T.Out = It.Run();
  } catch (const std::exception &E) {
    T.Out = ItemOut();
    T.Out.fail(std::string("threw: ") + E.what());
  }
  T.Seconds = secondsSince(T0);
  return T;
}

/// CPUs this process may run on.
std::vector<int> allowedCpus() {
  std::vector<int> Cpus;
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    for (int C = 0; C < CPU_SETSIZE; ++C)
      if (CPU_ISSET(C, &Set))
        Cpus.push_back(C);
  return Cpus;
}

/// Moves the calling thread to \p Cpu.
void pinTo(int Cpu) {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  CPU_SET(Cpu, &Set);
  sched_setaffinity(0, sizeof(Set), &Set);
}

/// Registry counters the traced run reads; each is accumulated as a delta
/// around the traced item runs only.
const char *const RegistryCounters[] = {
    "vm.instrs_retired", "vm.mem_accesses",        "simpoint.restarts",
    "select.pass1_candidates", "intervals.cut",    "markers.fired",
    "shard.runs",        "shard.retries",          "pool.tasks_submitted"};

struct Run {
  std::vector<Record> Records;
  std::vector<uint64_t> FirstPass; ///< Pass-1 digest per item index.
  std::vector<bool> HaveFirst;
  std::vector<double> CpiErrors, CacheKB; ///< Over the first pass.
  std::map<std::string, double> Counts, ExtraValues, Registry;
  std::vector<std::string> Moves; ///< JSON objects.
  double ElapsedS = 0.0;
  size_t FullPasses = 0;
};

/// Keeps the first pass's digests and accuracy outputs, and checks the
/// sharded workload's items against the unsharded chain.
void recordItem(Run &R, Record &Rec, const ItemOut &Out,
                const std::vector<uint64_t> &Unsharded) {
  size_t I = Rec.Index;
  if (!R.HaveFirst[I]) {
    R.HaveFirst[I] = true;
    R.FirstPass[I] = Rec.Digest;
    R.CpiErrors.insert(R.CpiErrors.end(), Out.CpiErrors.begin(),
                       Out.CpiErrors.end());
    R.CacheKB.insert(R.CacheKB.end(), Out.CacheKB.begin(), Out.CacheKB.end());
  }
  if (!Unsharded.empty() && Unsharded[I] != Rec.Digest)
    Rec.Failures.push_back("sharded digest differs from unsharded");
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload "
                 "simpoint|reconfig|markers|markers_sharded --seed N "
                 "--passes P --seconds S --trace 0|1 --out DIR "
                 "[--commit ID] [--source-digest HEX]\n");
    return 2;
  }
  if (A.Trace && !traceCompiledIn()) {
    std::fprintf(stderr, "perfbench: --trace 1 needs an SPM_TRACE=ON build\n");
    return 2;
  }

  unsigned NProc = std::max(1u, std::thread::hardware_concurrency());
  unsigned Shards =
      A.Workload == "markers_sharded" ? std::min(4u, NProc) : 1u;
  // Jobs equal shards; the other workloads run at the library default of 1.
  setParallelJobs(1);
  // Interference from other tenants of a shared host differs per core and
  // shifts over seconds to minutes. A single-threaded run therefore moves
  // each item to another CPU every pass, so no run sits on one core. (Moving
  // once per pass instead left whole runs on slow cores: simpoint's spread
  // over ten seeds rose from 0.04-0.15 to 0.27-0.50.)
  std::vector<int> Cpus = allowedCpus();
  bool Rotate = Shards == 1 && Cpus.size() > 1;

  std::string Provenance =
      "{\"tool\":\"perfbench\",\"workload\":" + quote(A.Workload) +
      ",\"seed\":" + std::to_string(A.Seed) +
      ",\"nproc\":" + std::to_string(NProc) +
      ",\"jobs\":" + std::to_string(Shards) +
      ",\"shards\":" + std::to_string(Shards) +
      ",\"build_type\":" + quote(PERFBENCH_BUILD_TYPE) +
      ",\"spm_trace\":" + (SPM_TRACE_ENABLED ? "true" : "false") +
      ",\"spm_failpoints\":" + (SPM_FAILPOINTS_ENABLED ? "true" : "false") +
      ",\"traced\":" + (A.Trace ? "true" : "false") +
      ",\"cpu_rotation\":" + (Rotate ? "true" : "false") +
      ",\"commit\":" + quote(A.Commit) +
      ",\"source_digest\":" + quote(A.SourceDigest) + "}";

  // Set-up: create, lower and loop-index every program. setup_s samples
  // the same work on throwaway copies before every item.
  std::vector<std::string> Names = workloadPrograms(A.Workload);
  SetupTimes Untimed;
  std::vector<std::unique_ptr<Program>> Progs = setupPrograms(Names, Untimed);
  std::vector<double> SetupS, CreateS, LowerS, LoopIndexS;
  auto TimeSetups = [&] {
    for (int Rep = 0; Rep < SetupRepsPerItem; ++Rep) {
      SetupTimes T;
      auto T0 = Clock::now();
      std::vector<std::unique_ptr<Program>> Copy = setupPrograms(Names, T);
      SetupS.push_back(secondsSince(T0));
      CreateS.push_back(T.CreateS);
      LowerS.push_back(T.LowerS);
      LoopIndexS.push_back(T.LoopIndexS);
    }
  };
  preparePass(Progs, A.Seed, 0);

  std::vector<Item> Items = makeItems(A.Workload, Progs, Shards);
  size_t N = Items.size();
  // Items of the first program cover every item kind; a traced run runs at
  // least those.
  size_t FirstGroup = 0;
  while (FirstGroup < N &&
         Items[FirstGroup].Name.rfind(Progs[0]->Name + "/", 0) == 0)
    ++FirstGroup;

  // The sharded workload's reference: the same chain, unsharded, on the
  // same pass's inputs.
  std::vector<uint64_t> Unsharded;
  std::vector<double> UnshardedS;
  std::vector<Item> UnshardedItems;
  if (A.Workload == "markers_sharded")
    UnshardedItems = makeItems("markers", Progs, 1);
  auto NewPass = [&](uint64_t Pass) {
    if (Pass > 0)
      preparePass(Progs, A.Seed, Pass);
    Unsharded.clear();
    UnshardedS.clear();
    setParallelJobs(1);
    for (const Item &It : UnshardedItems) {
      Timed T = runItem(It);
      Unsharded.push_back(T.Out.Digest);
      UnshardedS.push_back(T.Seconds);
    }
    setParallelJobs(static_cast<int>(Shards));
  };

  Run R;
  R.FirstPass.assign(N, 0);
  R.HaveFirst.assign(N, false);
  std::deque<std::string> SpanNames; // Item span names outlive the export.
  std::vector<double> TracedUnsharded, TracedSharded;
  MetricHistogram &ItersHist = metrics().histogram("simpoint.kmeans_iters");
  if (A.Trace) {
    spmTraceSetEnabled(false);
    traceReset();
    metrics().resetAll();
  }

  auto T0 = Clock::now();
  for (size_t K = 0;; ++K) {
    size_t I = K % N;
    if (I == 0)
      NewPass(K / N);
    TimeSetups();
    if (Rotate)
      pinTo(Cpus[(I + K / N) % Cpus.size()]);
    const Item &It = Items[I];
    Record Rec;
    Rec.Index = I;
    Rec.Name = It.Name;
    ItemOut Out;
    if (!A.Trace) {
      Timed T = runItem(It);
      Rec.LatencyS = T.Seconds;
      Out = std::move(T.Out);
    } else {
      // Untraced and traced twins, alternating which runs first.
      Timed Plain, Traced;
      std::map<std::string, uint64_t> Before;
      auto TracedRun = [&] {
        for (const char *C : RegistryCounters)
          Before[C] = metrics().counterValue(C);
        SpanNames.push_back("item#" + std::to_string(K) + " " +
                            A.Workload + "/" + It.Name);
        spmTraceSetEnabled(true);
        {
          TraceSpan Span(SpanNames.back().c_str());
          Traced = runItem(It);
        }
        spmTraceSetEnabled(false);
        for (const char *C : RegistryCounters)
          R.Registry[C] += static_cast<double>(metrics().counterValue(C) -
                                               Before[C]);
      };
      if (K % 2 == 0) {
        Plain = runItem(It);
        TracedRun();
      } else {
        TracedRun();
        Plain = runItem(It);
      }
      Rec.LatencyS = Plain.Seconds;
      Rec.TracedS = Traced.Seconds;
      if (Plain.Out.Digest != Traced.Out.Digest)
        Rec.Failures.push_back("traced digest differs from untraced");
      if (!Unsharded.empty()) {
        TracedUnsharded.push_back(UnshardedS[I]);
        TracedSharded.push_back(Plain.Seconds);
      }
      Out = std::move(Traced.Out);
      for (const auto &[Name, V] : Out.Counts)
        R.Counts[Name] += V;
      if (Out.Replay) {
        Extras X;
        Out.Replay(X);
        for (const auto &[Name, V] : X.Values)
          R.ExtraValues[Name] += V;
        for (const Extras::Move &M : X.Moves)
          R.Moves.push_back("{\"item\":" + std::to_string(K) +
                            ",\"span\":" + quote(M.Span) +
                            ",\"layer\":" + quote(M.Layer) +
                            ",\"seconds\":" + num(M.Seconds) + "}");
      }
    }
    Rec.Digest = Out.Digest;
    Rec.Failures.insert(Rec.Failures.end(), Out.Failures.begin(),
                        Out.Failures.end());
    recordItem(R, Rec, Out, Unsharded);
    R.Records.push_back(std::move(Rec));
    if (I == N - 1)
      ++R.FullPasses;

    if (A.Trace) {
      // The traced run also stops before the span rings could fill.
      if ((K + 1 >= FirstGroup && secondsSince(T0) >= A.Seconds) ||
          traceEventCount() > (1u << 15))
        break;
    } else if (R.FullPasses == A.Passes) {
      break;
    }
  }
  R.ElapsedS = secondsSince(T0);

  // The run digest folds the first pass's item digests in item order.
  std::string RunDigest = "incomplete";
  if (R.FullPasses >= 1) {
    Digest D;
    for (uint64_t V : R.FirstPass)
      D.u64(V);
    RunDigest = hex(D.value());
  }

  struct rusage RU;
  getrusage(RUSAGE_SELF, &RU);

  std::ostringstream J;
  J << "{\"provenance\":" << Provenance
    << ",\"items_per_pass\":" << N << ",\"full_passes\":" << R.FullPasses
    << ",\"elapsed_s\":" << num(R.ElapsedS)
    << ",\"digest\":" << quote(RunDigest)
    << ",\"peak_rss_kb\":" << RU.ru_maxrss
    << ",\"setup_s\":" << numList(SetupS)
    << ",\"setup_create_s\":" << numList(CreateS)
    << ",\"setup_lower_s\":" << numList(LowerS)
    << ",\"setup_loop_index_s\":" << numList(LoopIndexS)
    << ",\"cpi_errors\":" << numList(R.CpiErrors)
    << ",\"cache_kb\":" << numList(R.CacheKB) << ",\"programs\":[";
  for (size_t I = 0; I < Progs.size(); ++I)
    J << (I ? "," : "") << "{\"name\":" << quote(Progs[I]->Name)
      << ",\"train_instrs\":" << Progs[I]->TrainInstrs
      << ",\"ref_instrs\":" << Progs[I]->RefInstrs << "}";
  J << "],\"items\":[";
  for (size_t I = 0; I < R.Records.size(); ++I) {
    const Record &Rec = R.Records[I];
    J << (I ? "," : "") << "{\"i\":" << Rec.Index
      << ",\"name\":" << quote(Rec.Name)
      << ",\"latency_s\":" << num(Rec.LatencyS)
      << ",\"traced_s\":" << num(Rec.TracedS)
      << ",\"digest\":" << quote(hex(Rec.Digest)) << ",\"failures\":[";
    for (size_t F = 0; F < Rec.Failures.size(); ++F)
      J << (F ? "," : "") << quote(Rec.Failures[F]);
    J << "]}";
  }
  J << "]";
  if (A.Trace) {
    traceSyncDropMetrics();
    J << ",\"counts\":" << numMap(R.Counts)
      << ",\"extras\":" << numMap(R.ExtraValues)
      << ",\"registry\":" << numMap(R.Registry)
      << ",\"kmeans_iters_p50\":" << num(ItersHist.percentile(0.5))
      << ",\"dropped_spans\":" << traceDroppedCount()
      << ",\"dropped_phase_events\":" << tracePhaseDroppedCount()
      << ",\"unsharded_s\":" << numList(TracedUnsharded)
      << ",\"sharded_s\":" << numList(TracedSharded) << ",\"moves\":[";
    for (size_t I = 0; I < R.Moves.size(); ++I)
      J << (I ? "," : "") << R.Moves[I];
    J << "]";
    std::string Jsonl = "{\"name\": \"spm.provenance\", \"type\": \"meta\", "
                        "\"provenance\": " +
                        Provenance + "}\n" + metrics().toJsonl();
    if (!writeFile(A.Out + "/trace.json", traceToChromeJson(Provenance)) ||
        !writeFile(A.Out + "/metrics.jsonl", Jsonl)) {
      std::fprintf(stderr, "perfbench: cannot write trace exports\n");
      return 1;
    }
  }
  J << "}\n";
  if (!writeFile(A.Out + "/result.json", J.str())) {
    std::fprintf(stderr, "perfbench: cannot write %s/result.json\n",
                 A.Out.c_str());
    return 1;
  }
  return 0;
}
