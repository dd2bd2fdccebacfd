//===- uarch/Cache.h - Set-associative data cache model ---------*- C++ -*-===//
//
// Part of the SPM project: reproduction of "Selecting Software Phase Markers
// with Code Structure Analysis" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The data-cache model used for DL1 miss rates and for the adaptive-cache
/// experiment of Sec. 6.1. That experiment fixes 64-byte blocks and 512
/// sets and reconfigures associativity from 1 to 8 ways (32KB to 256KB);
/// CacheConfig::reconfigSweep() enumerates exactly those configurations.
/// Replacement is true LRU. MultiCacheProbe simulates every configuration
/// of the sweep simultaneously on one address stream, which is how both the
/// exploration intervals of the adaptive scheme and the oracle policies
/// learn per-interval miss rates for all sizes. It is a single-pass LRU
/// stack (Mattson et al.'s inclusion property, as in the Cheetah simulator):
/// one recency stack per set, as deep as the widest configuration, with one
/// hit counter per stack depth. A hit at depth d is a hit for every
/// configuration with more than d ways, so one probe per access yields the
/// exact per-configuration stats eight separate LRU caches would. This
/// requires every configuration of the sweep to share the set count and
/// block size, as reconfigSweep() does.
///
/// The same stack also answers for the adaptive engine's served cache. The
/// modeled hardware is a way-masked cache, as in selective-ways adaptive
/// caches (Albonesi; Balasubramonian et al.): a shrink disables ways but
/// keeps each set's most recently used blocks, a grow re-enables ways with
/// empty frames, nothing is flushed. Under those rules a set's served
/// contents are always a prefix of its recency stack, so
/// MultiCacheProbe::access reports the set and depth of every access and
/// the served cache reduces to one fill count per set (see
/// adaptcache/AdaptiveCache.h).
///
//===----------------------------------------------------------------------===//

#ifndef SPM_UARCH_CACHE_H
#define SPM_UARCH_CACHE_H

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace spm {

/// Geometry of one cache configuration.
struct CacheConfig {
  uint32_t Sets = 512;
  uint32_t Assoc = 1;
  uint32_t BlockBytes = 64;

  uint64_t sizeBytes() const {
    return static_cast<uint64_t>(Sets) * Assoc * BlockBytes;
  }
  double sizeKB() const { return static_cast<double>(sizeBytes()) / 1024.0; }

  /// The paper's reconfiguration sweep: 512 sets x 64B, 1..8 ways.
  static std::vector<CacheConfig> reconfigSweep() {
    std::vector<CacheConfig> Sweep;
    for (uint32_t A = 1; A <= 8; ++A)
      Sweep.push_back({512, A, 64});
    return Sweep;
  }
};

/// Hit/miss counters of one cache (or one probed configuration).
struct CacheStats {
  uint64_t Accesses = 0;
  uint64_t Misses = 0;

  double missRate() const {
    return Accesses ? static_cast<double>(Misses) / Accesses : 0.0;
  }
  double hitRate() const { return 1.0 - missRate(); }

  CacheStats operator-(const CacheStats &O) const {
    return {Accesses - O.Accesses, Misses - O.Misses};
  }
  CacheStats &operator+=(const CacheStats &O) {
    Accesses += O.Accesses;
    Misses += O.Misses;
    return *this;
  }
};

/// Complete mutable state of a CacheModel (tags, LRU stamps, clock,
/// counters), exposed so checkpoints can snapshot and resume a simulation
/// bit-exactly. Cache contents are history-dependent, so sharded execution
/// cannot skip ahead without carrying this.
struct CacheModelState {
  CacheStats Stats;
  std::vector<uint64_t> Tags;
  std::vector<uint64_t> Stamps;
  uint64_t Clock = 0;
};

/// A single set-associative LRU cache.
class CacheModel {
public:
  explicit CacheModel(CacheConfig Cfg = CacheConfig()) { configure(Cfg); }

  /// Re-shapes the cache and invalidates all contents.
  void configure(CacheConfig NewCfg) {
    assert(NewCfg.Sets > 0 && NewCfg.Assoc > 0 && NewCfg.BlockBytes > 0 &&
           "degenerate cache configuration");
    assert((NewCfg.Sets & (NewCfg.Sets - 1)) == 0 &&
           "set count must be a power of two");
    assert((NewCfg.BlockBytes & (NewCfg.BlockBytes - 1)) == 0 &&
           "block size must be a power of two");
    Cfg = NewCfg;
    BlockShift = static_cast<uint32_t>(std::countr_zero(Cfg.BlockBytes));
    SetShift = static_cast<uint32_t>(std::countr_zero(Cfg.Sets));
    Tags.assign(static_cast<size_t>(Cfg.Sets) * Cfg.Assoc, ~0ull);
    Stamps.assign(Tags.size(), 0);
    Clock = 0;
  }

  /// Simulates one access; returns true on hit. Stores allocate like loads
  /// (write-allocate), matching the simple Cheetah-style model.
  bool access(uint64_t Addr) {
    ++Stats.Accesses;
    uint64_t Block = Addr >> BlockShift;
    uint32_t Set = static_cast<uint32_t>(Block & (Cfg.Sets - 1));
    uint64_t Tag = Block >> SetShift;
    uint64_t *SetTags = &Tags[static_cast<size_t>(Set) * Cfg.Assoc];
    uint64_t *SetStamps = &Stamps[static_cast<size_t>(Set) * Cfg.Assoc];
    ++Clock;

    uint32_t Victim = 0;
    uint64_t OldestStamp = ~0ull;
    for (uint32_t W = 0; W < Cfg.Assoc; ++W) {
      if (SetTags[W] == Tag) {
        SetStamps[W] = Clock;
        return true;
      }
      if (SetStamps[W] < OldestStamp) {
        OldestStamp = SetStamps[W];
        Victim = W;
      }
    }
    ++Stats.Misses;
    SetTags[Victim] = Tag;
    SetStamps[Victim] = Clock;
    return false;
  }

  const CacheConfig &config() const { return Cfg; }
  const CacheStats &stats() const { return Stats; }
  void resetStats() { Stats = CacheStats(); }

  CacheModelState saveState() const { return {Stats, Tags, Stamps, Clock}; }

  /// Restores a snapshot taken from a cache of the same geometry. Returns
  /// false (leaving the cache untouched) when the snapshot's table shape
  /// does not match the current configuration.
  bool restoreState(const CacheModelState &St) {
    if (St.Tags.size() != Tags.size() || St.Stamps.size() != Stamps.size())
      return false;
    Stats = St.Stats;
    Tags = St.Tags;
    Stamps = St.Stamps;
    Clock = St.Clock;
    return true;
  }

private:
  CacheConfig Cfg;
  uint32_t BlockShift = 0; ///< log2(BlockBytes).
  uint32_t SetShift = 0;   ///< log2(Sets).
  CacheStats Stats;
  std::vector<uint64_t> Tags;
  std::vector<uint64_t> Stamps;
  uint64_t Clock = 0;
};

/// Simulates a whole configuration sweep in one pass over an address
/// stream: a per-set LRU recency stack (most recent tag first) as deep as
/// the sweep's widest configuration, and a hit count per stack depth.
/// Every configuration must share Sets and BlockBytes.
class MultiCacheProbe {
public:
  /// Where one access found its block: the set, and the stack depth of the
  /// hit (0 = most recently used), or the full stack depth (the sweep's
  /// widest associativity) when no configuration held the block. The block
  /// is a hit for exactly the configurations with more than Depth ways.
  struct Hit {
    uint32_t Set;
    uint32_t Depth;
  };

  explicit MultiCacheProbe(const std::vector<CacheConfig> &Sweep) {
    assert(!Sweep.empty() && "empty cache sweep");
    const CacheConfig &First = Sweep.front();
    assert(First.Sets > 0 && (First.Sets & (First.Sets - 1)) == 0 &&
           "set count must be a power of two");
    assert(First.BlockBytes > 0 &&
           (First.BlockBytes & (First.BlockBytes - 1)) == 0 &&
           "block size must be a power of two");
    // A tag is the address shifted right by at least one bit, so it never
    // equals the ~0ull empty-slot sentinel.
    assert((First.Sets > 1 || First.BlockBytes > 1) &&
           "degenerate cache sweep");
    for (const CacheConfig &C : Sweep) {
      assert(C.Sets == First.Sets && C.BlockBytes == First.BlockBytes &&
             "a single-pass sweep varies associativity only");
      assert(C.Assoc > 0 && "degenerate associativity");
      Assocs.push_back(C.Assoc);
      Depth = std::max(Depth, C.Assoc);
    }
    BlockShift = static_cast<uint32_t>(std::countr_zero(First.BlockBytes));
    SetShift = static_cast<uint32_t>(std::countr_zero(First.Sets));
    SetMask = First.Sets - 1;
    Stack.assign(static_cast<size_t>(First.Sets) * Depth, ~0ull);
    HitsAt.assign(Depth, 0);
  }

  Hit access(uint64_t Addr) {
    ++Accesses;
    uint64_t Block = Addr >> BlockShift;
    uint64_t Tag = Block >> SetShift;
    auto Set = static_cast<uint32_t>(Block & SetMask);
    uint64_t *S = &Stack[static_cast<size_t>(Set) * Depth];
    uint32_t D = 0;
    while (D < Depth && S[D] != Tag)
      ++D;
    Hit H{Set, D};
    if (D < Depth)
      ++HitsAt[D];
    else
      D = Depth - 1; // Miss everywhere: the deepest (LRU) tag falls off.
    for (; D > 0; --D)
      S[D] = S[D - 1];
    S[0] = Tag;
    return H;
  }

  size_t size() const { return Assocs.size(); }
  /// Set count shared by every configuration.
  uint32_t sets() const { return static_cast<uint32_t>(SetMask + 1); }

  /// Writes all per-configuration stats, in sweep order, into \p Out
  /// (resized to size(); no allocation once it has that capacity).
  void statsInto(std::vector<CacheStats> &Out) const {
    Out.resize(Assocs.size());
    for (size_t I = 0; I < Assocs.size(); ++I) {
      uint64_t Hits = 0;
      for (uint32_t D = 0; D < Assocs[I]; ++D)
        Hits += HitsAt[D];
      Out[I] = {Accesses, Accesses - Hits};
    }
  }

  /// Snapshot of all per-configuration stats, in sweep order.
  std::vector<CacheStats> statsSnapshot() const {
    std::vector<CacheStats> Out;
    statsInto(Out);
    return Out;
  }

private:
  std::vector<uint32_t> Assocs; ///< Per configuration, in sweep order.
  uint32_t Depth = 0;           ///< Widest associativity of the sweep.
  uint32_t BlockShift = 0;
  uint32_t SetShift = 0;
  uint64_t SetMask = 0;
  std::vector<uint64_t> Stack;  ///< Sets x Depth tags, MRU first.
  std::vector<uint64_t> HitsAt; ///< Hits found at each stack depth.
  uint64_t Accesses = 0;
};

} // namespace spm

#endif // SPM_UARCH_CACHE_H
