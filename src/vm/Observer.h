//===- vm/Observer.h - Execution instrumentation interface ------*- C++ -*-===//
//
// Part of the SPM project: reproduction of "Selecting Software Phase Markers
// with Code Structure Analysis" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ExecutionObserver is this project's ATOM: a binary-instrumentation event
/// stream. The paper's analyses consume exactly these events — basic block
/// executions with instruction counts, memory accesses, branches (with
/// direction), calls, and returns. Everything downstream (call-loop
/// profiling, BBV collection, cache simulation, marker firing) is an
/// observer; StaticMux fans one execution out to many of them so a single
/// simulated run feeds every analysis at once.
///
/// Dispatch is static: the interpreter calls each handler name-qualified on
/// the observer's concrete type, so calls bind without a vtable lookup and
/// handlers an observer never overrides (the inherited ExecutionObserver
/// no-ops) are detected via ObserverTraits and compiled away.
///
//===----------------------------------------------------------------------===//

#ifndef SPM_VM_OBSERVER_H
#define SPM_VM_OBSERVER_H

#include "ir/Binary.h"
#include "ir/Input.h"

#include <cstdint>
#include <tuple>
#include <type_traits>

namespace spm {

/// Receives instrumentation events from the interpreter. Handlers default
/// to no-ops so observers override only what they need.
class ExecutionObserver {
public:
  virtual ~ExecutionObserver();

  /// Execution is starting on \p B with input \p In.
  virtual void onRunStart(const Binary &B, const WorkloadInput &In) {
    (void)B;
    (void)In;
  }

  /// Block \p Blk is about to execute (all of its instructions retire, then
  /// its memory accesses and terminator events follow).
  virtual void onBlock(const LoweredBlock &Blk) { (void)Blk; }

  /// A data access to \p Addr (load when !IsStore).
  virtual void onMemAccess(uint64_t Addr, bool IsStore) {
    (void)Addr;
    (void)IsStore;
  }

  /// A run of \p Count accesses (one lowered MemAccessSpec's worth) with the
  /// given direction. The bulk form of onMemAccess: an observer that
  /// provides it receives each run in one call, otherwise the run is
  /// unrolled into per-access onMemAccess calls (see dispatchMemRun).
  virtual void onMemRun(const uint64_t *Addrs, uint32_t Count, bool IsStore) {
    for (uint32_t I = 0; I < Count; ++I)
      onMemAccess(Addrs[I], IsStore);
  }

  /// A branch at \p Pc targeting \p Target executed. \p Backward is true
  /// for non-interprocedural backward branches (the paper's loop signal).
  virtual void onBranch(uint64_t Pc, uint64_t Target, bool Taken,
                        bool Backward, bool Conditional) {
    (void)Pc;
    (void)Target;
    (void)Taken;
    (void)Backward;
    (void)Conditional;
  }

  /// Call from site \p SiteAddr to function \p Callee (entry block follows).
  virtual void onCall(uint64_t SiteAddr, uint32_t Callee) {
    (void)SiteAddr;
    (void)Callee;
  }

  /// Function \p Callee returned (its exit block was just executed).
  virtual void onReturn(uint32_t Callee) { (void)Callee; }

  /// Execution finished after \p TotalInstrs retired instructions.
  virtual void onRunEnd(uint64_t TotalInstrs) { (void)TotalInstrs; }
};

/// One executed branch.
struct BranchRecord {
  uint64_t Pc = 0;
  uint64_t Target = 0;
  bool Taken = false;
  bool Backward = false;
  bool Conditional = false;
};

/// One call event.
struct CallRecord {
  uint64_t SiteAddr = 0;
  uint32_t Callee = 0;
};

//===----------------------------------------------------------------------===//
// Static-dispatch traits and helpers
//===----------------------------------------------------------------------===//

/// Compile-time facts about a concrete observer type: which handlers it
/// provides *itself* (as opposed to inheriting the ExecutionObserver
/// no-ops). A handler inherited from ExecutionObserver has pointer-to-member
/// type `void (ExecutionObserver::*)(...)`, an overridden or own handler has
/// the derived class in that position — which is what lets the static
/// dispatch drop whole event kinds an observer ignores. Types that do not
/// derive from ExecutionObserver (StaticMux, custom sinks) simply provide
/// the handlers they want; missing ones count as "not handled".
template <class Obs> struct ObserverTraits {
  template <class M, class Base>
  static constexpr bool ownImpl =
      !std::is_same_v<M, Base>; // Derived-typed pointer => own handler.

  static constexpr bool OwnRunStart = requires {
    requires ownImpl<decltype(&Obs::onRunStart),
                     void (ExecutionObserver::*)(const Binary &,
                                                 const WorkloadInput &)>;
  };
  static constexpr bool OwnBlock = requires {
    requires ownImpl<decltype(&Obs::onBlock),
                     void (ExecutionObserver::*)(const LoweredBlock &)>;
  };
  static constexpr bool OwnMemAccess = requires {
    requires ownImpl<decltype(&Obs::onMemAccess),
                     void (ExecutionObserver::*)(uint64_t, bool)>;
  };
  static constexpr bool OwnMemRun = requires {
    requires ownImpl<decltype(&Obs::onMemRun),
                     void (ExecutionObserver::*)(const uint64_t *, uint32_t,
                                                 bool)>;
  };
  static constexpr bool OwnBranch = requires {
    requires ownImpl<decltype(&Obs::onBranch),
                     void (ExecutionObserver::*)(uint64_t, uint64_t, bool,
                                                 bool, bool)>;
  };
  static constexpr bool OwnCall = requires {
    requires ownImpl<decltype(&Obs::onCall),
                     void (ExecutionObserver::*)(uint64_t, uint32_t)>;
  };
  static constexpr bool OwnReturn = requires {
    requires ownImpl<decltype(&Obs::onReturn),
                     void (ExecutionObserver::*)(uint32_t)>;
  };
  static constexpr bool OwnRunEnd = requires {
    requires ownImpl<decltype(&Obs::onRunEnd),
                     void (ExecutionObserver::*)(uint64_t)>;
  };
};

// Statically-bound handler dispatch. The qualified call (O.Obs::handler)
// suppresses virtual dispatch, so \p Obs must be the most-derived type of
// the object — which it is for the concrete observers the run entry points
// name.

template <class Obs>
inline void dispatchRunStart(Obs &O, const Binary &B,
                             const WorkloadInput &In) {
  if constexpr (ObserverTraits<Obs>::OwnRunStart)
    O.Obs::onRunStart(B, In);
  else {
    (void)O;
    (void)B;
    (void)In;
  }
}

template <class Obs>
inline void dispatchBlock(Obs &O, const LoweredBlock &Blk) {
  if constexpr (ObserverTraits<Obs>::OwnBlock)
    O.Obs::onBlock(Blk);
  else {
    (void)O;
    (void)Blk;
  }
}

template <class Obs>
inline void dispatchMemRun(Obs &O, const uint64_t *Addrs, uint32_t Count,
                           bool IsStore) {
  if constexpr (ObserverTraits<Obs>::OwnMemRun)
    O.Obs::onMemRun(Addrs, Count, IsStore);
  else if constexpr (ObserverTraits<Obs>::OwnMemAccess)
    for (uint32_t I = 0; I < Count; ++I)
      O.Obs::onMemAccess(Addrs[I], IsStore);
  else {
    (void)O;
    (void)Addrs;
    (void)Count;
    (void)IsStore;
  }
}

template <class Obs>
inline void dispatchBranch(Obs &O, const BranchRecord &R) {
  if constexpr (ObserverTraits<Obs>::OwnBranch)
    O.Obs::onBranch(R.Pc, R.Target, R.Taken, R.Backward, R.Conditional);
  else {
    (void)O;
    (void)R;
  }
}

template <class Obs> inline void dispatchCall(Obs &O, const CallRecord &R) {
  if constexpr (ObserverTraits<Obs>::OwnCall)
    O.Obs::onCall(R.SiteAddr, R.Callee);
  else {
    (void)O;
    (void)R;
  }
}

template <class Obs> inline void dispatchReturn(Obs &O, uint32_t Callee) {
  if constexpr (ObserverTraits<Obs>::OwnReturn)
    O.Obs::onReturn(Callee);
  else {
    (void)O;
    (void)Callee;
  }
}

template <class Obs> inline void dispatchRunEnd(Obs &O, uint64_t Total) {
  if constexpr (ObserverTraits<Obs>::OwnRunEnd)
    O.Obs::onRunEnd(Total);
  else {
    (void)O;
    (void)Total;
  }
}

/// Whether \p Obs consumes memory-access events at all. StaticMux exposes
/// the aggregate over its members as AnyMem; plain observers are probed via
/// ObserverTraits. When false, the interpreter skips materializing
/// addresses (see Interpreter::skipAccesses).
template <class Obs> constexpr bool wantsMemEvents() {
  if constexpr (requires { Obs::AnyMem; })
    return Obs::AnyMem;
  else
    return ObserverTraits<Obs>::OwnMemRun || ObserverTraits<Obs>::OwnMemAccess;
}

/// A compile-time observer pipeline: forwards every event to each observer
/// in declaration order with statically-bound calls, so every observer sees
/// event N before any observer sees event N+1. Order matters: e.g. the
/// call-loop tracker must see a block before the interval builder accounts
/// it, so marker-driven cuts land between them. Usable directly as the sink
/// of every Interpreter run entry point.
template <class... Os> class StaticMux {
public:
  /// True when any member consumes memory accesses (see wantsMemEvents).
  static constexpr bool AnyMem =
      ((ObserverTraits<Os>::OwnMemRun || ObserverTraits<Os>::OwnMemAccess) ||
       ...);
  /// How many members consume memory accesses; decides whether mem runs
  /// can be fanned out run-at-a-time (<= 1) or must interleave per address
  /// to keep the per-event ordering contract above (>= 2).
  static constexpr int NumMem =
      (int{ObserverTraits<Os>::OwnMemRun || ObserverTraits<Os>::OwnMemAccess} +
       ... + 0);

  explicit StaticMux(Os &...O) : Obs(O...) {}

  void onRunStart(const Binary &B, const WorkloadInput &In) {
    std::apply([&](Os &...O) { (dispatchRunStart(O, B, In), ...); }, Obs);
  }
  void onBlock(const LoweredBlock &Blk) {
    std::apply([&](Os &...O) { (dispatchBlock(O, Blk), ...); }, Obs);
  }
  void onMemRun(const uint64_t *Addrs, uint32_t Count, bool IsStore) {
    if constexpr (NumMem >= 2) {
      // Two or more members consume memory events: fan out address by
      // address so every member sees access N before any member sees
      // access N+1. With a single consumer the orders are
      // indistinguishable, so the bulk form below keeps the run-level fast
      // path.
      for (uint32_t I = 0; I < Count; ++I)
        std::apply(
            [&](Os &...O) { (dispatchMemRun(O, Addrs + I, 1, IsStore), ...); },
            Obs);
    } else {
      std::apply(
          [&](Os &...O) { (dispatchMemRun(O, Addrs, Count, IsStore), ...); },
          Obs);
    }
  }
  void onMemAccess(uint64_t Addr, bool IsStore) {
    dispatchMemRun(*this, &Addr, 1, IsStore);
  }
  void onBranch(uint64_t Pc, uint64_t Target, bool Taken, bool Backward,
                bool Conditional) {
    BranchRecord R{Pc, Target, Taken, Backward, Conditional};
    std::apply([&](Os &...O) { (dispatchBranch(O, R), ...); }, Obs);
  }
  void onCall(uint64_t SiteAddr, uint32_t Callee) {
    CallRecord R{SiteAddr, Callee};
    std::apply([&](Os &...O) { (dispatchCall(O, R), ...); }, Obs);
  }
  void onReturn(uint32_t Callee) {
    std::apply([&](Os &...O) { (dispatchReturn(O, Callee), ...); }, Obs);
  }
  void onRunEnd(uint64_t Total) {
    std::apply([&](Os &...O) { (dispatchRunEnd(O, Total), ...); }, Obs);
  }

private:
  std::tuple<Os &...> Obs;
};

} // namespace spm

#endif // SPM_VM_OBSERVER_H
