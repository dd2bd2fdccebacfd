//===- tests/mempattern_test.cpp - address generator semantics ------------==//

#include "ir/Builder.h"
#include "ir/Lowering.h"
#include "vm/Interpreter.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

using namespace spm;

namespace {

/// Runs one single-site access pattern for \p Iters iterations and returns
/// the generated addresses in order.
std::vector<uint64_t> generate(MemAccessSpec Spec, uint64_t RegionBytes,
                               uint64_t Iters, uint64_t Seed = 1) {
  ProgramBuilder PB("p");
  PB.region(MemRegionSpec::fixed("r", RegionBytes));
  uint32_t Main = PB.declare("main");
  PB.define(Main, [&](FunctionBuilder &F) {
    F.loop(TripCountSpec::constant(Iters), [&] { F.code(1, 0, {Spec}); });
  });
  auto P = PB.take();
  auto B = lower(*P, LoweringOptions::O2());

  struct Collect : ExecutionObserver {
    std::vector<uint64_t> Addrs;
    void onMemAccess(uint64_t A, bool) override { Addrs.push_back(A); }
  } C;
  Interpreter Interp(*B, WorkloadInput("t", Seed));
  Interp.runFast(C);
  return C.Addrs;
}

MemAccessSpec spec(MemAccessSpec::Pattern P) {
  MemAccessSpec M;
  M.RegionIdx = 0;
  M.Pat = P;
  return M;
}

} // namespace

TEST(MemPattern, SequentialAdvancesByStride) {
  MemAccessSpec M = spec(MemAccessSpec::Pattern::Sequential);
  M.Stride = 16;
  auto A = generate(M, 4096, 10);
  ASSERT_EQ(A.size(), 10u);
  for (size_t I = 1; I < A.size(); ++I)
    EXPECT_EQ(A[I] - A[I - 1], 16u);
}

TEST(MemPattern, SequentialWrapsAtWorkingSet) {
  MemAccessSpec M = spec(MemAccessSpec::Pattern::Sequential);
  M.Stride = 64;
  auto A = generate(M, 256, 10); // Region rounds up to 256 bytes.
  ASSERT_EQ(A.size(), 10u);
  uint64_t Base = A[0];
  for (size_t I = 0; I < A.size(); ++I)
    EXPECT_EQ(A[I], Base + (I * 64) % 256);
}

TEST(MemPattern, WorkingSetFractionRestrictsRange) {
  MemAccessSpec M = spec(MemAccessSpec::Pattern::Random);
  M.WorkingSetFrac256 = 64; // Leading quarter of the region.
  auto A = generate(M, 64 * 1024, 5000);
  uint64_t Base = *std::min_element(A.begin(), A.end());
  for (uint64_t X : A)
    EXPECT_LT(X - Base, 16u * 1024) << "outside the quarter working set";
}

TEST(MemPattern, RandomCoversTheWorkingSet) {
  MemAccessSpec M = spec(MemAccessSpec::Pattern::Random);
  auto A = generate(M, 4096, 5000);
  std::set<uint64_t> Distinct(A.begin(), A.end());
  // 512 aligned slots; 5000 draws should hit nearly all of them.
  EXPECT_GT(Distinct.size(), 400u);
  for (uint64_t X : A)
    EXPECT_EQ(X % 8, 0u) << "random accesses are 8-byte aligned";
}

TEST(MemPattern, PointIsConstant) {
  MemAccessSpec M = spec(MemAccessSpec::Pattern::Point);
  M.Offset = 128;
  auto A = generate(M, 4096, 100);
  for (uint64_t X : A)
    EXPECT_EQ(X, A[0]);
}

TEST(MemPattern, PointOffsetWrapsRegion) {
  MemAccessSpec M = spec(MemAccessSpec::Pattern::Point);
  M.Offset = 5000; // Beyond the 4096-byte region.
  auto A = generate(M, 4096, 3);
  // The region base is 4096-aligned, so the offset survives modulo.
  EXPECT_EQ(A[0] % 4096, 5000u % 4096);
  for (uint64_t X : A)
    EXPECT_EQ(X, A[0]);
}

TEST(MemPattern, ChaseIsDeterministicPerSeed) {
  MemAccessSpec M = spec(MemAccessSpec::Pattern::Chase);
  auto A = generate(M, 4096, 200, 7);
  auto B = generate(M, 4096, 200, 7);
  auto C = generate(M, 4096, 200, 8);
  EXPECT_EQ(A, B);
  EXPECT_NE(A, C);
}

TEST(MemPattern, ChaseWandersTheWorkingSet) {
  MemAccessSpec M = spec(MemAccessSpec::Pattern::Chase);
  auto A = generate(M, 4096, 2000);
  std::set<uint64_t> Distinct(A.begin(), A.end());
  EXPECT_GT(Distinct.size(), 200u);
}

TEST(MemPattern, CountEmitsMultipleAccessesPerExecution) {
  MemAccessSpec M = spec(MemAccessSpec::Pattern::Sequential);
  M.Count = 3;
  auto A = generate(M, 4096, 10);
  EXPECT_EQ(A.size(), 30u);
}

TEST(MemPattern, SeparateSitesHaveIndependentCursors) {
  ProgramBuilder PB("p");
  uint32_t R = PB.region(MemRegionSpec::fixed("r", 4096));
  uint32_t Main = PB.declare("main");
  PB.define(Main, [&](FunctionBuilder &F) {
    F.loop(TripCountSpec::constant(5), [&] {
      MemAccessSpec A;
      A.RegionIdx = R;
      A.Pat = MemAccessSpec::Pattern::Sequential;
      A.Stride = 8;
      MemAccessSpec B = A;
      B.Stride = 128;
      F.code(1, 0, {A});
      F.code(1, 0, {B});
    });
  });
  auto P = PB.take();
  auto Bin = lower(*P, LoweringOptions::O2());
  struct Collect : ExecutionObserver {
    std::vector<uint64_t> Addrs;
    void onMemAccess(uint64_t A, bool) override { Addrs.push_back(A); }
  } C;
  Interpreter(*Bin, WorkloadInput("t", 1)).runFast(C);
  ASSERT_EQ(C.Addrs.size(), 10u);
  // Site A advances by 8, site B by 128, interleaved.
  EXPECT_EQ(C.Addrs[2] - C.Addrs[0], 8u);
  EXPECT_EQ(C.Addrs[3] - C.Addrs[1], 128u);
}
