#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "lbmf/ws/algorithms.hpp"

namespace lbmf::ws {
namespace {

using P = AsymmetricSignalFence;

class WsAlgorithms : public ::testing::Test {
 protected:
  Scheduler<P> sched{3};
};

TEST_F(WsAlgorithms, ParallelForCoversEveryIndexOnce) {
  constexpr std::size_t kN = 10'000;
  std::vector<int> hits(kN, 0);
  sched.run([&] {
    parallel_for<P>(0, kN, 64, [&](std::size_t i) { hits[i]++; });
  });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i], 1) << i;
  }
}

TEST_F(WsAlgorithms, ParallelForEmptyAndTinyRanges) {
  int count = 0;
  sched.run([&] {
    parallel_for<P>(5, 5, 8, [&](std::size_t) { ++count; });   // empty
    parallel_for<P>(7, 8, 8, [&](std::size_t) { ++count; });   // one element
    parallel_for<P>(0, 3, 100, [&](std::size_t) { ++count; }); // below grain
  });
  EXPECT_EQ(count, 4);
}

TEST_F(WsAlgorithms, ParallelReduceSumsExactly) {
  constexpr std::size_t kN = 65'536;
  long total = 0;
  sched.run([&] {
    total = parallel_reduce<P, long>(
        0, kN, 128, 0L, [](std::size_t i) { return static_cast<long>(i); },
        [](long a, long b) { return a + b; });
  });
  EXPECT_EQ(total, static_cast<long>(kN) * (kN - 1) / 2);
}

TEST_F(WsAlgorithms, ParallelReduceRespectsAssociativeOrder) {
  // String concatenation is associative but not commutative: the result
  // must equal the sequential left-to-right fold.
  constexpr std::size_t kN = 200;
  std::string result;
  sched.run([&] {
    result = parallel_reduce<P, std::string>(
        0, kN, 16, std::string{},
        [](std::size_t i) { return std::to_string(i % 10); },
        [](std::string a, std::string b) { return a + b; });
  });
  std::string expected;
  for (std::size_t i = 0; i < kN; ++i) expected += std::to_string(i % 10);
  EXPECT_EQ(result, expected);
}

TEST_F(WsAlgorithms, ParallelInvokeTwoAndThreeWay) {
  int a = 0, b = 0, c = 0;
  sched.run([&] {
    parallel_invoke<P>([&] { a = 1; }, [&] { b = 2; });
    parallel_invoke<P>([&] { a += 10; }, [&] { b += 10; }, [&] { c = 3; });
  });
  EXPECT_EQ(a, 11);
  EXPECT_EQ(b, 12);
  EXPECT_EQ(c, 3);
}

TEST_F(WsAlgorithms, ParallelTransformWritesAllSlots) {
  constexpr std::size_t kN = 4096;
  std::vector<double> out(kN, -1.0);
  sched.run([&] {
    parallel_transform<P>(0, kN, 64, out.data(),
                          [](std::size_t i) { return i * 0.5; });
  });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_DOUBLE_EQ(out[i], i * 0.5) << i;
  }
}

TEST_F(WsAlgorithms, NestedParallelForInsideReduce) {
  // 2D traversal: reduce over rows, each row processed by a nested
  // parallel_for. Exercises nested task groups through the algorithms API.
  // Chunks of one row run on different workers, so each writes only its
  // own cells; the row is summed after parallel_for returns, whose sync()
  // orders those writes before the reads.
  constexpr std::size_t kRows = 64, kCols = 64;
  std::vector<long> cells(kRows * kCols, 0);
  long total = 0;
  sched.run([&] {
    total = parallel_reduce<P, long>(
        0, kRows, 4, 0L,
        [&](std::size_t r) {
          long* row = cells.data() + r * kCols;
          parallel_for<P>(0, kCols, 16, [row](std::size_t c) {
            row[c] = static_cast<long>(c);
          });
          return std::accumulate(row, row + kCols, 0L);
        },
        [](long a, long b) { return a + b; });
  });
  EXPECT_EQ(total, static_cast<long>(kRows) * (kCols * (kCols - 1) / 2));
}

TEST(WsAlgorithmsPolicies, SameResultsUnderSymmetricPolicy) {
  Scheduler<SymmetricFence> sched(2);
  long total = 0;
  sched.run([&] {
    total = parallel_reduce<SymmetricFence, long>(
        0, 1000, 16, 0L, [](std::size_t i) { return static_cast<long>(i); },
        [](long a, long b) { return a + b; });
  });
  EXPECT_EQ(total, 499500);
}

}  // namespace
}  // namespace lbmf::ws
