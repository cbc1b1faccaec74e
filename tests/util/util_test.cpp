#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/parallel.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

namespace surfnet::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (a() == b()) ++equal;
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, BelowIsUnbiasedEnough) {
  Rng rng(11);
  int counts[5] = {0};
  for (int i = 0; i < 50000; ++i) ++counts[rng.below(5)];
  for (int c : counts) EXPECT_NEAR(c / 50000.0, 0.2, 0.01);
}

TEST(Rng, BetweenIsInclusive) {
  Rng rng(13);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const auto x = rng.between(3, 6);
    ASSERT_GE(x, 3);
    ASSERT_LE(x, 6);
    saw_lo |= (x == 3);
    saw_hi |= (x == 6);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, BernoulliRate) {
  Rng rng(17);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.01);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng rng(19);
  Rng child = rng.fork();
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (rng() == child()) ++equal;
  EXPECT_LT(equal, 3);
}

TEST(RunningStat, MeanAndVariance) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStat, EmptyIsSafe) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.ci95(), 0.0);
}

TEST(Proportion, ValueAndInterval) {
  Proportion p;
  p.add_many(30, 100);
  EXPECT_DOUBLE_EQ(p.value(), 0.3);
  EXPECT_GT(p.ci95(), 0.0);
  EXPECT_LT(p.ci95(), 0.15);
}

TEST(CrossingPoint, FindsLinearCrossing) {
  const double xs[] = {0.0, 1.0, 2.0, 3.0};
  const double ya[] = {0.0, 1.0, 2.0, 3.0};
  const double yb[] = {3.0, 2.0, 1.0, 0.0};
  EXPECT_NEAR(crossing_point(xs, ya, yb, 4), 1.5, 1e-12);
}

TEST(CrossingPoint, NanWhenNoCrossing) {
  const double xs[] = {0.0, 1.0};
  const double ya[] = {0.0, 1.0};
  const double yb[] = {2.0, 3.0};
  EXPECT_TRUE(std::isnan(crossing_point(xs, ya, yb, 2)));
}

TEST(Table, AlignedOutput) {
  Table t({"a", "bb"});
  t.add_row({"1", "2"});
  t.add_row({"333", "4"});
  std::ostringstream os;
  t.print(os);
  const auto text = os.str();
  EXPECT_NE(text.find("a"), std::string::npos);
  EXPECT_NE(text.find("333"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, CsvOutput) {
  Table t({"x", "y"});
  t.add_row({"1", "2"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "x,y\n1,2\n");
}

TEST(Table, RowArityEnforced) {
  Table t({"x", "y"});
  EXPECT_THROW(t.add_row({"1"}), std::invalid_argument);
}

TEST(Table, Formatting) {
  EXPECT_EQ(Table::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(Table::pct(0.0725, 2), "7.25%");
}

TEST(ResolveThreads, ZeroAndNegativeMeanHardwareConcurrency) {
  EXPECT_GE(resolve_threads(0), 1);
  EXPECT_GE(resolve_threads(-3), 1);
  EXPECT_EQ(resolve_threads(1), 1);
  EXPECT_EQ(resolve_threads(6), 6);
}

TEST(ParallelFor, RunsEveryItemOnceOnAtMostOneWorkerPerItem) {
  for (const std::int64_t count : {0, 1, 5, 257, 5000}) {
    for (const int threads : {1, 3, 8}) {
      for (const std::int64_t size : {1, 7, 64}) {
        const int workers = pool_workers(count, threads);
        EXPECT_EQ(workers, std::clamp<std::int64_t>(count, 1, threads));
        std::vector<std::atomic<int>> hits(static_cast<std::size_t>(count));
        std::atomic<bool> chunks_in_range{true};
        parallel_for(count, threads, size,
                     [&](int worker, std::int64_t begin, std::int64_t end) {
                       if (worker < 0 || worker >= workers ||
                           begin % size != 0 ||
                           end != std::min(begin + size, count))
                         chunks_in_range = false;
                       for (std::int64_t i = begin; i < end; ++i)
                         ++hits[static_cast<std::size_t>(i)];
                     });
        EXPECT_TRUE(chunks_in_range);
        for (const auto& h : hits)
          ASSERT_EQ(h.load(), 1) << "count=" << count
                                 << " threads=" << threads
                                 << " size=" << size;
      }
    }
  }
  EXPECT_THROW(parallel_for(5, 1, 0, [](int, std::int64_t, std::int64_t) {}),
               std::invalid_argument);
}

TEST(ParallelFor, RethrowsAnItemsExceptionAndStopsEveryWorker) {
  // A throwing trial reaches the caller at any thread count instead of
  // ending the program from a worker thread, and no worker takes a new
  // chunk after it: the other items take 1 ms each, so a pool that kept
  // handing out chunks would run most of the 1000.
  constexpr std::int64_t kCount = 1000;
  for (const int threads : {1, 4}) {
    std::atomic<int> ran{0};
    EXPECT_THROW(parallel_for(kCount, threads, 8,
                              [&](int, std::int64_t begin, std::int64_t end) {
                                for (std::int64_t i = begin; i < end; ++i) {
                                  ++ran;
                                  if (i == 3) throw std::invalid_argument("3");
                                  std::this_thread::sleep_for(
                                      std::chrono::milliseconds(1));
                                }
                              }),
                 std::invalid_argument)
        << "threads=" << threads;
    EXPECT_GE(ran.load(), 4);
    EXPECT_LT(ran.load(), kCount / 2) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace surfnet::util
