// Unit tests for the util library: RNG determinism and distributions, the
// parallel loop helpers, the exec worker pool, CLI parsing, table rendering,
// and the CSV cache.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace cu = charter::util;

TEST(Rng, SameSeedSameStream) {
  cu::Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  cu::Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  cu::Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  cu::Rng rng(11);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIntCoversRangeWithoutBias) {
  cu::Rng rng(13);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.uniform_int(10)];
  for (int c : counts) EXPECT_NEAR(c, n / 10, n / 10 * 0.15);
}

TEST(Rng, NormalMomentsMatch) {
  cu::Rng rng(17);
  double sum = 0.0, sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, NormalWithParamsScales) {
  cu::Rng rng(19);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.normal(3.0, 0.5);
  EXPECT_NEAR(sum / n, 3.0, 0.02);
}

TEST(Rng, BernoulliFrequency) {
  cu::Rng rng(23);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(hits / static_cast<double>(n), 0.3, 0.01);
}

TEST(Rng, SplitStreamsIndependentAndDeterministic) {
  cu::Rng parent(99);
  cu::Rng c1 = parent.split(0);
  cu::Rng c2 = parent.split(1);
  cu::Rng c1_again = parent.split(0);
  EXPECT_EQ(c1.next_u64(), c1_again.next_u64());
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 32; ++i) {
    seen.insert(c1.next_u64());
    seen.insert(c2.next_u64());
  }
  EXPECT_GT(seen.size(), 60u);  // no collisions expected
}

TEST(Parallel, ForCoversAllIndices) {
  std::vector<int> hits(10000, 0);
  cu::parallel_for(10000, [&](std::int64_t i) { hits[i] += 1; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

namespace {

/// parallel_sum_chunked's range function for sum_i f(i), in index order.
template <typename F>
auto range_sum_of(F f) {
  return [f](std::int64_t b, std::int64_t e) {
    double s = 0.0;
    for (std::int64_t i = b; i < e; ++i) s += f(i);
    return s;
  };
}

}  // namespace

TEST(Parallel, ChunkedSumIsTheChunkOrderedSerialSum) {
  const std::int64_t n = 100000;
  const auto term = [](std::int64_t i) {
    return 1.0 / ((i + 1.0) * (i + 1.0));
  };
  const double got = cu::parallel_sum_chunked(n, range_sum_of(term));
  double want = 0.0;
  for (std::int64_t b = 0; b < n; b += cu::kChunkedSumLen)
    want += range_sum_of(term)(b, std::min(n, b + cu::kChunkedSumLen));
  EXPECT_EQ(got, want);  // the same association off and on the pool
  double on_worker = 0.0;
  cu::ThreadPool(1).run(1, [&](std::int64_t, int) {
    on_worker = cu::parallel_sum_chunked(n, range_sum_of(term));
  });
  EXPECT_EQ(on_worker, want);
}

TEST(Parallel, SmallChunkedSumStaysCorrect) {
  const double total = cu::parallel_sum_chunked(
      3, range_sum_of([](std::int64_t i) { return i * 1.0; }));
  EXPECT_DOUBLE_EQ(total, 3.0);
}

TEST(Parallel, CallerTakesTheFirstBlock) {
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id first_block;
  cu::parallel_for(4 * cu::kParallelMinLength, [&](std::int64_t i) {
    if (i == 0) first_block = std::this_thread::get_id();
  });
  EXPECT_EQ(first_block, caller);
  EXPECT_FALSE(cu::in_pool_worker());  // the caller's mark is lifted again
}

TEST(Parallel, ConcurrentCallersBothGetCorrectResults) {
  // Two threads split loops at once; whichever finds the process pool busy
  // runs its loop serially, and both see every index written once.
  constexpr std::int64_t n = std::int64_t{1} << 15;
  std::vector<std::int64_t> a(n), b(n);
  const auto fill = [n](std::vector<std::int64_t>& v, std::int64_t k) {
    for (std::int64_t round = 0; round < 200; ++round)
      cu::parallel_for(n, [&](std::int64_t i) { v[i] = k * i + round; });
  };
  std::thread ta(fill, std::ref(a), 3);
  std::thread tb(fill, std::ref(b), 5);
  ta.join();
  tb.join();
  for (std::int64_t i = 0; i < n; ++i) {
    ASSERT_EQ(a[i], 3 * i + 199) << i;
    ASSERT_EQ(b[i], 5 * i + 199) << i;
  }
}

TEST(Parallel, BusyPoolRunsTheLoopSeriallyOnTheCaller) {
  cu::ThreadPool* pool = cu::process_pool();
  if (pool == nullptr) GTEST_SKIP() << "one hardware thread: no pool";
  std::atomic<bool> holding{false}, release{false};
  std::thread holder([&] {
    pool->try_split(1, [&](std::int64_t, std::int64_t) {
      holding = true;
      while (!release) std::this_thread::yield();
    });
  });
  while (!holding) std::this_thread::yield();
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> hits(4 * cu::kParallelMinLength, 0);
  std::atomic<int> elsewhere{0};
  cu::parallel_for(static_cast<std::int64_t>(hits.size()),
                   [&](std::int64_t i) {
                     ++hits[static_cast<std::size_t>(i)];
                     if (std::this_thread::get_id() != caller) ++elsewhere;
                   });
  release = true;
  holder.join();
  EXPECT_EQ(elsewhere.load(), 0);
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(Cli, ParsesTypedFlags) {
  cu::Cli cli("test");
  cli.add_flag("name", std::string("qft"), "algo name");
  cli.add_flag("shots", std::int64_t{100}, "shot count");
  cli.add_flag("scale", 1.5, "scale factor");
  cli.add_flag("full", false, "full mode");
  const char* argv[] = {"prog", "--name=adder", "--shots", "32000",
                        "--scale=2.5", "--full"};
  ASSERT_TRUE(cli.parse(6, argv));
  EXPECT_EQ(cli.get_string("name"), "adder");
  EXPECT_EQ(cli.get_int("shots"), 32000);
  EXPECT_DOUBLE_EQ(cli.get_double("scale"), 2.5);
  EXPECT_TRUE(cli.get_bool("full"));
}

TEST(Cli, DefaultsSurviveParse) {
  cu::Cli cli("test");
  cli.add_flag("shots", std::int64_t{4096}, "shot count");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_EQ(cli.get_int("shots"), 4096);
}

TEST(Cli, UnknownFlagThrows) {
  cu::Cli cli("test");
  const char* argv[] = {"prog", "--nope=1"};
  EXPECT_THROW(cli.parse(2, argv), charter::InvalidArgument);
}

TEST(Cli, MalformedIntThrows) {
  cu::Cli cli("test");
  cli.add_flag("shots", std::int64_t{1}, "shots");
  const char* argv[] = {"prog", "--shots=abc"};
  EXPECT_THROW(cli.parse(2, argv), charter::InvalidArgument);
}

TEST(Cli, BenchmarkFlagsPassThrough) {
  cu::Cli cli("test");
  const char* argv[] = {"prog", "--benchmark_filter=all"};
  EXPECT_TRUE(cli.parse(2, argv));
}

TEST(Table, RendersAlignedColumns) {
  cu::Table t("Caption");
  t.set_header({"Algorithm", "Corr."});
  t.add_row({"QFT (3)", "0.99"});
  t.add_row({"Adder (4)", "0.98"});
  const std::string out = t.render();
  EXPECT_NE(out.find("Caption"), std::string::npos);
  EXPECT_NE(out.find("Algorithm"), std::string::npos);
  EXPECT_NE(out.find("QFT (3)   | 0.99"), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  cu::Table t;
  t.set_header({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), charter::InvalidArgument);
}

TEST(Table, FormatHelpers) {
  EXPECT_EQ(cu::Table::fmt(0.4567, 2), "0.46");
  EXPECT_EQ(cu::Table::fmt_percent(0.42), "42%");
  EXPECT_EQ(cu::Table::fmt_pvalue(0.26), "0.26");
  const std::string p = cu::Table::fmt_pvalue(3.78e-24);
  EXPECT_NE(p.find("e-24"), std::string::npos);
}

TEST(Table, PValueMantissaRoundingCarriesIntoTheExponent) {
  EXPECT_EQ(cu::Table::fmt_pvalue(9.996e-5), "1.00e-4");
  EXPECT_EQ(cu::Table::fmt_pvalue(0.009996), "1.00e-2");
  EXPECT_EQ(cu::Table::fmt_pvalue(1.234e-7), "1.23e-7");
}

TEST(Csv, RoundTrips) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "charter_csv_test.csv")
          .string();
  cu::write_csv(path, {"algo", "tvd"}, {{"qft", "0.25"}, {"adder", "0.5"}});
  const cu::CsvDocument doc = cu::read_csv(path);
  ASSERT_EQ(doc.header.size(), 2u);
  ASSERT_EQ(doc.rows.size(), 2u);
  EXPECT_EQ(doc.rows[1][doc.column("algo")], "adder");
  EXPECT_EQ(doc.rows[0][doc.column("tvd")], "0.25");
  std::filesystem::remove(path);
}

TEST(Csv, MissingFileThrowsNotFound) {
  EXPECT_THROW(cu::read_csv("/nonexistent/charter.csv"), charter::NotFound);
}

TEST(Csv, MissingColumnThrows) {
  cu::CsvDocument doc;
  doc.header = {"a"};
  EXPECT_THROW(doc.column("b"), charter::NotFound);
}

TEST(Timer, MeasuresElapsedTime) {
  cu::Timer t;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + std::sqrt(i * 1.0);
  EXPECT_GE(t.seconds(), 0.0);
  t.reset();
  EXPECT_LT(t.seconds(), 1.0);
}

TEST(Error, RequireThrowsWithMessage) {
  try {
    charter::require(false, "broken precondition");
    FAIL() << "expected throw";
  } catch (const charter::InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("broken"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------------

TEST(ThreadPool, RunsEveryTaskExactlyOnce) {
  for (const int workers : {1, 2, 8}) {
    cu::ThreadPool pool(workers);
    EXPECT_EQ(pool.num_workers(), workers);
    std::vector<std::atomic<int>> hits(257);
    for (auto& h : hits) h = 0;
    pool.run(257, [&](std::int64_t i, int worker) {
      ASSERT_GE(worker, 0);
      ASSERT_LT(worker, workers);
      ++hits[static_cast<std::size_t>(i)];
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, ReusableAcrossRuns) {
  cu::ThreadPool pool(4);
  for (int round = 0; round < 20; ++round) {
    std::atomic<std::int64_t> sum{0};
    pool.run(round, [&](std::int64_t i, int) { sum += i; });
    EXPECT_EQ(sum.load(), round * (round - 1) / 2);
  }
}

TEST(ThreadPool, MarksWorkersAndForcesNestedHelpersSerial) {
  EXPECT_FALSE(cu::in_pool_worker());
  cu::ThreadPool pool(3);
  std::atomic<int> on_worker{0};
  pool.run(8, [&](std::int64_t, int) {
    if (cu::in_pool_worker()) ++on_worker;
  });
  EXPECT_EQ(on_worker.load(), 8);
  EXPECT_FALSE(cu::in_pool_worker());  // only the workers are marked
}

TEST(ThreadPool, NestedRunFallsBackToInlineSerial) {
  cu::ThreadPool pool(2);
  std::atomic<int> inner_total{0};
  pool.run(3, [&](std::int64_t, int) {
    // From a task body the pool is busy; a nested run() must not deadlock.
    pool.run(5, [&](std::int64_t, int worker) {
      EXPECT_EQ(worker, 0);
      ++inner_total;
    });
  });
  EXPECT_EQ(inner_total.load(), 15);
}

TEST(ThreadPool, FirstExceptionPropagatesAfterDrain) {
  cu::ThreadPool pool(4);
  std::atomic<int> completed{0};
  try {
    pool.run(64, [&](std::int64_t i, int) {
      if (i == 13) throw std::runtime_error("task 13 failed");
      ++completed;
    });
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("task 13"), std::string::npos);
  }
  EXPECT_EQ(completed.load(), 63);  // the batch drains; one task threw
  // The pool survives a failed batch.
  std::atomic<int> after{0};
  pool.run(4, [&](std::int64_t, int) { ++after; });
  EXPECT_EQ(after.load(), 4);
}

TEST(ThreadPool, SplitsAndRunsInterleaveOnOnePool) {
  // Split regions of every size around the block count, alternating with
  // run() regions, so workers keep meeting both kinds of region.
  cu::ThreadPool pool(3);
  std::vector<int> hits(64, 0);
  for (int round = 0; round < 2000; ++round) {
    const std::int64_t n = 1 + round % 9;
    std::atomic<int> calls{0};
    ASSERT_TRUE(pool.try_split(n, [&](std::int64_t b, std::int64_t e) {
      ++calls;
      for (std::int64_t i = b; i < e; ++i) ++hits[static_cast<std::size_t>(i)];
    }));
    EXPECT_EQ(calls.load(), std::min<std::int64_t>(n, 4));
    if (round % 3 == 0) {
      std::atomic<std::int64_t> sum{0};
      pool.run(5, [&](std::int64_t i, int) { sum += i; });
      EXPECT_EQ(sum.load(), 10);
    }
    for (std::int64_t i = 0; i < 64; ++i)
      ASSERT_EQ(hits[static_cast<std::size_t>(i)], i < n ? 1 : 0)
          << "round " << round << " index " << i;
    std::fill(hits.begin(), hits.end(), 0);
  }
}

TEST(ThreadPool, SplitRethrowsAWorkerBlockFailure) {
  cu::ThreadPool pool(3);
  EXPECT_THROW(pool.try_split(4,
                              [](std::int64_t b, std::int64_t) {
                                if (b == 3) throw std::runtime_error("block");
                              }),
               std::runtime_error);
  std::atomic<int> calls{0};
  EXPECT_TRUE(pool.try_split(4, [&](std::int64_t, std::int64_t) { ++calls; }));
  EXPECT_EQ(calls.load(), 4);
}

TEST(ThreadPool, ResolveThreadsHonorsExplicitAndAuto) {
  EXPECT_EQ(cu::resolve_threads(1), 1);
  EXPECT_EQ(cu::resolve_threads(7), 7);
  EXPECT_GE(cu::resolve_threads(0), 1);  // auto: at least one worker
}
