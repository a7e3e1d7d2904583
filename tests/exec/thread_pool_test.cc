// The execution substrate's contracts: thread-count resolution (explicit >
// SSR_THREADS > hardware), exactly-once ParallelFor coverage under any
// grain, collective RunOnAllWorkers, and per-job CPU accounting (JobStats).

#include "exec/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <numeric>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace ssr {
namespace exec {
namespace {

// setenv/unsetenv scoped guard so a failing assertion cannot leak
// SSR_THREADS into later tests.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) saved_ = old;
    had_value_ = old != nullptr;
    ::setenv(name, value, /*overwrite=*/1);
  }
  ~ScopedEnv() {
    if (had_value_) {
      ::setenv(name_, saved_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::string saved_;
  bool had_value_ = false;
};

TEST(ResolveThreadCountTest, ExplicitCountWins) {
  ScopedEnv env("SSR_THREADS", "7");
  EXPECT_EQ(ResolveThreadCount(1), 1u);
  EXPECT_EQ(ResolveThreadCount(3), 3u);
}

TEST(ResolveThreadCountTest, ZeroConsultsEnvironment) {
  ScopedEnv env("SSR_THREADS", "5");
  EXPECT_EQ(ResolveThreadCount(0), 5u);
}

TEST(ResolveThreadCountTest, BadEnvFallsBackToHardware) {
  const std::size_t hw = std::thread::hardware_concurrency() == 0
                             ? 1
                             : std::thread::hardware_concurrency();
  {
    ScopedEnv env("SSR_THREADS", "not-a-number");
    EXPECT_EQ(ResolveThreadCount(0), hw);
  }
  {
    ScopedEnv env("SSR_THREADS", "0");
    EXPECT_EQ(ResolveThreadCount(0), hw);
  }
  {
    ScopedEnv env("SSR_THREADS", "-4");
    EXPECT_EQ(ResolveThreadCount(0), hw);
  }
}

TEST(ResolveThreadCountTest, NeverReturnsZero) {
  ::unsetenv("SSR_THREADS");
  EXPECT_GE(ResolveThreadCount(0), 1u);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  for (std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    ThreadPool pool(workers);
    ASSERT_EQ(pool.size(), workers);
    for (std::size_t grain : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                              std::size_t{1000}}) {
      constexpr std::size_t kN = 517;  // deliberately not a grain multiple
      std::vector<std::atomic<int>> touched(kN);
      pool.ParallelFor(0, kN, grain, [&](std::size_t i, std::size_t worker) {
        ASSERT_LT(worker, workers);
        touched[i].fetch_add(1, std::memory_order_relaxed);
      });
      for (std::size_t i = 0; i < kN; ++i) {
        EXPECT_EQ(touched[i].load(), 1)
            << "index " << i << " workers=" << workers << " grain=" << grain;
      }
    }
  }
}

TEST(ThreadPoolTest, ParallelForHonorsNonzeroBegin) {
  ThreadPool pool(3);
  std::atomic<std::size_t> count{0};
  std::atomic<std::uint64_t> sum{0};
  pool.ParallelFor(100, 200, 1, [&](std::size_t i, std::size_t) {
    count.fetch_add(1, std::memory_order_relaxed);
    sum.fetch_add(i, std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(), 100u);
  EXPECT_EQ(sum.load(), (100u + 199u) * 100u / 2u);
}

TEST(ThreadPoolTest, EmptyRangeIsANoOp) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.ParallelFor(5, 5, 1, [&](std::size_t, std::size_t) { ++count; });
  pool.ParallelFor(9, 3, 1, [&](std::size_t, std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 0);
}

TEST(ThreadPoolTest, RunOnAllWorkersRunsEachWorkerOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> ran(4);
  pool.RunOnAllWorkers([&](std::size_t worker) {
    ASSERT_LT(worker, 4u);
    ran[worker].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t w = 0; w < 4; ++w) EXPECT_EQ(ran[w].load(), 1);
}

TEST(ThreadPoolTest, SizeOnePoolRunsInlineOnCaller) {
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id seen;
  pool.RunOnAllWorkers([&](std::size_t worker) {
    EXPECT_EQ(worker, 0u);
    seen = std::this_thread::get_id();
  });
  EXPECT_EQ(seen, caller);
}

TEST(ThreadPoolTest, JobStatsAccountPerWorkerCpu) {
  ThreadPool pool(2);
  // Enough work that the busy worker accumulates measurable CPU time.
  std::atomic<std::uint64_t> sink{0};
  pool.ParallelFor(0, 64, 1, [&](std::size_t, std::size_t) {
    std::uint64_t acc = 0;
    for (std::uint64_t k = 0; k < 200000; ++k) acc += k * k;
    sink.store(acc, std::memory_order_relaxed);
  });
  const JobStats& stats = pool.last_job_stats();
  ASSERT_EQ(stats.worker_cpu_seconds.size(), 2u);
  EXPECT_GT(stats.wall_seconds, 0.0);
  EXPECT_GT(stats.TotalCpuSeconds(), 0.0);
  EXPECT_GT(stats.MakespanSeconds(), 0.0);
  // The makespan is one worker's share; the total sums all workers.
  EXPECT_LE(stats.MakespanSeconds(), stats.TotalCpuSeconds() + 1e-12);
  double max_worker = 0.0;
  for (double c : stats.worker_cpu_seconds) max_worker = std::max(max_worker, c);
  EXPECT_DOUBLE_EQ(stats.MakespanSeconds(), max_worker);
}

TEST(ThreadPoolTest, WorkersStartedByWorkerOneRunTheFirstJob) {
  // The constructor starts worker 1 and worker 1 starts the rest, so a job
  // issued at once may find workers still starting, and a pool may be
  // destroyed before they are up. Each worker is its own thread either way.
  for (const std::size_t n : {2u, 3u, 8u}) {
    for (int round = 0; round < 20; ++round) {
      { ThreadPool idle(n); }
      ThreadPool pool(n);
      std::vector<std::thread::id> ids(n);
      pool.RunOnAllWorkers(
          [&](std::size_t worker) { ids[worker] = std::this_thread::get_id(); });
      EXPECT_EQ(ids[0], std::this_thread::get_id());
      std::sort(ids.begin(), ids.end());
      EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end())
          << n << " workers, round " << round;
    }
  }
}

TEST(ThreadPoolTest, PoolIsReusableAcrossJobs) {
  ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::size_t> count{0};
    pool.ParallelFor(0, 97, 0, [&](std::size_t, std::size_t) {
      count.fetch_add(1, std::memory_order_relaxed);
    });
    ASSERT_EQ(count.load(), 97u) << "round " << round;
  }
}

}  // namespace
}  // namespace exec
}  // namespace ssr
