// Execution subsystem: a fixed-size worker pool with a blocking
// ParallelFor. The rest of the codebase stays single-threaded by default;
// the opt-in users each own a pool: the parallel index build
// (SetSimilarityIndex::Build with IndexOptions::num_threads != 1) and the
// concurrent batch-query executor (exec::BatchExecutor).
//
// Thread-count resolution is uniform across all of them: an explicit n > 0
// wins, n == 0 consults the SSR_THREADS environment variable and falls back
// to std::thread::hardware_concurrency(). A resolved count of 1 means no
// threads are ever spawned and every job runs inline on the caller — the
// serial behavior of the pre-exec codebase, bit for bit.
//
// Worker identity: while a job runs, each participating thread (the caller
// is always worker 0) publishes its worker id through
// obs::SetCurrentWorkerId, so TraceSpans opened inside the job land on
// per-worker tracks in the Chrome-trace export.

#ifndef SSR_EXEC_THREAD_POOL_H_
#define SSR_EXEC_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ssr {
namespace exec {

/// Resolves a `num_threads` knob to a concrete worker count (always >= 1):
/// n > 0 is taken as-is; n == 0 means the SSR_THREADS environment variable
/// when set to a positive integer, otherwise hardware_concurrency().
std::size_t ResolveThreadCount(std::size_t num_threads);

/// Per-job execution statistics: one entry per worker that participated.
/// cpu_seconds is thread CPU time (CLOCK_THREAD_CPUTIME_ID), so the
/// makespan — the critical-path length max_w(cpu_w) — measures parallel
/// balance independently of how many physical cores the host exposes.
struct JobStats {
  std::vector<double> worker_cpu_seconds;
  double wall_seconds = 0.0;

  /// The slowest worker's CPU time: the job's modeled parallel runtime.
  double MakespanSeconds() const;
  /// Sum over workers: the job's total CPU cost (serial-equivalent time).
  double TotalCpuSeconds() const;
};

/// A fixed-size pool of `size() - 1` background threads plus the calling
/// thread. Jobs are collective: every worker runs the same function once,
/// or pulls ParallelFor chunks from a shared cursor. One job runs at a
/// time: jobs are issued from one thread at a time, never from inside a
/// job (not reentrant). State indexed by worker id may persist across jobs
/// without locking (BatchExecutor keeps its per-worker views that way):
/// within a job each id belongs to one thread, and a job starts only after
/// the previous one finished on every worker.
class ThreadPool {
 public:
  /// `num_threads` is a resolved count (>= 1; callers that accept a 0 =
  /// auto knob resolve it with ResolveThreadCount first). A pool of size 1
  /// spawns nothing and runs jobs inline.
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total workers including the calling thread.
  std::size_t size() const { return num_workers_; }

  /// Runs `fn(worker)` exactly once on every worker (0 = the calling
  /// thread) and blocks until all return.
  void RunOnAllWorkers(const std::function<void(std::size_t)>& fn);

  /// Runs `body(i, worker)` for every i in [begin, end), distributing
  /// contiguous chunks of `grain` indices (0 = pick a chunk size from the
  /// range and worker count) over all workers in static round-robin order:
  /// chunk c always belongs to worker c % size(). Blocks until every index
  /// has been processed. The static schedule makes each worker's share
  /// deterministic and independent of host scheduling — the property the
  /// modeled makespan (JobStats) relies on. Side effects must be safe under
  /// concurrent workers — index-disjoint writes, atomics, or per-worker
  /// state indexed by `worker`.
  void ParallelFor(std::size_t begin, std::size_t end, std::size_t grain,
                   const std::function<void(std::size_t, std::size_t)>& body);

  /// Statistics of the most recent RunOnAllWorkers/ParallelFor call.
  const JobStats& last_job_stats() const { return last_job_; }

  /// Collective jobs completed over the pool's lifetime (a ParallelFor
  /// counts as one job). Occupancy signal for /statusz.
  std::uint64_t jobs_run() const {
    return jobs_run_.load(std::memory_order_relaxed);
  }
  /// True while a collective job is executing.
  bool busy() const { return busy_.load(std::memory_order_relaxed); }

 private:
  void WorkerMain(std::size_t worker);

  const std::size_t num_workers_;
  // num_workers_ - 1 entries: [0] is started by the constructor, the rest
  // by worker 1 (see the constructor).
  std::vector<std::thread> threads_;
  JobStats last_job_;
  std::atomic<std::uint64_t> jobs_run_{0};
  std::atomic<bool> busy_{false};

  std::mutex mu_;
  std::condition_variable job_ready_;
  std::condition_variable job_done_;
  std::function<void(std::size_t)> job_;  // null = no pending job
  std::uint64_t job_seq_ = 0;             // bumps per job (wakeup token)
  std::size_t workers_remaining_ = 0;     // workers yet to finish current job
  bool stopping_ = false;
};

}  // namespace exec
}  // namespace ssr

#endif  // SSR_EXEC_THREAD_POOL_H_
