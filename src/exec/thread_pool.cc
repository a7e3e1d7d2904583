#include "exec/thread_pool.h"

#include <time.h>

#include <atomic>
#include <chrono>
#include <cstdlib>

#include "obs/trace.h"

namespace ssr {
namespace exec {

namespace {

/// CPU time consumed by the calling thread, in seconds.
double ThreadCpuSeconds() {
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

std::size_t ResolveThreadCount(std::size_t num_threads) {
  if (num_threads > 0) return num_threads;
  if (const char* env = std::getenv("SSR_THREADS")) {
    const long parsed = std::atol(env);
    if (parsed > 0) return static_cast<std::size_t>(parsed);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

double JobStats::MakespanSeconds() const {
  double makespan = 0.0;
  for (double cpu : worker_cpu_seconds) {
    if (cpu > makespan) makespan = cpu;
  }
  return makespan;
}

double JobStats::TotalCpuSeconds() const {
  double total = 0.0;
  for (double cpu : worker_cpu_seconds) total += cpu;
  return total;
}

ThreadPool::ThreadPool(std::size_t num_threads)
    : num_workers_(num_threads < 1 ? 1 : num_threads) {
  if (num_workers_ == 1) return;
  // The caller starts worker 1 only; worker 1 starts the rest before it
  // serves jobs. Creating a thread costs its creator tens of microseconds
  // in a VM, so the caller gets back to its own work after one of them
  // instead of all. A job issued before every worker is up just waits
  // for the late ones (each runs the pending job when it starts). A
  // thread that cannot be started ends the program: every job runs on
  // all workers, so a pool cannot go on with fewer.
  threads_.resize(num_workers_ - 1);
  threads_[0] = std::thread([this] {
    for (std::size_t w = 2; w < num_workers_; ++w) {
      threads_[w - 1] = std::thread([this, w] { WorkerMain(w); });
    }
    WorkerMain(1);
  });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  job_ready_.notify_all();
  // Worker 1 first: its exit orders after its writes to threads_[1..].
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::WorkerMain(std::size_t worker) {
  // Published once: the thread's id is fixed for the pool's lifetime, so
  // every TraceSpan opened from this thread lands on its worker track.
  obs::SetCurrentWorkerId(static_cast<std::uint32_t>(worker));
  std::uint64_t seen_seq = 0;
  for (;;) {
    std::function<void(std::size_t)> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      job_ready_.wait(lock,
                      [&] { return stopping_ || job_seq_ != seen_seq; });
      if (stopping_) return;
      seen_seq = job_seq_;
      job = job_;  // shared callable; invoking it concurrently is safe
    }
    job(worker);
    {
      std::lock_guard<std::mutex> lock(mu_);
      --workers_remaining_;
    }
    job_done_.notify_one();
  }
}

void ThreadPool::RunOnAllWorkers(const std::function<void(std::size_t)>& fn) {
  busy_.store(true, std::memory_order_relaxed);
  last_job_ = JobStats{};
  last_job_.worker_cpu_seconds.assign(num_workers_, 0.0);
  const auto wall_start = std::chrono::steady_clock::now();
  // Per-worker CPU accounting wraps the user function; workers write
  // disjoint slots, so no synchronization is needed beyond job completion.
  double* cpu_slots = last_job_.worker_cpu_seconds.data();
  const auto wrapped = [&fn, cpu_slots](std::size_t worker) {
    const double cpu_before = ThreadCpuSeconds();
    fn(worker);
    cpu_slots[worker] = ThreadCpuSeconds() - cpu_before;
  };
  if (num_workers_ == 1) {
    wrapped(0);
  } else {
    {
      std::lock_guard<std::mutex> lock(mu_);
      job_ = wrapped;
      ++job_seq_;
      workers_remaining_ = num_workers_ - 1;
    }
    job_ready_.notify_all();
    wrapped(0);
    std::unique_lock<std::mutex> lock(mu_);
    job_done_.wait(lock, [&] { return workers_remaining_ == 0; });
    job_ = nullptr;
  }
  last_job_.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  jobs_run_.fetch_add(1, std::memory_order_relaxed);
  busy_.store(false, std::memory_order_relaxed);
}

void ThreadPool::ParallelFor(
    std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& body) {
  if (end <= begin) {
    last_job_ = JobStats{};
    last_job_.worker_cpu_seconds.assign(num_workers_, 0.0);
    return;
  }
  const std::size_t range = end - begin;
  std::size_t chunk = grain;
  if (chunk == 0) {
    // ~8 chunks per worker keeps round-robin shares even when per-index
    // cost varies; clamp to >= 1.
    chunk = range / (num_workers_ * 8);
    if (chunk == 0) chunk = 1;
  }
  // Static blocked round-robin: chunk c belongs to worker c % num_workers_.
  // A dynamic work-stealing cursor would balance better on a genuinely
  // parallel host, but on a core-starved one (CI) whichever worker the OS
  // runs first would drain most of the range, skewing the per-worker CPU
  // accounting that the modeled makespan is built from. The static schedule
  // makes each worker's share — and the makespan — a property of the job,
  // not of the host's scheduler.
  const std::size_t stride = chunk * num_workers_;
  RunOnAllWorkers([&](std::size_t worker) {
    for (std::size_t start = begin + worker * chunk; start < end;
         start += stride) {
      const std::size_t stop = start + chunk < end ? start + chunk : end;
      for (std::size_t i = start; i < stop; ++i) body(i, worker);
    }
  });
}

}  // namespace exec
}  // namespace ssr
