#include "obs/trace.h"

#include <cstdio>

#include "obs/profile.h"

namespace ssr {
namespace obs {

namespace {
// The innermost open span on this thread; spans opened while another span
// is live nest under it. A single stack is shared across tracer instances
// (in practice one tracer is active at a time; tests that use private
// tracers nest correctly as long as they don't interleave two tracers on
// one thread).
thread_local TraceSpan* t_current_span = nullptr;

// Worker identity for trace tracks; 0 everywhere except exec pool threads.
thread_local std::uint32_t t_worker_id = 0;
}  // namespace

std::uint32_t CurrentWorkerId() { return t_worker_id; }

void SetCurrentWorkerId(std::uint32_t worker) { t_worker_id = worker; }

Tracer::Tracer(std::size_t capacity)
    : capacity_(capacity < 1 ? 1 : capacity),
      epoch_(std::chrono::steady_clock::now()) {}

Tracer& Tracer::Default() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

double Tracer::MicrosSinceEpoch() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  next_slot_ = 0;
}

void Tracer::Record(SpanRecord&& record) {
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(record));
    next_slot_ = ring_.size() % capacity_;
  } else {
    ring_[next_slot_] = std::move(record);
    next_slot_ = (next_slot_ + 1) % capacity_;
  }
  total_recorded_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<SpanRecord> Tracer::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SpanRecord> out;
  out.reserve(ring_.size());
  if (ring_.size() < capacity_) {
    out = ring_;
  } else {
    // next_slot_ points at the oldest record once the ring is full.
    for (std::size_t i = 0; i < ring_.size(); ++i) {
      out.push_back(ring_[(next_slot_ + i) % ring_.size()]);
    }
  }
  return out;
}

TraceSpan::TraceSpan(Tracer& tracer, std::string_view name) {
  if (!tracer.enabled()) return;
  tracer_ = &tracer;
  record_.id = tracer.NextSpanId();
  record_.worker = t_worker_id;
  record_.name.assign(name);
  parent_ = t_current_span;
  if (parent_ != nullptr && parent_->active()) {
    record_.parent_id = parent_->record_.id;
    record_.depth = parent_->record_.depth + 1;
  }
  Profiler& profiler = Profiler::Default();
  if (profiler.enabled()) {
    profiled_ = true;
    counters_at_open_ = profiler.ReadNow();
  }
  opened_at_ = std::chrono::steady_clock::now();
  record_.start_micros = tracer.MicrosSinceEpoch();
  t_current_span = this;
}

TraceSpan::~TraceSpan() {
  if (tracer_ == nullptr) return;
  record_.duration_micros =
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - opened_at_)
          .count();
  if (profiled_) {
    Profiler& profiler = Profiler::Default();
    record_.counters = Delta(profiler.ReadNow(), counters_at_open_);
    profiler.Record(record_.name, record_.counters);
  }
  t_current_span = parent_;
  tracer_->Record(std::move(record_));
}

void TraceSpan::Tag(std::string_view key, std::string_view value) {
  if (tracer_ == nullptr) return;
  record_.tags.emplace_back(std::string(key), std::string(value));
}

// The numeric tags return before formatting: an inactive span records
// nothing, and a query's spans tag on every call.
void TraceSpan::Tag(std::string_view key, std::uint64_t value) {
  if (tracer_ == nullptr) return;
  Tag(key, std::string_view(std::to_string(value)));
}

void TraceSpan::Tag(std::string_view key, double value) {
  if (tracer_ == nullptr) return;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  Tag(key, std::string_view(buf));
}

}  // namespace obs
}  // namespace ssr
