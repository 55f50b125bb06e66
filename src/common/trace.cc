#include "common/trace.h"

#include <ctime>

namespace egp {
namespace {

thread_local RequestTrace* t_current_trace = nullptr;

// Plain trivially-initialized thread_local: with the static TLS model
// (all egp code links into the executable) the slot exists from thread
// start, so reading it from a signal handler is safe.
thread_local TracePhase t_current_phase = TracePhase::kIdle;

// The innermost live ScopedTracePhase on this thread.
thread_local ScopedTracePhase* t_current_scope = nullptr;

}  // namespace

int64_t MonotonicNanos() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

RequestTrace* CurrentRequestTrace() { return t_current_trace; }

ScopedRequestTrace::ScopedRequestTrace(RequestTrace* trace)
    : previous_(t_current_trace) {
  t_current_trace = trace;
}

ScopedRequestTrace::~ScopedRequestTrace() { t_current_trace = previous_; }

const char* TracePhaseName(TracePhase phase) {
  switch (phase) {
    case TracePhase::kIdle:
      return "idle";
    case TracePhase::kRead:
      return "read";
    case TracePhase::kQueue:
      return "queue";
    case TracePhase::kAdmission:
      return "admission";
    case TracePhase::kHandler:
      return "handler";
    case TracePhase::kPrepare:
      return "prepare";
    case TracePhase::kDiscover:
      return "discover";
    case TracePhase::kSample:
      return "sample";
    case TracePhase::kRender:
      return "render";
    case TracePhase::kSerialize:
      return "serialize";
    case TracePhase::kFlush:
      return "flush";
  }
  return "idle";
}

TracePhase CurrentTracePhase() { return t_current_phase; }

ScopedTracePhase::ScopedTracePhase(TracePhase phase, double* elapsed_seconds)
    : phase_(phase),
      parent_(t_current_scope),
      trace_(t_current_trace),
      elapsed_seconds_(elapsed_seconds) {
  if (trace_ != nullptr || elapsed_seconds_ != nullptr) {
    start_ns_ = MonotonicNanos();
  }
  t_current_scope = this;
  t_current_phase = phase;
}

ScopedTracePhase::~ScopedTracePhase() {
  t_current_scope = parent_;
  t_current_phase = parent_ != nullptr ? parent_->phase_ : TracePhase::kIdle;
  if (start_ns_ == 0) return;
  const int64_t elapsed_ns = MonotonicNanos() - start_ns_;
  if (elapsed_seconds_ != nullptr) {
    *elapsed_seconds_ = static_cast<double>(elapsed_ns) * 1e-9;
  }
  if (trace_ == nullptr) return;
  trace_->PhaseNs(phase_) += elapsed_ns;
  // Self time: the enclosing scope's phase does not bill this interval
  // too. Only a scope timing into the same trace has it in its elapsed.
  if (parent_ != nullptr && parent_->trace_ == trace_) {
    trace_->PhaseNs(parent_->phase_) -= elapsed_ns;
  }
}

TraceIdGenerator::TraceIdGenerator(uint64_t seed) : rng_(seed) {}

void TraceIdGenerator::Reseed(uint64_t seed) {
  MutexLock lock(&mu_);
  rng_ = Rng(seed);
}

std::string TraceIdGenerator::Next() {
  uint64_t value;
  {
    MutexLock lock(&mu_);
    value = rng_.Next();
  }
  static const char kHex[] = "0123456789abcdef";
  std::string id(16, '0');
  for (int i = 15; i >= 0; --i) {
    id[static_cast<size_t>(i)] = kHex[value & 0xF];
    value >>= 4;
  }
  return id;
}

}  // namespace egp
