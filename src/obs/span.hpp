// Causal span tracing.
//
// A Span is the tracer's record type: it measures a scope and records
// *where in the request tree* the scope ran. Stage boundaries do not
// construct one directly; they open an obs::Scope (obs/scope.hpp),
// which owns a Span next to its stage histogram and RunReport entry.
// Every span carries a trace id (one per root request), its own span id,
// and its parent's span id, so one serve query or snapshot publish
// yields a complete causal tree from the line-protocol request down to
// the solver stages it triggered.
//
// Collection contract (mirrors obs/metrics.hpp):
//
//   - Recording is a no-op until set_tracing_enabled(true). A disabled
//     Span costs exactly one relaxed atomic load + branch at
//     construction and one untaken branch at destruction — the same
//     guard shape as a disabled metric, so instrumented hot paths stay
//     at baseline throughput (micro_kernels pins this).
//   - When enabled, a finished span is written to a per-thread ring
//     buffer: no locks, no allocation on the record path (the ring is
//     allocated once per thread, on that thread's first span). When a
//     ring wraps, the oldest spans are overwritten — tracing keeps the
//     most recent window, it never stalls the traced code.
//   - Span *names* must be string literals (or otherwise outlive
//     collection); the ring stores the pointer, not a copy.
//
// Context propagation rules:
//
//   1. Same thread: spans nest through a thread-local cursor. A Span
//      constructed while another is open on the same thread becomes its
//      child automatically.
//   2. Across threads (RecomputePipeline worker, OpenMP solver
//      regions): the thread-local cursor does NOT follow. Capture
//      current_span_context() on the submitting side, hand the value
//      across (e.g. in the queued update), and construct the span on
//      the worker with the explicit-parent constructor. The worker-side
//      span then parents follow-on same-thread spans as rule 1.
//   3. A span with no open parent and no explicit parent starts a new
//      trace (fresh trace id, parent span id 0).
//
// collect_spans() snapshots every thread's ring. It is safe to call at
// any time, but it is a *snapshot*, not a barrier: spans finishing
// concurrently on other threads may be missed or (if the ring wraps
// mid-read) read torn. Drain at quiescent points — after joins, after
// RecomputePipeline::drain() — for exact trees; the tests do.
#pragma once

#include <atomic>
#include <cstddef>
#include <vector>

#include "util/common.hpp"

namespace srsr::obs {

namespace detail {
extern std::atomic<bool> g_tracing_enabled;
}  // namespace detail

/// The single branch/atomic load guarding every span record path.
inline bool tracing_enabled() {
  return detail::g_tracing_enabled.load(std::memory_order_relaxed);
}

/// Turns span collection on/off process-wide (off by default).
void set_tracing_enabled(bool on);

/// Where a span sits in the request tree. Copyable by value — this is
/// the object handed across thread boundaries.
struct SpanContext {
  u64 trace_id = 0;  // 0 = no active trace
  u64 span_id = 0;
  bool valid() const { return trace_id != 0 && span_id != 0; }
};

/// The active span context of the calling thread (invalid when no span
/// is open here). Capture this before crossing a thread boundary.
SpanContext current_span_context();

/// One finished span, as drained from the rings.
struct SpanRecord {
  u64 trace_id = 0;
  u64 span_id = 0;
  u64 parent_id = 0;  // 0 = root of its trace
  const char* name = "";
  u64 start_ns = 0;   // monotonic clock, ns
  u64 duration_ns = 0;
  u32 thread_index = 0;  // stable per-thread index, in ring-registration order
};

class Span {
 public:
  /// Child of the calling thread's open span, or a new trace root.
  explicit Span(const char* name) : Span(name, kInherit, false) {}

  /// Explicit hand-off: child of `parent` regardless of this thread's
  /// cursor (rule 2 above). An invalid `parent` starts a new trace.
  Span(const char* name, const SpanContext& parent)
      : Span(name, parent, true) {}

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  ~Span() { finish(); }

  /// Records once and pops the thread-local cursor; later calls are
  /// no-ops. Destruction finishes implicitly.
  void finish();

  /// This span's context (invalid when tracing was off at construction)
  /// — what a caller captures to hand to another thread.
  SpanContext context() const { return ctx_; }
  bool active() const { return active_; }

 private:
  static const SpanContext kInherit;  // sentinel: use the thread cursor

  Span(const char* name, const SpanContext& parent, bool explicit_parent);

  const char* name_;
  SpanContext ctx_;        // invalid when inactive
  u64 parent_id_ = 0;
  u64 start_ns_ = 0;
  SpanContext saved_;      // thread cursor to restore on finish
  bool active_ = false;    // tracing was on at construction
  bool installed_ = false; // we own the thread cursor until finish()
};

/// Snapshot of every thread ring, oldest-first per thread. Ordering
/// across threads is by ring registration, not by time; sort by
/// start_ns for a global timeline.
std::vector<SpanRecord> collect_spans();

/// Empties every thread ring (registrations and rings stay; handles in
/// flight remain valid). For tests and between CLI runs.
void clear_spans();

/// Capacity of each per-thread ring (spans retained per thread before
/// the oldest are overwritten).
std::size_t span_ring_capacity();

}  // namespace srsr::obs
