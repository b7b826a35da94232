// The one instrumentation primitive for stage boundaries.
//
// An obs::Scope measures the wall time of its enclosing scope and, on
// finish (or destruction), records it to
//
//   - the span rings, as a span named `name` — only when tracing is on
//     (obs/span.hpp: nesting, cross-thread hand-off, ring contract);
//   - the metrics registry, as histogram "srsr.<name>.seconds" — only
//     when metrics collection is on; and
//   - an optional RunReport, as a stage entry — whenever one is given.
//
// One name, three sinks: Scope("core.solve") is the "core.solve" span,
// feeds "srsr.core.solve.seconds", and is the "core.solve" report stage.
// `name` must be a string literal (the span contract: the ring stores
// the pointer). Construction costs one clock read plus the span's
// disabled-path branch; the registry lookup happens once at finish, so
// a Scope belongs on stage boundaries, not inside iteration loops (the
// per-query path keeps its pre-resolved instruments, serve/query.cpp).
#pragma once

#include <string>

#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/span.hpp"
#include "util/common.hpp"
#include "util/timer.hpp"

namespace srsr::obs {

class Scope {
 public:
  /// Child of the calling thread's open span (or a new trace root).
  explicit Scope(const char* name, RunReport* report = nullptr)
      : name_(name), report_(report), span_(name) {}

  /// Explicit cross-thread hand-off: the span is a child of `parent`.
  Scope(const char* name, const SpanContext& parent)
      : name_(name), span_(name, parent) {}

  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  ~Scope() { finish(); }

  /// Seconds since construction, without recording.
  f64 elapsed() const { return timer_.seconds(); }

  /// Records once and returns the elapsed seconds; later calls return
  /// the recorded value without recording again.
  f64 finish() {
    if (finished_) return seconds_;
    finished_ = true;
    seconds_ = timer_.seconds();
    span_.finish();
    if (metrics_enabled()) {
      MetricsRegistry::instance()
          .histogram(std::string("srsr.") + name_ + ".seconds")
          .observe(seconds_);
    }
    if (report_) report_->add_stage(name_, seconds_);
    return seconds_;
  }

 private:
  const char* name_;
  RunReport* report_ = nullptr;
  Span span_;
  WallTimer timer_;
  bool finished_ = false;
  f64 seconds_ = 0.0;
};

}  // namespace srsr::obs
