// Structured span tracing in Chrome/Perfetto `trace_event` format (the
// JSON Object Format: {"traceEvents":[...]}). A TraceWriter buffers
// begin/end events in memory — recording is one mutex-guarded vector
// push, cheap enough for per-simulation spans — and serializes the whole
// document on write(), so a crash mid-run loses the trace but never
// corrupts other output. Load the file in chrome://tracing or
// https://ui.perfetto.dev to see where wall time goes.
//
// Span discipline: every begin() must be matched by an end() with the
// same name on the same thread. SpanScope is the RAII form that makes the
// balance structural:
//
//   obs::SpanScope span(options.trace_sink, "step1", "explore");
//
// A null TraceWriter* disables tracing at zero cost — every entry point
// tolerates nullptr, so call sites need no `if (trace)` guards.
//
// check_trace() is the validator the tests and `ddtr tracecheck` share:
// a strict JSON parse plus a per-thread begin/end balance check, with no
// python or external tooling involved.
//
// Timestamps come from the steady clock (microseconds since the first
// use in the process); wall_time_ms() is the one wall-clock reading,
// stamped into the trace metadata only. Nothing in this header may ever
// feed cache keys — src/obs/ is carved out of the determinism lint rule
// for exactly this reason.
#pragma once

#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace ddtr::obs {

// Microseconds since the process-local steady epoch (first call).
std::uint64_t now_us();

// Milliseconds since the unix epoch (wall clock). Observation-only: trace
// metadata, log lines — never keys or reports.
std::uint64_t wall_time_ms();

// Ordered key/value payload serialized as a trace event's "args" object
// (what Perfetto shows in the selection panel). Values are strings or
// unsigned counters — enough for unit counts and byte totals; keep
// anything heavier out of the hot path.
class TraceArgs {
 public:
  TraceArgs& set(std::string key, std::string value) {
    args_.push_back({std::move(key), std::move(value), 0, false});
    return *this;
  }
  TraceArgs& set(std::string key, std::uint64_t value) {
    args_.push_back({std::move(key), std::string(), value, true});
    return *this;
  }
  bool empty() const { return args_.empty(); }
  std::size_t size() const { return args_.size(); }

 private:
  friend class TraceWriter;
  struct Arg {
    std::string key;
    std::string str;
    std::uint64_t num;
    bool is_num;
  };
  std::vector<Arg> args_;
};

class TraceWriter {
 public:
  // Record a begin/end event pair delimiter. `name` and `cat` must
  // outlive nothing — they are copied. The args overloads attach an
  // "args" object to the event (Chrome merges B and E args per span).
  void begin(const std::string& name, const std::string& cat);
  void begin(const std::string& name, const std::string& cat, TraceArgs args);
  void end(const std::string& name, const std::string& cat);
  void end(const std::string& name, const std::string& cat, TraceArgs args);

  std::size_t event_count() const;

  // Serialize the full trace_event document.
  void write(std::ostream& os) const;
  std::string str() const;

 private:
  struct Event {
    std::string name;
    std::string cat;
    char phase;  // 'B' or 'E'
    std::uint64_t ts_us;
    std::uint32_t tid;
    TraceArgs args;
  };

  void record(const std::string& name, const std::string& cat, char phase,
              TraceArgs args);

  mutable std::mutex mu_;
  std::vector<Event> events_;
};

// RAII span: begin on construction, end on destruction, structurally
// balanced even when the body throws. Null writer = disabled.
class SpanScope {
 public:
  SpanScope(TraceWriter* writer, std::string name, std::string cat)
      : writer_(writer), name_(std::move(name)), cat_(std::move(cat)) {
    if (writer_ != nullptr) writer_->begin(name_, cat_);
  }
  ~SpanScope() {
    if (writer_ != nullptr) writer_->end(name_, cat_, std::move(args_));
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  // Attach a counter to the span, reported on the end event — the values
  // (units simulated, bytes written, cache hits) are usually only known
  // once the work is done. No-op when tracing is disabled.
  SpanScope& arg(std::string key, std::uint64_t value) {
    if (writer_ != nullptr) args_.set(std::move(key), value);
    return *this;
  }
  SpanScope& arg(std::string key, std::string value) {
    if (writer_ != nullptr) args_.set(std::move(key), std::move(value));
    return *this;
  }

 private:
  TraceWriter* writer_;
  std::string name_;
  std::string cat_;
  TraceArgs args_;
};

// Validates `json` as a Chrome trace_event document: strict JSON, a
// top-level object with a "traceEvents" array, every event carrying
// name/cat/ph/ts/pid/tid (plus, when present, an "args" object whose
// values are strings or numbers), and per-(pid,tid) begin/end spans
// balanced in LIFO order. Returns "" on success, else a one-line
// diagnostic.
std::string check_trace(const std::string& json);

}  // namespace ddtr::obs
