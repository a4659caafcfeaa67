// Tracing layer — RAII scoped spans recorded into per-thread ring buffers
// and exported as Chrome trace_event JSON (loadable in chrome://tracing and
// Perfetto).
//
// A span is recorded only while a TraceSession is open, so production hot
// paths pay one relaxed atomic load per span when tracing is off. Benches
// and `schedgen --trace` open a session around a run; the exported timeline
// shows every pipeline stage (augment / solve / extract / chunk / compile /
// validate / encode / cache) with thread attribution — decomposed-MCF child
// problems appear on their pool workers' tracks.
//
// Nesting is positional, the way Chrome's "X" (complete) events define it:
// a span whose [start, start+dur) interval encloses another's on the same
// thread renders as its parent. Each event also carries its lexical depth
// for tests and tooling that want it without interval arithmetic.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace a2a::obs {

namespace trace_detail {
extern std::atomic<bool> g_tracing_enabled;
}  // namespace trace_detail

/// True while a TraceSession is open (the span fast-path check).
[[nodiscard]] inline bool tracing_enabled() {
  return trace_detail::g_tracing_enabled.load(std::memory_order_relaxed);
}

/// One recorded span (or instant, dur_ns == 0), timestamps relative to the
/// session start.
struct TraceEvent {
  const char* name = "";    ///< static-storage string (span call sites).
  std::string args;         ///< free-form annotation ("" = none).
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint32_t tid = 0;    ///< small dense id, assigned per thread.
  std::uint32_t depth = 0;  ///< lexical span nesting depth at record time.
  bool instant = false;
};

/// RAII scoped span. `name` must have static storage duration (string
/// literals at every call site); the optional annotation is copied. Spans
/// constructed while tracing is off record nothing, even if a session opens
/// before they close — a half-observed span would lie about its duration.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name);
  TraceSpan(const char* name, std::string args);
  ~TraceSpan();

  /// Appends to the span's annotation ("; "-separated). Use for decisions
  /// made mid-span (which Fig. 1 branch, why).
  void annotate(const std::string& text);

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_;
  std::string args_;
  std::uint64_t start_ns_ = 0;
  bool active_ = false;
};

/// Zero-duration marker on the current thread's track.
void trace_instant(const char* name, std::string args = {});

/// Capacity of each thread's ring buffer. When a thread records more events
/// than this in one session the OLDEST are overwritten and the drop count is
/// reported in the export metadata.
inline constexpr std::size_t kTraceRingCapacity = 1 << 16;

/// Collector for one tracing window. At most one session may be open at a
/// time (a second concurrent one throws InternalError). Opening clears every
/// thread's ring; stop() (or the destructor) closes the window. The events
/// and the Chrome JSON remain available after stop.
class TraceSession {
 public:
  TraceSession();
  ~TraceSession();

  /// Closes the recording window and freezes the event set. Idempotent.
  void stop();

  /// Events recorded in this session (stops the session if still open),
  /// ordered by (tid, start). Ring overflow drops the oldest per thread.
  [[nodiscard]] std::vector<TraceEvent> events();

  /// Chrome trace_event JSON ("traceEvents" array of "X"/"i" events, ts/dur
  /// in microseconds). Loadable as-is in chrome://tracing / Perfetto.
  [[nodiscard]] std::string chrome_json();

  /// Events dropped to ring overflow, summed over threads.
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

 private:
  bool stopped_ = false;
  bool collected_ = false;
  std::vector<TraceEvent> events_;
  std::uint64_t dropped_ = 0;
};

}  // namespace a2a::obs

/// Span convenience: A2A_TRACE_SPAN("stage.solve") declares a scoped span
/// with a unique local name.
#define A2A_OBS_CONCAT2(a, b) a##b
#define A2A_OBS_CONCAT(a, b) A2A_OBS_CONCAT2(a, b)
#define A2A_TRACE_SPAN(...) \
  ::a2a::obs::TraceSpan A2A_OBS_CONCAT(a2a_trace_span_, __LINE__)(__VA_ARGS__)
