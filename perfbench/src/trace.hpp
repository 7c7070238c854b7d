#pragma once

/// \file trace.hpp
/// In-memory span recorder for the traced benchmark run.
///
/// The benchmark records a span around each call it makes into a layer of
/// the program: name, start, end, the enclosing span (per thread), and a
/// request id shared by every span of one request.  Spans stay in memory
/// and are written once, at exit, as Chrome trace-event JSON — the format
/// Perfetto (ui.perfetto.dev) and chrome://tracing open directly.  With
/// tracing off, Span is a no-op apart from one branch.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  long parent = -1;           ///< index of the enclosing span, -1 at a root
  std::uint64_t request = 0;  ///< shared by the spans of one request
  int tid = 0;                ///< recording thread (small stable id)
};

/// Aggregate of every span with one name.
struct SpanTotals {
  std::size_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;  ///< total minus the time child spans cover
};

class Tracer {
 public:
  /// The process-wide recorder.
  static Tracer& global();

  void enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Opens a span on the calling thread; returns its index (-1 when off).
  long begin(const char* name, std::uint64_t request);
  void end(long index);

  /// Per-name totals with self time (a span's duration minus the union of
  /// its children's intervals, clipped to the span).
  std::map<std::string, SpanTotals> totals() const;

  /// Writes every span as Chrome trace-event JSON ("X" complete events,
  /// microsecond timestamps relative to the first span).  Returns false
  /// when the file cannot be written.
  bool write_chrome_json(const std::string& path) const;

  std::size_t size() const;

 private:
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // guarded by mu_
};

/// RAII span: records [construction, destruction) when tracing is on.
class Span {
 public:
  Span(const char* name, std::uint64_t request = 0)
      : index_(Tracer::global().begin(name, request)) {}
  ~Span() { Tracer::global().end(index_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  long index_;
};

}  // namespace perfbench
