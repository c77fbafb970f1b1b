// Span recorder for the benchmark's traced runs.
//
// A span brackets one call the benchmark makes into a layer of the
// library: its name ("<module>.<call>"), start and end, the span that was
// open on the same thread when it began (its parent) and the benchmark
// request it serves.
// Spans stay in memory and are written out at exit as Chrome trace-event
// JSON (chrome://tracing, Perfetto). A layer's self time is its duration
// minus the part covered by its child spans.
//
// When tracing is off, Span's constructor and destructor test one flag and
// record nothing; the end-to-end metrics come only from such runs.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
public:
  struct Record {
    std::string name;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    int parent = -1;  // index into records(), -1 for a root span
    std::uint64_t request = 0;
  };

  struct Totals {
    std::uint64_t calls = 0;
    double selfMs = 0.0;
    double totalMs = 0.0;
  };

  static Tracer& instance();

  void enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Spans opened from now on belong to `request` (the benchmark's
  /// own request number, so every span of one request shares it).
  void setRequest(std::uint64_t request) { request_ = request; }

  /// Opens a span; returns its index.
  int open(const std::string& name);
  void close(int index);

  const std::vector<Record>& records() const { return records_; }
  /// Drops every record from `size` on (calibration spans).
  void truncate(std::size_t size) { records_.resize(size); }

  /// Calls, self time and total time per span name.
  std::map<std::string, Totals> totals() const;

  /// Chrome trace-event JSON ("X" complete events, microsecond times).
  void writeChromeTrace(const std::string& path) const;

private:
  bool enabled_ = false;
  std::uint64_t request_ = 0;
  std::vector<Record> records_;
  std::vector<int> stack_;  // open spans of the benchmark's one client thread
};

/// RAII span. The benchmark calls into the library from one thread, so
/// nesting follows the call stack.
class Span {
public:
  explicit Span(const std::string& name)
      : index_(Tracer::instance().enabled() ? Tracer::instance().open(name)
                                            : -1) {}
  ~Span() {
    if (index_ >= 0) Tracer::instance().close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

private:
  int index_;
};

/// Monotonic nanoseconds (steady_clock).
std::int64_t nowNs();

}  // namespace perfbench
