// In-memory host-time spans for the benchmark's traced runs. The benchmark
// opens a span around each call it makes into the program's public API (query,
// Runner::run, PlanService::analysis_for, xform::apply_plan, parse_program,
// Workload::setup); spans nest on one thread, stay in memory, and are written
// out once at exit. A disabled recorder does nothing, so plain runs pay one
// branch per call site.
#pragma once

#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::string query;  // query id the span belongs to; "" outside any query
  int parent = -1;    // index into Spans::all(); -1 for a root span
  double start_ms = 0.0;  // steady clock, relative to the recorder's creation
  double end_ms = -1.0;   // < start_ms while the span is still open
  double cpu_ms = 0.0;    // process CPU time (every thread) spent inside the span
};

class Spans {
 public:
  explicit Spans(bool enabled);

  bool enabled() const { return enabled_; }

  /// Opens a child of the innermost open span; returns -1 when disabled.
  /// An empty `query` inherits the parent's query id.
  int open(std::string name, std::string query = {});
  void close(int id);

  const std::vector<Span>& all() const { return spans_; }

  /// Spans named `name` or `name:<detail>`, in the order they opened.
  std::vector<const Span*> named(const std::string& name) const;
  /// Summed wall and process-CPU time of the spans named(`name`).
  double wall_ms(const std::string& name) const;
  double cpu_ms(const std::string& name) const;

  /// "" when every span is closed and lies inside its parent; otherwise a
  /// description of the first violation.
  std::string nesting_error() const;

  /// Writes {"spans":[...]} to `path`; false on I/O failure.
  bool write_json(const std::string& path) const;

 private:
  bool enabled_;
  double origin_ms_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span: opens on construction, closes on destruction.
class Scope {
 public:
  Scope(Spans& spans, std::string name, std::string query = {})
      : spans_(spans), id_(spans.open(std::move(name), std::move(query))) {}
  ~Scope() { spans_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Spans& spans_;
  int id_;
};

/// Monotonic wall clock and whole-process CPU clock, in milliseconds.
double wall_now_ms();
double cpu_now_ms();

}  // namespace perfbench
