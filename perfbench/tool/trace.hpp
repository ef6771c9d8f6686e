#pragma once
// Span recorder for the traced replays.  Spans (name, start, end, parent,
// request id) are kept in memory and written out as NDJSON when the
// replay ends.  A span's self time is its duration minus the time its
// child spans cover.  Single-threaded by design: the replays call each
// layer from one thread, so a parent stack is all the causality needed.
//
// A disabled Tracer records nothing and reads no clock, which is how the
// replays produce their untraced comparison passes.

#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Span {
    const char* name = "";  ///< string literal: static storage
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;
    std::uint64_t request = 0;
  };

  struct Totals {
    std::uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };

  /// RAII span: opens on construction, closes on destruction.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, std::uint64_t request)
        : tracer_(tracer) {
      if (tracer_ != nullptr) index_ = tracer_->open(name, request);
    }
    ~Scope() {
      if (tracer_ != nullptr) tracer_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::int32_t index_ = -1;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  Scope span(const char* name, std::uint64_t request = 0) {
    return Scope(enabled_ ? this : nullptr, name, request);
  }

  /// Seconds since the tracer was created.
  double now_s() const { return static_cast<double>(now_ns()) * 1e-9; }

  /// Per-name totals and self times over every closed span.
  std::map<std::string, Totals> totals() const {
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Span& span : spans_) {
      if (span.parent >= 0) {
        child_ns[static_cast<std::size_t>(span.parent)] +=
            span.end_ns - span.start_ns;
      }
    }
    std::map<std::string, Totals> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      Totals& totals = out[span.name];
      const std::int64_t duration = span.end_ns - span.start_ns;
      totals.count += 1;
      totals.total_s += static_cast<double>(duration) * 1e-9;
      totals.self_s += static_cast<double>(duration - child_ns[i]) * 1e-9;
    }
    return out;
  }

  /// Durations (seconds) of every span named `name`, in recording order.
  std::vector<double> durations(const std::string& name) const {
    std::vector<double> out;
    for (const Span& span : spans_) {
      if (name == span.name) {
        out.push_back(static_cast<double>(span.end_ns - span.start_ns) * 1e-9);
      }
    }
    return out;
  }

  std::size_t size() const noexcept { return spans_.size(); }

  /// Writes every span as one NDJSON line.
  void write(const std::string& path) const {
    std::ofstream out(path, std::ios::trunc);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      out << "{\"id\":" << i << ",\"name\":\"" << span.name
          << "\",\"start_ns\":" << span.start_ns
          << ",\"end_ns\":" << span.end_ns << ",\"parent\":" << span.parent
          << ",\"request\":" << span.request << "}\n";
    }
  }

 private:
  using Clock = std::chrono::steady_clock;

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  std::int32_t open(const char* name, std::uint64_t request) {
    Span span;
    span.name = name;
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.request = request;
    const auto index = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(span);
    stack_.push_back(index);
    spans_.back().start_ns = now_ns();
    return index;
  }

  void close(std::int32_t index) {
    spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
    stack_.pop_back();
  }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

}  // namespace perfbench
