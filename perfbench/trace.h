/**
 * @file
 * In-memory span recorder for the benchmark's traced run.
 *
 * Spans are recorded by the benchmark around its own calls into each
 * layer's public entry points (nothing inside the simulator is
 * instrumented). They stay in memory and are written once, as Chrome
 * trace-event JSON, when the run ends.
 */
#ifndef DILU_PERFBENCH_TRACE_H_
#define DILU_PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace dilu::perfbench {

// dilu-lint: allow(wall-clock the benchmark measures host time by design)
using Clock = std::chrono::steady_clock;

/** Seconds elapsed since `start`. */
inline double
SecondsSince(Clock::time_point start)
{
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/** One recorded span; times are microseconds since the tracer began. */
struct Span {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  int parent = -1;  ///< index of the enclosing span, -1 at the root
};

/** Records nested spans; the innermost open span parents new ones. */
class Tracer {
 public:
  explicit Tracer(std::string workload) : workload_(std::move(workload)) {}

  /** Open a span under the innermost open one. */
  void Begin(const std::string& name)
  {
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({name, NowUs(), 0.0, parent});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
  }

  /** Close the innermost open span. */
  void End()
  {
    spans_[static_cast<std::size_t>(open_.back())].end_us = NowUs();
    open_.pop_back();
  }

  /** Record an already-finished span under the innermost open one. */
  void Add(const std::string& name, Clock::time_point start,
           Clock::time_point end)
  {
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({name, ToUs(start), ToUs(end), parent});
  }

  /** Write every span as Chrome trace-event JSON; false on I/O error. */
  bool Write(const std::string& path) const
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"traceEvents\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                   "\"args\": {\"id\": %zu, \"parent\": %d, "
                   "\"workload\": \"%s\"}}%s\n",
                   s.name.c_str(), s.start_us, s.end_us - s.start_us, i,
                   s.parent, workload_.c_str(),
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  double ToUs(Clock::time_point t) const
  {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }
  double NowUs() const { return ToUs(Clock::now()); }

  std::string workload_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/** Scoped span; a null tracer records nothing (the timed runs). */
class Scope {
 public:
  Scope(Tracer* tracer, const std::string& name) : tracer_(tracer)
  {
    if (tracer_ != nullptr) tracer_->Begin(name);
  }
  ~Scope()
  {
    if (tracer_ != nullptr) tracer_->End();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
};

}  // namespace dilu::perfbench

#endif  // DILU_PERFBENCH_TRACE_H_
