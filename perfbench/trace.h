#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// In-memory span recorder for the benchmark's traced runs. The benchmark
/// wraps each call into a library layer's public function in a Span; the
/// spans of one operation share a request id, and a span opened while
/// another is open on the same thread records it as its parent. Nothing
/// is written until WriteJsonl, after the measured window.
///
/// Call sites take a `Tracer*`: null (the untraced run, or an op the
/// traced run leaves bare to measure tracing overhead) records nothing
/// and reads no clock.
class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// One line per span and per count, as JSON objects.
  bool WriteJsonl(const std::string& path) const;

  /// RAII span: opened at construction, closed at destruction.
  class Span {
   public:
    Span(Tracer* tracer, const char* name, uint64_t request);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_ = nullptr;
    int64_t id_ = -1;
    int64_t saved_parent_ = -1;
  };

 private:
  friend void Count(Tracer* tracer, const char* name, double value,
                    uint64_t request);

  struct SpanRecord {
    const char* name = "";
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int64_t parent = -1;
    uint64_t request = 0;
  };
  struct CountRecord {
    const char* name = "";
    double value = 0.0;
    uint64_t request = 0;
  };

  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;    // guarded by mu_
  std::vector<CountRecord> counts_;  // guarded by mu_
};

/// Records a count (bytes, records, regenerations) against a request;
/// a no-op on a null tracer.
void Count(Tracer* tracer, const char* name, double value, uint64_t request);

/// Monotonic nanoseconds (steady_clock).
int64_t NowNs();

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
