#include "trace.h"

#include <chrono>
#include <cstdio>

namespace perfbench {

namespace {
// The innermost open span on this thread: the parent of the next one.
thread_local int64_t t_open_span = -1;
}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer::Span::Span(Tracer* tracer, const char* name, uint64_t request)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  saved_parent_ = t_open_span;
  SpanRecord record;
  record.name = name;
  record.parent = t_open_span;
  record.request = request;
  {
    std::lock_guard<std::mutex> lock(tracer_->mu_);
    id_ = static_cast<int64_t>(tracer_->spans_.size());
    tracer_->spans_.push_back(record);
  }
  t_open_span = id_;
  // Read the clock last so the bookkeeping above is not charged to the
  // span.
  const int64_t start = NowNs();
  std::lock_guard<std::mutex> lock(tracer_->mu_);
  tracer_->spans_[static_cast<size_t>(id_)].start_ns = start;
}

Tracer::Span::~Span() {
  if (tracer_ == nullptr) return;
  const int64_t end = NowNs();
  {
    std::lock_guard<std::mutex> lock(tracer_->mu_);
    tracer_->spans_[static_cast<size_t>(id_)].end_ns = end;
  }
  t_open_span = saved_parent_;
}

void Count(Tracer* tracer, const char* name, double value, uint64_t request) {
  if (tracer == nullptr) return;
  std::lock_guard<std::mutex> lock(tracer->mu_);
  tracer->counts_.push_back(Tracer::CountRecord{name, value, request});
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(out,
                 "{\"span\":\"%s\",\"id\":%zu,\"parent\":%lld,"
                 "\"request\":%llu,\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 s.name, i, static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  for (const CountRecord& c : counts_) {
    std::fprintf(out, "{\"count\":\"%s\",\"value\":%.17g,\"request\":%llu}\n",
                 c.name, c.value, static_cast<unsigned long long>(c.request));
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
