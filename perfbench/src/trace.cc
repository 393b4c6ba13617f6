#include "trace.h"

#include <cstdio>

namespace perfbench {

int64_t NowNs() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch)
      .count();
}

SpanBuffer Tracer::NewBuffer() {
  std::lock_guard<std::mutex> lock(mu_);
  return SpanBuffer(++buffers_ << 40);
}

void Tracer::Collect(SpanBuffer&& buffer) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span>& in = buffer.spans();
  spans_.insert(spans_.end(), in.begin(), in.end());
  in.clear();
}

std::vector<Span> Tracer::Named(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(s);
  }
  return out;
}

std::map<uint64_t, double> Tracer::ByRequest(const std::string& name) const {
  std::map<uint64_t, double> out;
  for (const Span& s : Named(name)) out[s.request] = s.us();
  return out;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool Tracer::WriteTsv(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name\tstart_ns\tend_ns\tid\tparent\trequest\n");
  for (const Span& s : spans_) {
    std::fprintf(f, "%s\t%lld\t%lld\t%llu\t%llu\t%llu\n", s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
