#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <utility>

#include "util.hpp"

namespace perfbench {

namespace {

struct ThreadState {
  std::vector<long> open;  ///< indices of this thread's open spans
  int tid = 0;
};

ThreadState& thread_state() {
  static std::atomic<int> next_tid{1};
  thread_local ThreadState state{{}, next_tid.fetch_add(1)};
  return state;
}

std::string escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

long Tracer::begin(const char* name, std::uint64_t request) {
  if (!enabled_) return -1;
  ThreadState& ts = thread_state();
  SpanRecord rec;
  rec.name = name;
  rec.start_s = now_s();
  rec.tid = ts.tid;
  long index = -1;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (!ts.open.empty()) {
      rec.parent = ts.open.back();
      if (request == 0) request = spans_[static_cast<std::size_t>(rec.parent)].request;
    }
    rec.request = request;
    index = static_cast<long>(spans_.size());
    spans_.push_back(std::move(rec));
  }
  ts.open.push_back(index);
  return index;
}

void Tracer::end(long index) {
  if (index < 0) return;
  const double t = now_s();
  ThreadState& ts = thread_state();
  if (!ts.open.empty() && ts.open.back() == index) ts.open.pop_back();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(index)].end_s = t;
}

std::size_t Tracer::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::map<std::string, SpanTotals> Tracer::totals() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const SpanRecord& s : spans_)
    if (s.parent >= 0)
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_s,
                                                                 s.end_s);
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    const double dur = s.end_s - s.start_s;
    // Union of child intervals clipped to the parent.
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0, cur_lo = 0.0, cur_hi = -1.0;
    for (const auto& [lo0, hi0] : kids) {
      const double lo = std::max(lo0, s.start_s);
      const double hi = std::min(hi0, s.end_s);
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    SpanTotals& t = out[s.name];
    ++t.count;
    t.total_ms += dur * 1e3;
    t.self_ms += (dur - covered) * 1e3;
  }
  return out;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  double t0 = 0.0;
  if (!spans_.empty()) {
    t0 = spans_.front().start_s;
    for (const SpanRecord& s : spans_) t0 = std::min(t0, s.start_s);
  }
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                 "\"parent\":%ld,\"request\":%llu}}",
                 i == 0 ? "" : ",\n", escape(s.name).c_str(),
                 escape(s.name.substr(0, s.name.find('.'))).c_str(), s.tid,
                 (s.start_s - t0) * 1e6, (s.end_s - s.start_s) * 1e6, i,
                 s.parent, static_cast<unsigned long long>(s.request));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
