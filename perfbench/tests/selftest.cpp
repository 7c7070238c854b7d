// Self-test of the benchmark's own helpers: the percentile rule, the
// open-loop schedule, lateness accounting, and span self time.
// Run with `python3 perfbench/run.py --self-test`; exits non-zero on the
// first failed check of any test.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <thread>

#include "trace.hpp"
#include "util.hpp"

namespace {

int g_failures = 0;

#define CHECK(cond)                                                      \
  do {                                                                   \
    if (!(cond)) {                                                       \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__, __LINE__, \
                   #cond);                                               \
      ++g_failures;                                                      \
    }                                                                    \
  } while (0)

using namespace perfbench;

void test_percentile_rule() {
  // The highest ladder percentile with at least ten samples beyond it.
  CHECK(supported_tail_percentile(19) == 0.0);
  CHECK(supported_tail_percentile(20) == 50.0);
  CHECK(supported_tail_percentile(99) == 50.0);
  CHECK(supported_tail_percentile(100) == 90.0);
  CHECK(supported_tail_percentile(199) == 90.0);
  CHECK(supported_tail_percentile(200) == 95.0);
  CHECK(supported_tail_percentile(1000) == 99.0);
  CHECK(supported_tail_percentile(10000) == 99.9);
  CHECK(samples_beyond(200, 95) == 10);

  std::vector<double> v;
  for (int i = 1; i <= 200; ++i) v.push_back(i);
  CHECK(median(v) == 100.0);
  CHECK(percentile(v, 95) == 190.0);
  CHECK(percentile({}, 50) == 0.0);
  // The log line states the sample count and which tail it could support.
  const std::string line = describe_timing("x", v);
  CHECK(line.find("n=200") != std::string::npos);
  CHECK(line.find("p95=190") != std::string::npos);
  CHECK(line.find("10 beyond") != std::string::npos);
  const std::string few = describe_timing("x", {1.0, 2.0});
  CHECK(few.find("n=2") != std::string::npos);
  CHECK(few.find("too few") != std::string::npos);
}

bool same(const std::vector<ScheduledRequest>& a,
          const std::vector<ScheduledRequest>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].due_s != b[i].due_s || a[i].cls != b[i].cls ||
        a[i].tenant != b[i].tenant || a[i].circuit != b[i].circuit ||
        a[i].seed != b[i].seed || a[i].repeat_of != b[i].repeat_of)
      return false;
  return true;
}

void test_schedule_is_pure() {
  const MixSpec mix;
  const auto a = make_schedule(2022, 12.0, 30.0, mix);
  const auto b = make_schedule(2022, 12.0, 30.0, mix);
  CHECK(same(a, b));  // a pure function of (seed, rate, duration)
  CHECK(!same(a, make_schedule(2023, 12.0, 30.0, mix)));
  CHECK(!same(a, make_schedule(2022, 11.0, 30.0, mix)));
  CHECK(!same(a, make_schedule(2022, 12.0, 29.0, mix)));
  CHECK(a.size() == 360);  // round(rate * duration) arrivals

  std::size_t bulk = 0, characterize = 0, repeats = 0;
  std::set<std::string> tenants;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const ScheduledRequest& r = a[i];
    CHECK(r.due_s >= 0.0 && r.due_s < 30.0);
    if (i > 0) CHECK(a[i - 1].due_s <= r.due_s);
    tenants.insert(r.tenant);
    if (r.cls != RequestClass::kInteractive) {
      ++bulk;
      CHECK(r.tenant == "bulk");
      CHECK(r.repeat_of < 0);
    }
    if (r.cls == RequestClass::kCharacterize) ++characterize;
    if (r.repeat_of >= 0) {
      ++repeats;
      const ScheduledRequest& orig = a[static_cast<std::size_t>(r.repeat_of)];
      CHECK(orig.repeat_of < 0);
      CHECK(orig.circuit == r.circuit && orig.seed == r.seed);
      CHECK(r.due_s - orig.due_s >= mix.repeat_lag_s);
    }
  }
  const auto share = [](std::size_t n, double s) {
    return static_cast<std::size_t>(std::llround(static_cast<double>(n) * s));
  };
  CHECK(bulk == share(360, mix.bulk_share));
  CHECK(characterize == share(bulk, mix.characterize_share));
  // About repeat_share of the interactive arrivals, minus those in the first
  // repeat_lag_s that have nothing old enough to repeat.
  CHECK(repeats <= share(360 - bulk, mix.repeat_share));
  CHECK(repeats >= share(360 - bulk, mix.repeat_share) * 2 / 3);
  CHECK(tenants == std::set<std::string>({"alice", "bob", "bulk"}));
  CHECK(make_schedule(1, 0.0, 30.0).empty());
}

void test_lateness_from_due_time() {
  CHECK(lateness_ms(1.0, 1.25) == 250.0);
  CHECK(lateness_ms(1.0, 0.75) == 0.0);  // early sends are not late
  // A request due at 1.0 but sent at 1.25 and done at 1.5 took 500 ms:
  // the 250 ms it waited for a free connection counts.
  CHECK(latency_from_due_ms(1.0, 1.5) == 500.0);
}

void test_span_self_time() {
  Tracer& t = Tracer::global();
  t.enable(true);
  {
    const Span parent("parent", 7);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    {
      const Span child("child");
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
    }
  }
  t.enable(false);
  { const Span ignored("ignored"); }
  const auto totals = t.totals();
  CHECK(totals.count("ignored") == 0);
  const SpanTotals& p = totals.at("parent");
  const SpanTotals& c = totals.at("child");
  CHECK(p.count == 1 && c.count == 1);
  CHECK(c.self_ms == c.total_ms);
  CHECK(p.total_ms >= c.total_ms + 19.0);
  CHECK(p.self_ms >= 19.0 && p.self_ms < p.total_ms - 29.0);
}

}  // namespace

int main() {
  test_percentile_rule();
  test_schedule_is_pure();
  test_lateness_from_due_time();
  test_span_self_time();
  if (g_failures == 0) std::printf("perfbench self-test: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
