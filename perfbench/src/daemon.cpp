#include "daemon.hpp"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "algos/registry.hpp"
#include "backend/backend.hpp"
#include "characterize/report_io.hpp"
#include "core/report_io.hpp"
#include "probes.hpp"
#include "service/client.hpp"
#include "service/json.hpp"
#include "trace.hpp"

extern char** environ;

namespace perfbench {

namespace cs = charter::service;
namespace cb = charter::backend;

namespace {

void sleep_s(double s) {
  if (s > 0) std::this_thread::sleep_for(std::chrono::duration<double>(s));
}

/// Arrival rate of the daemon_mix open loop; part of the workload, fixed.
/// At 8/s a 40 s run holds more than 200 fresh interactive analyses (so
/// their p95 has ten samples beyond it) and the daemon is about 35% busy
/// on a 4-core x86-64 box.  Busier mixes spread too much from run to run
/// for a gate (see README.md).
constexpr double kMixRatePerS = 8.0;
/// Gates characterized per characterize request.
constexpr int kTopK = 3;
/// Daemon spawns timed for setup_s (median reported).
constexpr int kSetupReps = 9;

std::string submit_line(const ScheduledRequest& r) {
  std::string line = std::string("{\"op\":\"") +
                     (r.cls == RequestClass::kCharacterize ? "characterize"
                                                           : "submit") +
                     "\",\"tenant\":\"" + r.tenant + "\",\"benchmark\":\"" +
                     r.circuit + "\",\"seed\":" + std::to_string(r.seed);
  if (r.cls == RequestClass::kCharacterize)
    line += ",\"top_k\":" + std::to_string(kTopK);
  return line + "}";
}

std::string ok_error(const cs::JsonValue& v) {
  const cs::JsonValue* ok = v.find("ok");
  if (ok != nullptr && ok->boolean) return "";
  const cs::JsonValue* err = v.find("error");
  const cs::JsonValue* msg = err != nullptr ? err->find("message") : nullptr;
  return msg != nullptr ? msg->string : "request failed";
}

/// Analyzed-gate counts per circuit key, from an in-process compile on the
/// daemon's device (same calibration seed).
std::map<std::string, std::size_t> expected_counts(
    const std::vector<std::string>& keys) {
  const cb::FakeBackend lagos = cb::FakeBackend::lagos();
  std::map<std::string, std::size_t> out;
  for (const std::string& k : keys)
    if (!out.count(k))
      out[k] = expected_analyzed(
          lagos.compile(charter::algos::find_benchmark(k).build()).physical, 0);
  return out;
}

/// Sends one request and records what happened.  Every failure — a
/// refused submit, a job that did not finish, a report that fails a check
/// — is counted in \p outcome.
RequestRecord perform(cs::Client& client, const ScheduledRequest& r,
                      std::uint64_t request_id, double t0,
                      const std::map<std::string, std::size_t>& expected,
                      Reference& reference, Outcome& outcome) {
  const Span root("loadgen.request", request_id);
  RequestRecord rec;
  rec.cls = r.cls;
  rec.due_s = r.due_s;
  rec.repeat = r.repeat_of >= 0;
  outcome.attempt();
  try {
    rec.sent_s = now_s() - t0;
    cs::JsonValue ack;
    {
      const Span s("service.submit");
      ack = client.call(submit_line(r));
    }
    rec.acked_s = now_s() - t0;
    rec.submit_ms = (rec.acked_s - rec.sent_s) * 1e3;
    const cs::JsonValue* job_id = ack.find("job");
    if (std::string e = ok_error(ack); !e.empty() || job_id == nullptr) {
      outcome.fail(r.circuit + ": submit refused: " + e);
      return rec;
    }
    const std::string job =
        std::to_string(static_cast<long long>(job_id->number));
    cs::JsonValue waited;
    {
      const Span s("service.wait");
      waited = client.call("{\"op\":\"wait\",\"job\":" + job + "}");
    }
    rec.ended_s = now_s() - t0;
    const cs::JsonValue* status = waited.find("status");
    if (status == nullptr || status->string != "done") {
      outcome.fail(r.circuit + ": job " + job + " ended " +
                   (status != nullptr ? status->string : ok_error(waited)));
      return rec;
    }
    std::string line;
    const double f0 = now_s();
    {
      const Span s("service.fetch");
      line = client.call_raw("{\"op\":\"fetch\",\"job\":" + job + "}");
    }
    rec.fetched_s = now_s() - t0;
    rec.fetch_ms = (now_s() - f0) * 1e3;
    rec.fetch_bytes = line.size();

    const Span check("check.report");
    const std::size_t analyzed = expected.at(r.circuit);
    const std::string key =
        std::string(r.cls == RequestClass::kCharacterize ? "characterize/"
                                                         : "analyze/") +
        r.circuit + "/" + std::to_string(r.seed);
    std::string problem;
    if (r.cls == RequestClass::kCharacterize) {
      const std::string marker = "\"characterization\":";
      const std::size_t at = line.find(marker);
      if (at == std::string::npos || line.back() != '}') {
        problem = "fetch carried no characterization";
      } else {
        const std::size_t begin = at + marker.size();
        const auto report = charter::characterize::characterization_from_json(
            line.substr(begin, line.size() - begin - 1));
        problem = check_characterization(
            report, std::min<std::size_t>(kTopK, analyzed));
        rec.exec = report.exec_stats;
        if (problem.empty()) {
          const auto [ops, values] = characterization_signature(report);
          reference.check(key, ops, values, outcome);
        }
      }
    } else {
      const charter::core::GoldenReport g = charter::core::report_from_json(
          cs::Client::extract_report_json(line));
      problem = check_report(g.report, analyzed);
      rec.exec = g.exec;
      rec.analyzed = g.report.analyzed_gates;
      if (problem.empty()) {
        const auto [ops, values] = report_signature(g.report);
        reference.check(key, ops, values, outcome);
      }
    }
    if (!problem.empty()) {
      outcome.fail(key + ": " + problem);
      return rec;
    }
    rec.ok = true;
  } catch (const std::exception& e) {
    outcome.fail(r.circuit + ": " + e.what());
  }
  return rec;
}

/// A set of connections serving a subset of the schedule: each connection
/// takes the lane's earliest unclaimed request, sleeps until it is due, and
/// runs it to completion.
struct Lane {
  int connections = 1;
  std::vector<std::size_t> requests;  ///< schedule indices, due order
};

/// Sends \p schedule over \p lanes; returns one record per request.
std::vector<RequestRecord> drive(const Daemon& daemon,
                                 const std::vector<ScheduledRequest>& schedule,
                                 const std::vector<Lane>& lanes, double t0,
                                 const std::map<std::string, std::size_t>& expected,
                                 Reference& reference, Outcome& outcome) {
  std::vector<RequestRecord> records(schedule.size());
  std::vector<std::atomic<std::size_t>> next(lanes.size());
  std::mutex errors_mu;
  std::vector<std::string> errors;  // guarded by errors_mu
  std::vector<std::thread> threads;
  for (std::size_t l = 0; l < lanes.size(); ++l) {
    for (int c = 0; c < lanes[l].connections; ++c) {
      threads.emplace_back([&, l] {
        const std::vector<std::size_t>& mine = lanes[l].requests;
        try {
          cs::Client client(daemon.socket());
          for (;;) {
            const std::size_t k = next[l].fetch_add(1);
            if (k >= mine.size()) return;
            const std::size_t i = mine[k];
            sleep_s(t0 + schedule[i].due_s - now_s());
            records[i] = perform(client, schedule[i], i + 1, t0, expected,
                                 reference, outcome);
          }
        } catch (const std::exception& e) {
          const std::lock_guard<std::mutex> lock(errors_mu);
          errors.push_back(e.what());
        }
      });
    }
  }
  for (std::thread& t : threads) t.join();
  for (const std::string& e : errors) outcome.fail("connection failed: " + e);
  // Requests no live connection claimed are failures, not omissions.
  for (std::size_t l = 0; l < lanes.size(); ++l) {
    for (std::size_t k = next[l].load(); k < lanes[l].requests.size(); ++k) {
      outcome.attempt();
      outcome.fail("request " + std::to_string(lanes[l].requests[k]) +
                   " was never sent");
    }
  }
  return records;
}

/// \p count 7-qubit analyses (qft7) on \p daemon, one after another, each
/// timed from submit to report fetched; returns the median in ms.  Wide
/// circuits are kept out of the gated mix (see MixSpec) and measured here.
double wide_analyze_ms(const Daemon& daemon, std::uint64_t seed, int count,
                       Outcome& outcome) {
  const Span span("probe.wide_analyze");
  const auto expected = expected_counts({"qft7"});
  Reference none(Options{});  // structural checks only
  cs::Client client(daemon.socket());
  std::vector<double> ms;
  for (int i = 0; i < count; ++i) {
    ScheduledRequest r;
    r.cls = RequestClass::kBulkAnalyze;
    r.tenant = "bulk";
    r.circuit = "qft7";
    r.seed = seed + 100 + static_cast<std::uint64_t>(i);
    const double t0 = now_s();
    perform(client, r, (1u << 30) + static_cast<std::uint64_t>(i), t0,
            expected, none, outcome);
    ms.push_back((now_s() - t0) * 1e3);
  }
  return median(ms);
}

std::vector<double> ping_rtts(const Daemon& daemon, int n) {
  cs::Client client(daemon.socket());
  std::vector<double> out;
  for (int i = 0; i < n; ++i) {
    const Span s("service.ping");
    const double p0 = now_s();
    client.call("{\"op\":\"ping\"}");
    out.push_back((now_s() - p0) * 1e3);
  }
  return out;
}

std::string stats_line(const Daemon& daemon) {
  cs::Client client(daemon.socket());
  return client.call_raw("{\"op\":\"stats\"}");
}

double num(const cs::JsonValue* v, const char* key) {
  const cs::JsonValue* x = v != nullptr ? v->find(key) : nullptr;
  return x != nullptr ? x->number : 0.0;
}

charter::exec::RunCache::Stats cache_from_stats(const std::string& line) {
  const cs::JsonValue v = cs::parse_json(line);
  const cs::JsonValue* cache = v.find("cache");
  charter::exec::RunCache::Stats s;
  const auto tier = [&](const char* name,
                        charter::exec::RunCache::TierStats& t) {
    const cs::JsonValue* j = cache != nullptr ? cache->find(name) : nullptr;
    t.hits = static_cast<std::size_t>(num(j, "hits"));
    t.misses = static_cast<std::size_t>(num(j, "misses"));
    t.evictions = static_cast<std::size_t>(num(j, "evictions"));
    t.entries = static_cast<std::size_t>(num(j, "entries"));
    t.bytes = static_cast<std::size_t>(num(j, "bytes"));
  };
  tier("memory", s.memory);
  tier("disk", s.disk);
  s.hits = s.memory.hits + s.disk.hits;
  s.misses = s.disk.misses;  // a memory miss falls through to the disk tier
  s.entries = s.memory.entries;
  s.evictions = s.memory.evictions + s.disk.evictions;
  return s;
}

}  // namespace

// ---------------------------------------------------------------------------
// Daemon
// ---------------------------------------------------------------------------

Daemon::Daemon(const Options& options, const std::string& tag) {
  const std::string dir = options.work_dir + "/" + tag;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir + "/cache");
  socket_ = dir + "/s.sock";
  const std::string log = dir + "/charterd.log";
  const std::string threads = std::to_string(options.threads);
  const std::string cache = dir + "/cache";
  std::vector<std::string> args = {options.charterd, "--socket",  socket_,
                                   "--backend",      "lagos",     "--threads",
                                   threads,          "--cache-dir", cache};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 1, log.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&actions, 1, 2);
  spawned_s_ = now_s();
  const int rc = posix_spawn(&pid_, options.charterd.c_str(), &actions,
                             nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    pid_ = -1;
    throw std::runtime_error("cannot spawn " + options.charterd);
  }
}

Daemon::~Daemon() {
  if (pid_ > 0) {
    kill(pid_, SIGKILL);
    waitpid(pid_, nullptr, 0);
  }
}

double Daemon::wait_ready(double timeout_s) {
  for (;;) {
    try {
      cs::Client client(socket_);
      const cs::JsonValue v = client.call("{\"op\":\"ping\"}");
      if (ok_error(v).empty()) return now_s() - spawned_s_;
    } catch (const std::exception&) {
      // not listening yet
    }
    if (pid_ > 0 && waitpid(pid_, nullptr, WNOHANG) == pid_) {
      pid_ = -1;
      throw std::runtime_error("charterd exited during start-up");
    }
    if (now_s() - spawned_s_ > timeout_s)
      throw std::runtime_error("charterd did not answer ping");
    sleep_s(0.0005);
  }
}

double Daemon::peak_rss_mb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      in >> kb;
      return kb / 1024.0;
    }
    std::string rest;
    std::getline(in, rest);
  }
  return 0.0;
}

double Daemon::cpu_s() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  // Fields after the parenthesized command name; utime and stime are the
  // 14th and 15th fields overall.
  const std::size_t close = content.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream rest(content.substr(close + 2));
  std::string field;
  double utime = 0, stime = 0;
  for (int i = 3; i <= 15 && (rest >> field); ++i) {
    if (i == 14) utime = std::stod(field);
    if (i == 15) stime = std::stod(field);
  }
  return (utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

bool Daemon::shutdown(double timeout_s) {
  if (pid_ <= 0) return false;
  try {
    cs::Client client(socket_);
    client.call("{\"op\":\"shutdown\"}");
  } catch (const std::exception&) {
    kill(pid_, SIGTERM);
  }
  const double deadline = now_s() + timeout_s;
  int status = 0;
  for (;;) {
    const pid_t r = waitpid(pid_, &status, WNOHANG);
    if (r == pid_) break;
    if (now_s() > deadline) {
      kill(pid_, SIGKILL);
      waitpid(pid_, &status, 0);
      pid_ = -1;
      return false;
    }
    sleep_s(0.002);
  }
  pid_ = -1;
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

// ---------------------------------------------------------------------------
// Service metrics
// ---------------------------------------------------------------------------

std::vector<double> inferred_queue_waits_ms(
    const std::vector<RequestRecord>& records, double* busy_s) {
  std::vector<const RequestRecord*> ended;
  for (const RequestRecord& r : records)
    if (r.ended_s > 0) ended.push_back(&r);
  std::sort(ended.begin(), ended.end(), [](const auto* a, const auto* b) {
    return a->ended_s < b->ended_s;
  });
  std::vector<double> waits;
  double prev_end = 0.0, busy = 0.0;
  for (const RequestRecord* r : ended) {
    const double start = std::min(std::max(r->acked_s, prev_end), r->ended_s);
    waits.push_back((start - r->acked_s) * 1e3);
    busy += r->ended_s - start;
    prev_end = r->ended_s;
  }
  if (busy_s != nullptr) *busy_s = busy;
  return waits;
}

void report_service_layers(Outcome& o, const std::vector<RequestRecord>& recs,
                           const std::vector<double>& ping_ms,
                           const std::string& stats_before,
                           const std::string& stats_after) {
  std::vector<double> submit, fetch;
  double fetch_bytes = 0;
  for (const RequestRecord& r : recs) {
    if (r.acked_s > 0) submit.push_back(r.submit_ms);
    if (r.fetched_s > 0) {
      fetch.push_back(r.fetch_ms);
      fetch_bytes += static_cast<double>(r.fetch_bytes);
    }
  }
  const std::vector<double> waits = inferred_queue_waits_ms(recs, nullptr);
  const cs::JsonValue before = cs::parse_json(stats_before);
  const cs::JsonValue after = cs::parse_json(stats_after);
  const auto jobs = [&](const char* key) {
    return num(after.find("scheduler"), key) - num(before.find("scheduler"), key);
  };
  o.layer("service.ping_ms", median(ping_ms), "ms");
  o.layer("service.submit_ms", median(submit), "ms");
  o.layer("service.queue_wait_p50_ms", median(waits), "ms");
  o.layer("service.queue_wait_p95_ms", percentile(waits, 95), "ms");
  o.layer("service.fetch_ms", median(fetch), "ms");
  o.layer("service.fetch_kb",
          fetch.empty() ? 0.0 : fetch_bytes / static_cast<double>(fetch.size()) / 1024.0,
          "KB");
  o.layer("service.jobs_done", jobs("done"), "count");
  o.layer("service.jobs_failed", jobs("failed"), "count");
  o.layer("service.jobs_cancelled", jobs("cancelled"), "count");
  o.notes.push_back(describe_timing("service.queue_wait (inferred)", waits));
}

void run_service_probe(const Options& options, Outcome& outcome) {
  const Span span("probe.service");
  Daemon daemon(options, "service-probe");
  daemon.wait_ready();
  const std::vector<double> pings = ping_rtts(daemon, 20);
  std::vector<ScheduledRequest> burst;
  for (int i = 0; i < options.threads; ++i) {
    ScheduledRequest r;
    r.tenant = i % 2 == 0 ? "alice" : "bob";
    r.circuit = "qft3";
    r.seed = options.seed + 1 + static_cast<std::uint64_t>(i);
    burst.push_back(r);
  }
  Reference none(Options{});  // structural checks only
  const auto expected = expected_counts({"qft3"});
  const std::string before = stats_line(daemon);
  Lane lane;
  lane.connections = static_cast<int>(burst.size());
  for (std::size_t i = 0; i < burst.size(); ++i) lane.requests.push_back(i);
  const std::vector<RequestRecord> recs =
      drive(daemon, burst, {lane}, now_s(), expected, none, outcome);
  report_service_layers(outcome, recs, pings, before, stats_line(daemon));
  outcome.layer("service.wide_analyze_ms",
                wide_analyze_ms(daemon, options.seed, 1, outcome), "ms");
  if (!daemon.shutdown()) outcome.fail("charterd did not drain cleanly");
}

// ---------------------------------------------------------------------------
// daemon_mix
// ---------------------------------------------------------------------------

void run_daemon_mix(const Options& options, Outcome& o) {
  const MixSpec mix;
  const std::vector<ScheduledRequest> schedule =
      make_schedule(options.seed, kMixRatePerS, options.seconds, mix);
  std::vector<std::string> keys = mix.interactive;
  keys.insert(keys.end(), mix.bulk_analyze.begin(), mix.bulk_analyze.end());
  keys.insert(keys.end(), mix.characterize.begin(), mix.characterize.end());
  const auto expected = expected_counts(keys);
  Reference reference(options);

  // Set-up: spawn until the daemon answers ping.  The last spawn serves
  // the measured run; each spawn gets a fresh cache directory.
  std::vector<double> setup;
  std::unique_ptr<Daemon> daemon;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const Span span("setup.daemon");
    if (daemon) daemon->shutdown();
    daemon = std::make_unique<Daemon>(options, "mix-" + std::to_string(rep));
    setup.push_back(daemon->wait_ready());
  }
  const std::vector<double> pings = ping_rtts(*daemon, 20);

  // Warm-up before the timed window: every circuit of the mix once, under
  // the tenant and operation the schedule uses it with, at seeds the
  // schedule does not draw (>= 2^30), so the daemon's first-request costs
  // do not land on the first seconds of the measurement and no scheduled
  // request is served from the cache.
  {
    const Span span("setup.warmup");
    cs::Client client(daemon->socket());
    Reference none(Options{});  // structural checks only
    std::uint64_t seed = (1ull << 30) + 1;
    const auto warm = [&](RequestClass cls, const char* tenant,
                          const std::vector<std::string>& circuits) {
      for (const std::string& c : circuits) {
        ScheduledRequest r;
        r.cls = cls;
        r.tenant = tenant;
        r.circuit = c;
        r.seed = seed++;
        perform(client, r, 0, now_s(), expected, none, o);
      }
    };
    warm(RequestClass::kInteractive, "alice", mix.interactive);
    warm(RequestClass::kInteractive, "bob", mix.interactive);
    warm(RequestClass::kBulkAnalyze, "bulk", mix.bulk_analyze);
    warm(RequestClass::kCharacterize, "bulk", mix.characterize);
  }

  // Each tenant is its own client: the interactive tenants share nproc - 1
  // connections, the bulk tenant has one, so a bulk backlog queues on its
  // own connection (and in the daemon), never in front of interactive work.
  std::vector<Lane> lanes(2);
  lanes[0].connections = std::max(1, options.threads - 1);
  lanes[1].connections = 1;
  for (std::size_t i = 0; i < schedule.size(); ++i)
    lanes[schedule[i].tenant == "bulk" ? 1 : 0].requests.push_back(i);
  const int connections = lanes[0].connections + lanes[1].connections;
  const std::string stats_before = stats_line(*daemon);
  const double cpu0 = daemon->cpu_s();
  const double t0 = now_s();
  std::vector<RequestRecord> recs;
  {
    const Span span("workload.daemon_mix");
    recs = drive(*daemon, schedule, lanes, t0, expected, reference, o);
  }
  const double window = now_s() - t0;
  const double cpu1 = daemon->cpu_s();
  const std::string stats = stats_line(*daemon);
  const double rss = daemon->peak_rss_mb();
  const double wide_ms = Tracer::global().enabled()
                             ? wide_analyze_ms(*daemon, options.seed, 3, o)
                             : 0.0;
  if (!daemon->shutdown()) o.fail("charterd did not drain cleanly");
  if (!reference.save()) o.fail("cannot write the reference");

  std::vector<double> miss_ms, hit_ms, char_ms, bulk_ms, late_ms;
  std::size_t completed = 0, gates = 0;
  double last_done = 0.0;
  charter::exec::BatchRunner::Stats exec;
  for (const RequestRecord& r : recs) {
    if (r.sent_s > 0) late_ms.push_back(lateness_ms(r.due_s, r.sent_s));
    if (!r.ok) continue;
    ++completed;
    last_done = std::max(last_done, r.fetched_s);
    accumulate(exec, r.exec);
    gates += r.analyzed;
    const double ms = latency_from_due_ms(r.due_s, r.fetched_s);
    switch (r.cls) {
      case RequestClass::kInteractive:
        (r.repeat ? hit_ms : miss_ms).push_back(ms);
        break;
      case RequestClass::kBulkAnalyze:
        bulk_ms.push_back(ms);
        break;
      case RequestClass::kCharacterize:
        char_ms.push_back(ms);
        break;
    }
  }
  report_e2e(o, median(setup), static_cast<double>(gates), last_done,
             static_cast<double>(completed), last_done, miss_ms, rss);
  // Beyond the common set: repeated requests (served from the cache) and
  // characterizations, due time to report fetched.
  o.e2e("hit_p50_ms", median(hit_ms), "ms");
  o.e2e("characterize_p50_ms", median(char_ms), "ms");
  o.notes.push_back(describe_timing("repeated request", hit_ms));
  o.notes.push_back(describe_timing("characterize", char_ms));

  double busy = 0.0;
  inferred_queue_waits_ms(recs, &busy);
  o.notes.push_back(describe_timing("analyze (bulk)", bulk_ms));
  o.notes.push_back(describe_timing("loadgen lateness", late_ms));
  char buf[300];
  std::snprintf(buf, sizeof(buf),
                "offered %zu requests at %.1f/s over %.0f s on %d connections; "
                "daemon busy %.0f%% (inferred), CPU %.2f core-s over a %.2f s "
                "window; load generator CPU %.2f core-s",
                schedule.size(), kMixRatePerS, options.seconds, connections,
                100.0 * busy / window, cpu1 - cpu0, window, self_cpu_s());
  o.notes.push_back(buf);
  if (reference.active()) {
    std::snprintf(buf, sizeof(buf),
                  "reference: %zu outputs matched, %zu unreferenced",
                  reference.matched(), reference.unreferenced());
    o.notes.push_back(buf);
  }

  if (!Tracer::global().enabled()) return;

  // Per-layer metrics of the traced run.
  report_service_layers(o, recs, pings, stats_before, stats);
  o.layer("service.wide_analyze_ms", wide_ms, "ms");
  report_exec_layers(o, exec, gates, cache_from_stats(stats_before),
                     cache_from_stats(stats));
  o.layer("exec.cpu_util",
          window > 0 ? (cpu1 - cpu0) / (window * options.threads) : 0.0,
          "ratio");
  o.layer("loadgen.offered_per_s",
          static_cast<double>(schedule.size()) / options.seconds, "1/s");
  o.layer("loadgen.late_p95_ms", percentile(late_ms, 95), "ms");
  const auto totals = Tracer::global().totals();
  const auto it = totals.find("loadgen.request");
  o.layer("api.unattributed_ms",
          it != totals.end() && it->second.count > 0
              ? it->second.self_ms / static_cast<double>(it->second.count)
              : 0.0,
          "ms");

  // In-process probes on the mix's own circuits.
  const auto lagos = std::make_shared<const cb::FakeBackend>(cb::FakeBackend::lagos());
  std::vector<ProbeCircuit> probes;
  std::vector<std::string> unique_keys = keys;
  std::sort(unique_keys.begin(), unique_keys.end());
  unique_keys.erase(std::unique(unique_keys.begin(), unique_keys.end()),
                    unique_keys.end());
  for (const std::string& k : unique_keys) {
    ProbeCircuit pc;
    pc.key = k;
    pc.backend = lagos.get();
    pc.build = charter::algos::find_benchmark(k).build;
    pc.run.shots = 8192;
    pc.run.seed = options.seed;
    probes.push_back(std::move(pc));
  }
  run_layer_probes(probes, 5, o);
  charter::Session session(lagos, charter::SessionConfig().shots(8192).seed(
                                      options.seed));
  const cb::CompiledProgram program = session.compile(
      charter::algos::find_benchmark(mix.characterize.front()).build());
  Reference none(Options{});  // structural checks only
  o.layer("characterize.run_ms",
          characterize_timed(session, program, session.analyze(program), kTopK,
                             "probe", none, o),
          "ms");
}

}  // namespace perfbench
