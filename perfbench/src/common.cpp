#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/reversal.hpp"
#include "service/json.hpp"
#include "util.hpp"

namespace perfbench {

namespace cs = charter::service;

// ---------------------------------------------------------------------------
// Outcome
// ---------------------------------------------------------------------------

void Outcome::attempt(std::size_t n) {
  const std::lock_guard<std::mutex> lock(mu_);
  attempted_ += n;
}

void Outcome::fail(const std::string& what) {
  const std::lock_guard<std::mutex> lock(mu_);
  ++failed_;
  if (failures_.size() < 20) failures_.push_back(what);
}

std::size_t Outcome::attempted() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return attempted_;
}

std::size_t Outcome::failed() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return failed_;
}

std::vector<std::string> Outcome::failures() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return failures_;
}

// ---------------------------------------------------------------------------
// Reference
// ---------------------------------------------------------------------------

Reference::Reference(const Options& options)
    : workload_(options.workload),
      seed_(options.seed),
      seconds_(options.seconds),
      record_path_(options.write_reference) {
  if (!record_path_.empty() || options.reference_dir.empty()) return;
  const std::string path =
      options.reference_dir + "/" + options.workload + ".json";
  std::ifstream in(path);
  if (!in) return;
  std::stringstream buf;
  buf << in.rdbuf();
  const cs::JsonValue doc = cs::parse_json(buf.str());
  const cs::JsonValue* seed = doc.find("seed");
  if (seed == nullptr || static_cast<std::uint64_t>(seed->number) != options.seed)
    return;
  const cs::JsonValue* entries = doc.find("entries");
  if (entries == nullptr) return;
  for (const cs::JsonValue& e : entries->array) {
    Entry entry;
    for (const cs::JsonValue& v : e.find("ops")->array)
      entry.ops.push_back(static_cast<std::size_t>(v.number));
    for (const cs::JsonValue& v : e.find("values")->array)
      entry.values.push_back(v.number);
    entries_.emplace_back(e.find("key")->string, std::move(entry));
  }
  active_ = true;
}

void Reference::check(const std::string& key,
                      const std::vector<std::size_t>& ops,
                      const std::vector<double>& values, Outcome& outcome) {
  if (!record_path_.empty()) {
    const std::lock_guard<std::mutex> lock(mu_);
    recorded_.emplace_back(key, Entry{ops, values});
    return;
  }
  if (!active_) return;
  const Entry* want = nullptr;
  for (const auto& [k, e] : entries_)
    if (k == key) want = &e;
  if (want == nullptr) {
    const std::lock_guard<std::mutex> lock(mu_);
    ++unreferenced_;
    return;
  }
  std::string problem;
  if (want->ops != ops) {
    problem = "analyzed op indices differ";
  } else {
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (!(std::fabs(values[i] - want->values[i]) <= kTolerance)) {
        char buf[160];
        std::snprintf(buf, sizeof(buf), "value %zu (op %zu) is %.12g, expected %.12g",
                      i, ops[i], values[i], want->values[i]);
        problem = buf;
        break;
      }
    }
  }
  if (!problem.empty()) {
    outcome.fail("reference mismatch for " + key + ": " + problem);
    return;
  }
  const std::lock_guard<std::mutex> lock(mu_);
  ++matched_;
}

bool Reference::save() const {
  if (record_path_.empty()) return true;
  std::FILE* f = std::fopen(record_path_.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "{\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,"
               "\"tolerance\":%g,\"entries\":[",
               workload_.c_str(), static_cast<unsigned long long>(seed_),
               seconds_, kTolerance);
  const std::lock_guard<std::mutex> lock(mu_);
  auto sorted = recorded_;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  // A repeated request records its key again; keep the first.
  sorted.erase(std::unique(sorted.begin(), sorted.end(),
                           [](const auto& a, const auto& b) {
                             return a.first == b.first;
                           }),
               sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    const auto& [key, e] = sorted[i];
    std::fprintf(f, "%s\n{\"key\":\"%s\",\"ops\":[", i == 0 ? "" : ",",
                 key.c_str());
    for (std::size_t k = 0; k < e.ops.size(); ++k)
      std::fprintf(f, "%s%zu", k == 0 ? "" : ",", e.ops[k]);
    std::fprintf(f, "],\"values\":[");
    for (std::size_t k = 0; k < e.values.size(); ++k)
      std::fprintf(f, "%s%.12g", k == 0 ? "" : ",", e.values[k]);
    std::fprintf(f, "]}");
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

std::size_t Reference::matched() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return matched_;
}

std::size_t Reference::unreferenced() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return unreferenced_;
}

// ---------------------------------------------------------------------------
// Structural checks
// ---------------------------------------------------------------------------

namespace {

std::string check_distribution(const std::vector<double>& p,
                               const char* what) {
  if (p.empty()) return std::string(what) + " is empty";
  double sum = 0.0;
  for (const double v : p) {
    if (!(v >= -1e-12)) return std::string(what) + " has a negative entry";
    sum += v;
  }
  if (!(std::fabs(sum - 1.0) <= 1e-9)) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s sums to %.15g", what, sum);
    return buf;
  }
  return "";
}

}  // namespace

std::string check_report(const charter::core::CharterReport& report,
                         std::size_t expected_analyzed) {
  if (report.analyzed_gates != expected_analyzed ||
      report.impacts.size() != expected_analyzed)
    return "analyzed " + std::to_string(report.impacts.size()) +
           " gates, expected " + std::to_string(expected_analyzed);
  if (std::string e = check_distribution(report.original_distribution,
                                         "original distribution");
      !e.empty())
    return e;
  const bool validation = !report.ideal_distribution.empty();
  if (validation) {
    if (std::string e = check_distribution(report.ideal_distribution,
                                           "ideal distribution");
        !e.empty())
      return e;
  }
  for (const charter::core::GateImpact& g : report.impacts) {
    if (!(g.tvd >= 0.0 && g.tvd <= 1.0))
      return "TVD outside [0, 1] at op " + std::to_string(g.op_index);
    if (validation && !(g.tvd_vs_ideal >= 0.0 && g.tvd_vs_ideal <= 1.0))
      return "ideal TVD outside [0, 1] at op " + std::to_string(g.op_index);
  }
  return "";
}

std::string check_characterization(
    const charter::characterize::CharacterizationReport& report,
    std::size_t expected_gates) {
  if (report.gates.size() != expected_gates)
    return "characterized " + std::to_string(report.gates.size()) +
           " gates, expected " + std::to_string(expected_gates);
  if (std::string e = check_distribution(report.original_distribution,
                                         "original distribution");
      !e.empty())
    return e;
  for (const auto& g : report.gates) {
    if (!std::isfinite(g.severity))
      return "non-finite severity at op " + std::to_string(g.op_index);
    if (!(g.charter_tvd >= 0.0 && g.charter_tvd <= 1.0))
      return "Charter TVD outside [0, 1] at op " + std::to_string(g.op_index);
  }
  return "";
}

std::size_t expected_analyzed(const charter::circ::Circuit& physical, int cap) {
  const std::size_t eligible =
      charter::core::reversible_ops(physical, /*skip_rz=*/true).size();
  return cap > 0 ? std::min(eligible, static_cast<std::size_t>(cap)) : eligible;
}

std::pair<std::vector<std::size_t>, std::vector<double>> report_signature(
    const charter::core::CharterReport& report) {
  std::pair<std::vector<std::size_t>, std::vector<double>> out;
  for (const charter::core::GateImpact& g : report.impacts) {
    out.first.push_back(g.op_index);
    out.second.push_back(g.tvd);
  }
  return out;
}

std::pair<std::vector<std::size_t>, std::vector<double>>
characterization_signature(
    const charter::characterize::CharacterizationReport& report) {
  std::pair<std::vector<std::size_t>, std::vector<double>> out;
  for (const auto& g : report.gates) {
    out.first.push_back(g.op_index);
    out.second.push_back(g.severity);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Exec-layer counters
// ---------------------------------------------------------------------------

void accumulate(charter::exec::BatchRunner::Stats& into,
                const charter::exec::BatchRunner::Stats& s) {
  into.jobs += s.jobs;
  into.cache_hits += s.cache_hits;
  into.cache_memory_hits += s.cache_memory_hits;
  into.cache_disk_hits += s.cache_disk_hits;
  into.checkpointed += s.checkpointed;
  into.trajectory_checkpointed += s.trajectory_checkpointed;
  into.full_runs += s.full_runs;
  into.checkpoint_fallbacks += s.checkpoint_fallbacks;
  into.strategy_jobs.dm_exact += s.strategy_jobs.dm_exact;
  into.strategy_jobs.dm_fused += s.strategy_jobs.dm_fused;
  into.strategy_jobs.dm_fused_wide += s.strategy_jobs.dm_fused_wide;
  into.strategy_jobs.trajectory += s.strategy_jobs.trajectory;
  into.strategy_jobs.checkpoint_splice += s.strategy_jobs.checkpoint_splice;
}

void report_exec_layers(Outcome& o,
                        const charter::exec::BatchRunner::Stats& exec,
                        std::size_t analyzed_gates,
                        const charter::exec::RunCache::Stats& before,
                        const charter::exec::RunCache::Stats& after) {
  const auto d = [](std::size_t a, std::size_t b) {
    return static_cast<double>(a >= b ? a - b : 0);
  };
  const double jobs = static_cast<double>(exec.jobs);
  o.layer("core.runs_per_gate",
          analyzed_gates > 0 ? jobs / static_cast<double>(analyzed_gates) : 0.0,
          "runs/gate");
  o.layer("exec.jobs", jobs, "count");
  o.layer("exec.full_runs", static_cast<double>(exec.full_runs), "count");
  o.layer("exec.checkpointed", static_cast<double>(exec.checkpointed), "count");
  o.layer("exec.trajectory_checkpointed",
          static_cast<double>(exec.trajectory_checkpointed), "count");
  o.layer("exec.checkpoint_fallbacks",
          static_cast<double>(exec.checkpoint_fallbacks), "count");
  o.layer("exec.checkpoint_ratio",
          jobs > 0 ? static_cast<double>(exec.checkpointed +
                                         exec.trajectory_checkpointed) /
                         jobs
                   : 0.0,
          "ratio");
  o.layer("exec.strategy.dm_exact_jobs",
          static_cast<double>(exec.strategy_jobs.dm_exact), "count");
  o.layer("exec.strategy.dm_fused_wide_jobs",
          static_cast<double>(exec.strategy_jobs.dm_fused_wide), "count");
  o.layer("exec.strategy.trajectory_jobs",
          static_cast<double>(exec.strategy_jobs.trajectory), "count");
  o.layer("exec.strategy.checkpoint_splice_jobs",
          static_cast<double>(exec.strategy_jobs.checkpoint_splice), "count");

  const double hits = d(after.hits, before.hits);
  const double lookups = hits + d(after.misses, before.misses);
  o.layer("exec.cache.lookups", lookups, "count");
  o.layer("exec.cache.memory_hits", d(after.memory.hits, before.memory.hits),
          "count");
  o.layer("exec.cache.disk_hits", d(after.disk.hits, before.disk.hits),
          "count");
  o.layer("exec.cache.hit_ratio", lookups > 0 ? hits / lookups : 0.0, "ratio");
  // Every store lands in the memory tier, so stores = entries added plus
  // entries evicted since the run began.
  o.layer("exec.cache.stores",
          d(after.memory.entries + after.memory.evictions,
            before.memory.entries + before.memory.evictions),
          "count");
  o.layer("exec.cache.evictions", d(after.evictions, before.evictions),
          "count");
  o.layer("exec.cache.disk_bytes", static_cast<double>(after.disk.bytes),
          "bytes");
}

void report_e2e(Outcome& o, double setup_s, double gates, double gate_seconds,
                double jobs, double job_seconds,
                const std::vector<double>& analyze_ms, double peak_rss_mb) {
  const double attempted = static_cast<double>(o.attempted());
  o.e2e("setup_s", setup_s, "s");
  o.e2e("gates_per_s", gate_seconds > 0 ? gates / gate_seconds : 0.0,
        "gates/s");
  o.e2e("jobs_per_s", job_seconds > 0 ? jobs / job_seconds : 0.0, "jobs/s");
  o.e2e("analyze_p50_ms", median(analyze_ms), "ms");
  o.e2e("analyze_p95_ms", percentile(analyze_ms, 95), "ms");
  o.e2e("peak_rss_mb", peak_rss_mb, "MB");
  o.e2e("ok_frac",
        attempted > 0 ? 1.0 - static_cast<double>(o.failed()) / attempted : 0.0,
        "ratio");
  o.notes.push_back(describe_timing("analyze", analyze_ms));
}

double self_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double self_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto s = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return s(ru.ru_utime) + s(ru.ru_stime);
}

}  // namespace perfbench
