#pragma once

/// \file common.hpp
/// What every workload shares: run options, the outcome it reports
/// (attempted/failed operations and named metrics), the committed output
/// reference, and the structural checks applied to every report.

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "characterize/characterize.hpp"
#include "core/analyzer.hpp"
#include "exec/cache.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 2022;
  double seconds = 30.0;
  bool trace = false;
  std::string trace_path;     ///< Chrome trace-event JSON (traced runs)
  std::string reference_dir;  ///< committed references (<workload>.json)
  std::string write_reference;  ///< record a new reference here instead
  std::string work_dir;       ///< scratch for sockets and cache dirs
  std::string charterd;       ///< daemon binary
  int threads = 0;            ///< nproc
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Operations attempted and failed, plus the metrics a run reports.
/// Thread-safe for attempt()/fail(); metrics are added single-threaded.
class Outcome {
 public:
  void attempt(std::size_t n = 1);
  /// Records one failed operation (a refused or failed request, or an
  /// output that did not match the reference or a structural check).
  void fail(const std::string& what);
  std::size_t attempted() const;
  std::size_t failed() const;
  /// The first few failure messages, for the log.
  std::vector<std::string> failures() const;

  void e2e(const std::string& name, double value, const std::string& unit) {
    e2e_.push_back({name, value, unit});
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    layer_.push_back({name, value, unit});
  }
  const std::vector<Metric>& e2e() const { return e2e_; }
  const std::vector<Metric>& layer() const { return layer_; }

  std::vector<std::string> notes;  ///< human-readable lines for the log

 private:
  mutable std::mutex mu_;
  std::size_t attempted_ = 0;  // guarded by mu_
  std::size_t failed_ = 0;     // guarded by mu_
  std::vector<std::string> failures_;  // guarded by mu_
  std::vector<Metric> e2e_;
  std::vector<Metric> layer_;
};

/// Committed expected outputs at the default seed.  Each entry is keyed by
/// the request ("p0/qft3", "analyze/qft3/123", ...) and holds the analyzed
/// op indices (must match exactly) and one value per op — the Charter TVD
/// for analyses, the fitted severity for characterizations — which must
/// agree within kTolerance.
class Reference {
 public:
  /// Absolute tolerance on committed TVDs and severities.  Reports are
  /// bit-identical at every thread count; the planner may move a sweep
  /// between tape levels that agree to ~1e-12, so 1e-9 leaves headroom for
  /// that and nothing else.
  static constexpr double kTolerance = 1e-9;

  /// Loads <dir>/<workload>.json when \p seed is the seed it was recorded
  /// at; otherwise (when recording, or with no reference_dir, as in
  /// Options{}) the reference is inactive and only the structural checks
  /// run.
  explicit Reference(const Options& options);

  /// Compares one output against its entry (when active) and records it
  /// (when recording).  A mismatch is a failure; a key the reference does
  /// not hold is counted as unreferenced.
  void check(const std::string& key, const std::vector<std::size_t>& ops,
             const std::vector<double>& values, Outcome& outcome);

  /// Writes the recorded entries (recording runs only); false on I/O error.
  bool save() const;

  bool active() const { return active_; }
  std::size_t matched() const;
  std::size_t unreferenced() const;

 private:
  struct Entry {
    std::vector<std::size_t> ops;
    std::vector<double> values;
  };
  std::string workload_;
  std::uint64_t seed_ = 0;
  double seconds_ = 0.0;
  bool active_ = false;
  std::string record_path_;
  mutable std::mutex mu_;
  std::vector<std::pair<std::string, Entry>> entries_;   // loaded
  std::vector<std::pair<std::string, Entry>> recorded_;  // guarded by mu_
  std::size_t matched_ = 0;       // guarded by mu_
  std::size_t unreferenced_ = 0;  // guarded by mu_
};

/// Structural checks that hold at any seed: the analyzed count is
/// \p expected_analyzed, distributions sum to 1, every TVD lies in [0, 1].
/// Returns an empty string when the report passes.
std::string check_report(const charter::core::CharterReport& report,
                         std::size_t expected_analyzed);

/// Structural checks for a characterization of the top \p top_k gates.
std::string check_characterization(
    const charter::characterize::CharacterizationReport& report,
    std::size_t expected_gates);

/// Analyzed-gate count for a compiled program under a gate cap (0 = all),
/// computed the way the analyzer selects gates.
std::size_t expected_analyzed(const charter::circ::Circuit& physical, int cap);

/// Op indices and TVDs of a report, for the reference.
std::pair<std::vector<std::size_t>, std::vector<double>> report_signature(
    const charter::core::CharterReport& report);
std::pair<std::vector<std::size_t>, std::vector<double>>
characterization_signature(
    const charter::characterize::CharacterizationReport& report);

/// Sums the exec counters of many reports (the per-layer exec metrics).
void accumulate(charter::exec::BatchRunner::Stats& into,
                const charter::exec::BatchRunner::Stats& s);

/// The per-layer exec.* and exec.cache.* metrics from summed report
/// counters and a run-cache delta.
void report_exec_layers(Outcome& outcome,
                        const charter::exec::BatchRunner::Stats& exec,
                        std::size_t analyzed_gates,
                        const charter::exec::RunCache::Stats& cache_before,
                        const charter::exec::RunCache::Stats& cache_after);

/// The end-to-end metrics every workload reports: set-up time, analyzed
/// gates and completed jobs per second, analysis latency (median and p95,
/// logged with its sample count and supported tail percentile), peak
/// memory, and the share of operations that succeeded.
void report_e2e(Outcome& outcome, double setup_s, double gates,
                double gate_seconds, double jobs, double job_seconds,
                const std::vector<double>& analyze_ms, double peak_rss_mb);

/// Peak resident set of this process (MB).
double self_peak_rss_mb();
/// User + system CPU seconds consumed by this process so far.
double self_cpu_s();

}  // namespace perfbench
