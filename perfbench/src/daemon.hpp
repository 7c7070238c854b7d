#pragma once

/// \file daemon.hpp
/// A charterd child process owned by the benchmark, the service-layer
/// metrics computed from outside it, and the daemon_mix workload.

#include <sys/types.h>

#include <string>
#include <vector>

#include "common.hpp"
#include "util.hpp"

namespace perfbench {

/// A spawned `charterd --backend lagos` with its own socket and a fresh
/// cache directory.  The destructor kills and reaps it if shutdown() was
/// not reached, so no daemon outlives the benchmark.
class Daemon {
 public:
  /// Spawns the daemon; \p tag names its socket and cache directory under
  /// Options::work_dir.
  Daemon(const Options& options, const std::string& tag);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Pings until the daemon answers; returns seconds since the spawn.
  /// Throws when it does not answer within \p timeout_s.
  double wait_ready(double timeout_s = 30.0);

  /// Peak resident set of the daemon (VmHWM, MB).
  double peak_rss_mb() const;
  /// User + system CPU seconds the daemon has consumed.
  double cpu_s() const;

  /// Requests a drain over the socket and reaps the process (SIGKILL after
  /// \p timeout_s).  Returns true when it exited cleanly with status 0.
  bool shutdown(double timeout_s = 60.0);

  const std::string& socket() const { return socket_; }

 private:
  std::string socket_;
  pid_t pid_ = -1;
  double spawned_s_ = 0.0;
};

/// One request as the load generator saw it (times in seconds from the
/// loop start).
struct RequestRecord {
  RequestClass cls = RequestClass::kInteractive;
  double due_s = 0, sent_s = 0, acked_s = 0, ended_s = 0, fetched_s = 0;
  double submit_ms = 0, fetch_ms = 0;
  std::size_t fetch_bytes = 0;
  bool ok = false;   ///< completed and passed every check
  bool repeat = false;  ///< repeats an earlier (circuit, seed) pair
  charter::exec::BatchRunner::Stats exec;
  std::size_t analyzed = 0;
};

/// Queue wait of every job that ended (ms), inferred from outside:
/// charterd runs one job at a time, so a job starts when it was
/// acknowledged or when the job that finished just before it ended,
/// whichever is later.  \p busy_s receives the summed inferred run time.
std::vector<double> inferred_queue_waits_ms(
    const std::vector<RequestRecord>& records, double* busy_s);

/// The service.* per-layer metrics from the load generator's records, the
/// ping round trips, and the daemon's `stats` responses before and after
/// the measured requests.
void report_service_layers(Outcome& outcome,
                           const std::vector<RequestRecord>& records,
                           const std::vector<double>& ping_ms,
                           const std::string& stats_before,
                           const std::string& stats_after);

/// Service probe for the in-process workloads: a short burst of qft3
/// analyses against a fresh daemon, one per connection, so every service.*
/// metric is measured on every workload.
void run_service_probe(const Options& options, Outcome& outcome);

/// The daemon_mix workload.
void run_daemon_mix(const Options& options, Outcome& outcome);

}  // namespace perfbench
