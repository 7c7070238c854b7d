// The README quickstart, built out-of-tree against an installed charter
// package (find_package(charter) + charter::charter).  Exits nonzero if
// the facade misbehaves, so the install_consumer CTest entry is a real
// end-to-end packaging check, not just a link test.  Exercises the
// ExecutionConfig builder and the public exec surface (charter/exec.hpp:
// ExecStats) the way a downstream consumer would.

#include <charter/charter.hpp>
#include <charter/exec.hpp>

#include <cstdio>

int main() {
  namespace cb = charter::backend;

  // Build and compile a small GHZ + kickback circuit for fake Lagos.
  charter::circ::Circuit circuit(3);
  circuit.h(0).cx(0, 1).cx(1, 2).rz(2, 0.7).cx(1, 2).cx(0, 1).h(0);

  const cb::FakeBackend backend = cb::FakeBackend::lagos();
  charter::SessionConfig config;
  config.reversals(5).shots(8192).seed(42);
  config.execution().threads(2);
  charter::Session session(backend, config);
  const cb::CompiledProgram program = session.compile(circuit);

  // Async submission with a progress callback, then wait for the report.
  std::size_t progress_events = 0;
  charter::JobCallbacks callbacks;
  callbacks.on_progress = [&](const charter::JobProgress&) {
    ++progress_events;
  };
  charter::JobHandle job = session.submit(program, callbacks);
  const charter::JobResult& result = job.wait();

  if (result.status != charter::JobStatus::kDone) {
    std::fprintf(stderr, "job ended %s: %s\n",
                 charter::to_string(result.status).c_str(),
                 result.error.c_str());
    return 1;
  }
  if (result.report.impacts.empty() || progress_events == 0) {
    std::fprintf(stderr, "empty report (%zu impacts) or no progress (%zu)\n",
                 result.report.impacts.size(), progress_events);
    return 1;
  }

  // The per-report execution stats are part of the public surface: every
  // job the sweep ran must be accounted for.
  const charter::exec::ExecStats& stats = result.report.exec_stats;
  if (stats.jobs != result.report.analyzed_gates + 1) {
    std::fprintf(stderr, "exec stats lost jobs: %zu jobs for %zu gates\n",
                 stats.jobs, result.report.analyzed_gates);
    return 1;
  }

  // Every executed (non-cache-hit) job is counted under the path it ran.
  const auto& paths = stats.strategy_jobs;
  const std::size_t by_path =
      paths.dm_exact + paths.trajectory + paths.checkpoint_splice;
  if (by_path != stats.jobs - stats.cache_hits) {
    std::fprintf(stderr, "exec stats lost paths: %zu of %zu executed jobs\n",
                 by_path, stats.jobs - stats.cache_hits);
    return 1;
  }

  const auto ranked = result.report.sorted_by_impact();
  std::printf(
      "charter %s: analyzed %zu gates on %s (%zu checkpoint-spliced jobs); "
      "top impact %.4f TVD\n",
      CHARTER_VERSION_STRING, result.report.analyzed_gates,
      session.backend().name().c_str(), paths.checkpoint_splice,
      ranked.front().tvd);
  return 0;
}
