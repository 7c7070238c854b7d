#include "paper.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <numeric>
#include <memory>
#include <tuple>

#include <charter/session.hpp>

#include "algos/registry.hpp"
#include "backend/backend.hpp"
#include "daemon.hpp"
#include "probes.hpp"
#include "sim/density_matrix.hpp"
#include "trace.hpp"
#include "util.hpp"

namespace perfbench {

namespace cb = charter::backend;

namespace {

// The Table III quick settings (bench/common.cpp): shots, drift, reversals,
// the per-width gate caps, and the trajectory budget.
constexpr std::int64_t kShots = 8192;
constexpr double kDrift = 0.06;
constexpr int kReversals = 5;
constexpr int kSetupReps = 21;
/// The five smallest paper circuits, characterized (top 3) by the probes
/// of a traced run; tfim16 alone would take minutes to characterize.
const char* const kCharacterizedKeys[] = {"qft3", "adder4", "vqe4", "heis4",
                                          "tfim4"};
constexpr int kTopK = 3;

int gate_cap(int qubits) {
  if (qubits <= 5) return 36;
  if (qubits <= 7) return 24;
  if (qubits <= 9) return 14;
  if (qubits <= 11) return 10;
  return 5;
}

int trajectories(int qubits) { return qubits > 11 ? 8 : 24; }

/// The devices of one run plus the lazily created Sessions, one per
/// distinct configuration (device, gate cap, trajectory budget, seed): a
/// SessionConfig is fixed at construction, and the paper settings vary
/// the cap and budget per circuit width.
struct Devices {
  std::shared_ptr<const cb::FakeBackend> lagos;      ///< <= 7 qubits
  std::shared_ptr<const cb::FakeBackend> guadalupe;  ///< wider circuits
  std::map<std::tuple<const void*, int, int, std::uint64_t>,
           std::unique_ptr<charter::Session>>
      sessions;

  const cb::FakeBackend& device_for(int qubits) const {
    return qubits <= 7 ? *lagos : *guadalupe;
  }
  std::shared_ptr<const cb::FakeBackend> shared_for(int qubits) const {
    return qubits <= 7 ? lagos : guadalupe;
  }

  charter::Session& session(int qubits, std::uint64_t seed) {
    const auto key = std::make_tuple(
        static_cast<const void*>(&device_for(qubits)), gate_cap(qubits),
        trajectories(qubits), seed);
    std::unique_ptr<charter::Session>& s = sessions[key];
    if (!s) {
      charter::SessionConfig cfg;
      cfg.shots(kShots)
          .drift(kDrift)
          .reversals(kReversals)
          .seed(seed)
          .validation(true)
          .max_gates(gate_cap(qubits))
          .trajectories(trajectories(qubits));
      s = std::make_unique<charter::Session>(shared_for(qubits), cfg);
    }
    return *s;
  }
};

/// One set-up: construct both devices and a Session for every circuit
/// width of the workload, and finish the library's lazy initialization by
/// compiling and running the smallest paper circuit once on each device.
std::unique_ptr<Devices> set_up(const std::vector<charter::algos::AlgoSpec>& specs,
                                std::uint64_t seed) {
  auto d = std::make_unique<Devices>();
  d->lagos = std::make_shared<const cb::FakeBackend>(cb::FakeBackend::lagos(7));
  d->guadalupe =
      std::make_shared<const cb::FakeBackend>(cb::FakeBackend::guadalupe(16));
  for (const auto& spec : specs) d->session(spec.qubits, seed);
  const charter::circ::Circuit warm = charter::algos::find_benchmark("qft3").build();
  for (const cb::FakeBackend* be : {d->lagos.get(), d->guadalupe.get()})
    be->run(be->compile(warm));
  return d;
}

}  // namespace

void run_paper(const Options& options, bool trajectory_workload, Outcome& o) {
  std::vector<charter::algos::AlgoSpec> specs;
  for (auto& spec : charter::algos::paper_benchmarks()) {
    const bool wide = spec.qubits > charter::sim::DensityMatrixEngine::kMaxQubits;
    if (wide == trajectory_workload) specs.push_back(std::move(spec));
  }
  Reference reference(options);

  std::vector<double> setup;
  std::unique_ptr<Devices> devices;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const Span span("setup.devices");
    devices.reset();
    const double t0 = now_s();
    devices = set_up(specs, sweep_seed(options.seed, 0));
    setup.push_back(now_s() - t0);
  }

  // Timed section: whole passes over the circuits, each pass at a fresh
  // sweep seed, while another pass still fits in the run's time.
  struct Pass0 {
    charter::algos::AlgoSpec spec;
    cb::CompiledProgram program;
    charter::core::CharterReport report;
  };
  std::vector<Pass0> first_pass;
  charter::exec::BatchRunner::Stats exec;
  const auto cache_before = charter::Session::cache_stats();
  std::vector<double> analyze_ms, gap_ms;
  std::string sweep_log = "first-pass sweep ms:";
  double sweep_s = 0.0;
  std::size_t gates = 0;
  double corr_sum = 0.0;
  std::size_t corr_n = 0;
  const double cpu0 = self_cpu_s();
  const double t_start = now_s();
  double prev_end = t_start;
  int passes = 0;
  double peak_rss_mb = 0.0;
  {
    const Span workload_span(trajectory_workload ? "workload.paper_traj"
                                                 : "workload.paper_dm");
    for (;;) {
      const int pass = passes++;
      const std::uint64_t seed = sweep_seed(options.seed, pass);
      double pass_s = 0.0;
      for (std::size_t i = 0; i < specs.size(); ++i) {
        const auto& spec = specs[i];
        const Span sweep("api.sweep", static_cast<std::uint64_t>(
                                          pass * 1000 + static_cast<int>(i) + 1));
        const double t0 = now_s();
        gap_ms.push_back((t0 - prev_end) * 1e3);
        charter::Session& session = devices->session(spec.qubits, seed);
        cb::CompiledProgram program = [&] {
          const Span s("transpile.compile");
          return session.compile(spec.build());
        }();
        charter::core::CharterReport report;
        {
          const Span s("api.analyze");
          report = session.analyze(program);
        }
        const double t1 = now_s();
        prev_end = t1;
        sweep_s += t1 - t0;
        pass_s += t1 - t0;
        if (pass == 0) {
          char item[64];
          std::snprintf(item, sizeof(item), " %s=%.1f", spec.key.c_str(),
                        (t1 - t0) * 1e3);
          sweep_log += item;
        }
        gates += report.analyzed_gates;

        const std::string key =
            std::string("p") + std::to_string(pass) + "/" + spec.key;
        {
          const Span check("check.report");
          o.attempt();
          const std::string problem =
              check_report(report, expected_analyzed(program.physical,
                                                     gate_cap(spec.qubits)));
          if (!problem.empty()) {
            o.fail(key + ": " + problem);
          } else {
            const auto [ops, values] = report_signature(report);
            reference.check(key, ops, values, o);
          }
        }
        accumulate(exec, report.exec_stats);

        if (pass == 0) {
          const double r = report.validation_correlation().r;
          if (std::isfinite(r)) {
            corr_sum += r;
            ++corr_n;
          }
          first_pass.push_back({spec, std::move(program), std::move(report)});
        }
      }
      // A pass is one request: the whole table column a user waits for.
      analyze_ms.push_back(pass_s * 1e3);
      // Peak memory as of the first pass: later passes only add cached
      // results, and how many fit depends on the machine's speed.
      if (pass == 0) peak_rss_mb = self_peak_rss_mb();
      const double elapsed = now_s() - t_start;
      if (elapsed * (passes + 1) / passes > options.seconds) break;
    }
  }
  const double wall = now_s() - t_start;
  const double cpu1 = self_cpu_s();
  const auto cache_after = charter::Session::cache_stats();


  report_e2e(o, median(setup), static_cast<double>(gates), sweep_s,
             static_cast<double>(passes * specs.size()), sweep_s, analyze_ms,
             peak_rss_mb);

  char buf[240];
  std::snprintf(buf, sizeof(buf),
                "%d pass(es) of %zu circuits: %zu gates in %.2f s; %zu of %zu "
                "runs checkpointed; mean validation correlation (r=%d, first "
                "pass) %.4f over %zu circuits",
                passes, specs.size(), gates, sweep_s,
                exec.checkpointed + exec.trajectory_checkpointed, exec.jobs,
                kReversals, corr_n > 0 ? corr_sum / static_cast<double>(corr_n) : 0.0,
                corr_n);
  o.notes.push_back(buf);
  o.notes.push_back(sweep_log);
  if (reference.active()) {
    std::snprintf(buf, sizeof(buf),
                  "reference: %zu outputs matched, %zu unreferenced",
                  reference.matched(), reference.unreferenced());
    o.notes.push_back(buf);
  }

  if (!Tracer::global().enabled()) {
    if (!reference.save()) o.fail("cannot write the reference");
    return;
  }

  // Per-layer metrics of the traced run: counters of the timed section,
  // then isolated probes on the workload's own circuits.
  report_exec_layers(o, exec, gates, cache_before, cache_after);
  o.layer("exec.cpu_util",
          (cpu1 - cpu0) / (wall * options.threads), "ratio");
  o.layer("loadgen.offered_per_s",
          static_cast<double>(passes * specs.size()) / wall, "1/s");
  o.layer("loadgen.late_p95_ms", percentile(gap_ms, 95), "ms");
  const auto totals = Tracer::global().totals();
  const auto it = totals.find("api.sweep");
  o.layer("api.unattributed_ms",
          it != totals.end() && it->second.count > 0
              ? it->second.self_ms / static_cast<double>(it->second.count)
              : 0.0,
          "ms");

  std::vector<ProbeCircuit> probes;
  for (const Pass0& p : first_pass) {
    ProbeCircuit pc;
    pc.key = p.spec.key;
    pc.backend = &devices->device_for(p.spec.qubits);
    pc.build = p.spec.build;
    pc.run.shots = kShots;
    pc.run.drift = kDrift;
    pc.run.seed = sweep_seed(options.seed, 0);
    pc.run.trajectories = trajectories(p.spec.qubits);
    pc.cap = gate_cap(p.spec.qubits);
    probes.push_back(std::move(pc));
  }
  run_layer_probes(probes, kReversals, o);

  // Characterization of the smallest paper circuits, from a first analysis
  // at the first-pass seed (reused when the sweep included the circuit).
  std::vector<double> char_ms;
  for (const char* k : kCharacterizedKeys) {
    const auto spec = charter::algos::find_benchmark(k);
    charter::Session& session =
        devices->session(spec.qubits, sweep_seed(options.seed, 0));
    const Pass0* swept = nullptr;
    for (const Pass0& p : first_pass)
      if (p.spec.key == spec.key) swept = &p;
    const cb::CompiledProgram program =
        swept != nullptr ? swept->program : session.compile(spec.build());
    const charter::core::CharterReport report =
        swept != nullptr ? swept->report : session.analyze(program);
    char_ms.push_back(characterize_timed(session, program, report, kTopK,
                                         "p0/" + spec.key, reference, o));
  }
  o.layer("characterize.run_ms",
          char_ms.empty() ? 0.0
                          : std::accumulate(char_ms.begin(), char_ms.end(), 0.0) /
                                static_cast<double>(char_ms.size()),
          "ms");
  run_service_probe(options, o);
  if (!reference.save()) o.fail("cannot write the reference");
}

}  // namespace perfbench
