// perfbench — the repository benchmark program.
//
//   perfbench --workload paper_dm|paper_traj|daemon_mix --seed N
//             --seconds S [--trace 0|1] [--trace-file PATH]
//             --reference-dir DIR --work-dir DIR --charterd PATH
//             [--write-reference PATH]
//
// Runs one workload at one workload seed, checks every output, logs notes
// to stderr, and prints one JSON line:
//
//   {"correct":..,"attempted":..,"failed":..,"e2e":{..},"layer":{..}}
//
// with each metric as name:{value,unit}.  Traced runs (--trace 1) also
// record spans, fill "layer" with the per-layer metrics, and write the
// spans as Chrome trace-event JSON.  perfbench/run.py builds this binary and is the
// entry point; see perfbench/README.md.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "backend/backend.hpp"
#include "common.hpp"
#include "daemon.hpp"
#include "paper.hpp"
#include "trace.hpp"

namespace {

int usage(const char* msg) {
  std::fprintf(stderr, "perfbench: %s\n", msg);
  return 2;
}

/// {"name":{"value":v,"unit":"u"},...} with every digit of each value.
std::string metrics_json(const std::vector<perfbench::Metric>& metrics) {
  std::string json = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
    json += (i == 0 ? "\"" : ",\"") + metrics[i].name + "\":{\"value\":" +
            buf + ",\"unit\":\"" + metrics[i].unit + "\"}";
  }
  return json + "}";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  o.threads = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    if (flag == "--workload") o.workload = v;
    else if (flag == "--seed") o.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (flag == "--seconds") o.seconds = std::atof(v.c_str());
    else if (flag == "--trace") o.trace = v == "1";
    else if (flag == "--trace-file") o.trace_path = v;
    else if (flag == "--reference-dir") o.reference_dir = v;
    else if (flag == "--write-reference") o.write_reference = v;
    else if (flag == "--work-dir") o.work_dir = v;
    else if (flag == "--charterd") o.charterd = v;
    else return usage(("unknown flag " + flag).c_str());
  }
  if (o.workload != "paper_dm" && o.workload != "paper_traj" &&
      o.workload != "daemon_mix")
    return usage("--workload must be paper_dm, paper_traj or daemon_mix");
  if (!(o.seconds > 0)) return usage("--seconds must be positive");
  if (o.work_dir.empty() || o.charterd.empty())
    return usage("--work-dir and --charterd are required");

  perfbench::Tracer::global().enable(o.trace);
  std::fprintf(stderr, "perfbench: %s\n",
               charter::backend::run_environment_summary().c_str());
  perfbench::Outcome outcome;
  try {
    std::filesystem::create_directories(o.work_dir);
    if (o.workload == "daemon_mix")
      perfbench::run_daemon_mix(o, outcome);
    else
      perfbench::run_paper(o, o.workload == "paper_traj", outcome);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", o.workload.c_str(),
                 e.what());
    return 1;
  }
  std::error_code ec;
  std::filesystem::remove_all(o.work_dir, ec);

  for (const std::string& note : outcome.notes)
    std::fprintf(stderr, "perfbench: %s\n", note.c_str());
  for (const std::string& f : outcome.failures())
    std::fprintf(stderr, "perfbench: FAILED: %s\n", f.c_str());

  const std::size_t attempted = outcome.attempted();
  const std::size_t failed = outcome.failed();
  std::fprintf(stderr,
               "perfbench: workload %s, seed %llu: %zu operations, %zu failed "
               "(failed_frac %.6g)\n",
               o.workload.c_str(), static_cast<unsigned long long>(o.seed),
               attempted, failed,
               attempted > 0 ? static_cast<double>(failed) / attempted : 0.0);
  if (o.trace) {
    if (!perfbench::Tracer::global().write_chrome_json(o.trace_path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", o.trace_path.c_str());
      return 1;
    }
    std::fprintf(stderr, "perfbench: %zu spans written to %s\n",
                 perfbench::Tracer::global().size(), o.trace_path.c_str());
  }

  std::string json = "{\"correct\":";
  json += failed == 0 && attempted > 0 ? "true" : "false";
  json += ",\"attempted\":" + std::to_string(attempted);
  json += ",\"failed\":" + std::to_string(failed);
  json += ",\"e2e\":" + metrics_json(outcome.e2e());
  json += ",\"layer\":" + metrics_json(outcome.layer()) + "}";
  std::printf("%s\n", json.c_str());
  return 0;
}
