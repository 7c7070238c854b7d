#pragma once

/// \file util.hpp
/// Pure helpers of the benchmark program: seed derivation, the percentile
/// rule, the open-loop arrival schedule, and lateness accounting.  Kept
/// header-only and free of charter dependencies so tests/selftest.cpp can
/// pin their behaviour without building a workload.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

/// The benchmark's default workload seed: the seed the paper-table benches
/// use for Table III, so a default run reproduces those sweeps exactly.
inline constexpr std::uint64_t kDefaultSeed = 2022;

/// splitmix64 finalizer: a stateless 64-bit mix.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Master seed of the \p pass-th sweep over a paper workload's circuits.
/// Pass 0 runs at the workload seed itself (so the default seed is the
/// Table III seed); later passes get fresh seeds, so no input repeats
/// within a run and the run cache can never serve a sweep.
inline std::uint64_t sweep_seed(std::uint64_t workload_seed, int pass) {
  if (pass == 0) return workload_seed;
  return mix64(workload_seed ^ (0xa5a5a5a5ULL * static_cast<std::uint64_t>(pass)))
         & 0x7fffffffULL;
}

/// Deterministic generator for the benchmark's own inputs (xorshift-free
/// splitmix stream; independent of the library's Rng on purpose, so a
/// library change can never change the inputs it is measured on).
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    state_ += 0x9e3779b97f4a7c15ULL;
    return mix64(state_);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform integer in [0, n).
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(next() % static_cast<std::uint64_t>(n));
  }

 private:
  std::uint64_t state_;
};

// ---------------------------------------------------------------------------
// Percentiles
// ---------------------------------------------------------------------------

/// 1-based nearest rank of the \p p-th percentile of \p n samples; the
/// epsilon keeps exact products (99.9% of 10000) from rounding up a rank.
inline double nearest_rank(std::size_t n, double p) {
  return std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
}

/// Nearest-rank percentile (p in [0, 100]) of \p values; 0 when empty.
inline double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = nearest_rank(values.size(), p);
  const std::size_t idx =
      rank < 1.0 ? 0 : std::min(values.size() - 1,
                                static_cast<std::size_t>(rank) - 1);
  return values[idx];
}

inline double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

/// Samples that lie strictly beyond the nearest-rank \p p-th percentile of
/// \p n samples.
inline std::size_t samples_beyond(std::size_t n, double p) {
  const double rank = nearest_rank(n, p);
  const std::size_t r = rank < 1.0 ? 1 : static_cast<std::size_t>(rank);
  return n > r ? n - r : 0;
}

/// The percentile rule for tail latency: the highest percentile of the
/// ladder 50, 90, 95, 99, 99.9 that has at least ten samples beyond it.
/// Returns 0 when even the median has fewer than ten (n < 20).
inline double supported_tail_percentile(std::size_t n) {
  double best = 0.0;
  for (const double p : {50.0, 90.0, 95.0, 99.0, 99.9})
    if (samples_beyond(n, p) >= 10) best = p;
  return best;
}

/// One line stating a timing's median and its supported tail, with the
/// sample count: "analyze: n=240 p50=12.1 ms, p95=40.2 ms (12 beyond)".
inline std::string describe_timing(const std::string& name,
                                   const std::vector<double>& ms) {
  const double tail = supported_tail_percentile(ms.size());
  char buf[256];
  if (tail == 0.0) {
    std::snprintf(buf, sizeof(buf),
                  "%s: n=%zu p50=%.3f ms (too few samples for a tail)",
                  name.c_str(), ms.size(), median(ms));
  } else if (tail == 50.0) {
    std::snprintf(buf, sizeof(buf), "%s: n=%zu p50=%.3f ms (%zu beyond)",
                  name.c_str(), ms.size(), median(ms), samples_beyond(ms.size(), 50));
  } else {
    std::snprintf(buf, sizeof(buf), "%s: n=%zu p50=%.3f ms, p%g=%.3f ms (%zu beyond)",
                  name.c_str(), ms.size(), median(ms), tail,
                  percentile(ms, tail), samples_beyond(ms.size(), tail));
  }
  return buf;
}

// ---------------------------------------------------------------------------
// Open-loop schedule (daemon_mix)
// ---------------------------------------------------------------------------

enum class RequestClass : std::uint8_t {
  kInteractive,   ///< small-circuit analyze from an interactive tenant
  kBulkAnalyze,   ///< heavier analyze from the bulk tenant
  kCharacterize,  ///< characterize (top_k 3) from the bulk tenant
};

struct ScheduledRequest {
  double due_s = 0.0;  ///< seconds after the loop starts
  RequestClass cls = RequestClass::kInteractive;
  std::string tenant;
  std::string circuit;  ///< built-in benchmark key
  std::uint64_t seed = 0;
  /// Index of the earlier request whose (circuit, seed) this one repeats,
  /// or -1 for a fresh pair.
  long repeat_of = -1;
};

/// The load mix.  Every circuit has at most 5 qubits: interactive tenants
/// send small analyses; the bulk tenant sends the heaviest of them with
/// every gate analyzed, and characterizations.  (A 7-qubit analysis such as
/// qft7 trips the bimodal charterd slowdown described in README.md, so it
/// is measured on its own in traced runs, not mixed into the gated load.)
struct MixSpec {
  std::vector<std::string> interactive = {"qft3",  "hlf5", "adder4", "mult5",
                                          "tfim4", "xy4",  "qaoa5",  "qaoa5p1",
                                          "grover3", "vqe4"};
  std::vector<std::string> bulk_analyze = {"heis4", "vqe4"};
  std::vector<std::string> characterize = {"qft3", "hlf5", "adder4",
                                           "grover3"};
  double bulk_share = 0.08;          ///< of all arrivals
  double characterize_share = 0.5;   ///< of bulk arrivals
  double repeat_share = 0.30;        ///< of interactive arrivals
  /// A repeat only targets a request due at least this much earlier, so
  /// the pair has normally completed (and been cached) by then.
  double repeat_lag_s = 5.0;
};

/// Deterministic Fisher-Yates shuffle.
template <typename T>
void shuffle(std::vector<T>& v, InputRng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.below(i)]);
}

/// Poisson arrivals at \p rate_per_s over [0, duration_s), each tagged with
/// its class, tenant, circuit, and seed.  The arrival count is fixed at
/// round(rate * duration) and the times are sorted uniform draws — a
/// Poisson process conditioned on its count — and the class, tenant and
/// circuit mix is dealt from shuffled decks, so two seeds differ in order
/// and timing but not in how much of each kind of work they offer.  A pure
/// function of its arguments: the same (seed, rate, duration, mix) always
/// yields the same schedule.
inline std::vector<ScheduledRequest> make_schedule(std::uint64_t seed,
                                                   double rate_per_s,
                                                   double duration_s,
                                                   const MixSpec& mix = {}) {
  std::vector<ScheduledRequest> out;
  if (rate_per_s <= 0.0 || duration_s <= 0.0) return out;
  InputRng rng(mix64(seed ^ 0x5c4ed011e5ULL));
  const auto n = static_cast<std::size_t>(std::llround(rate_per_s * duration_s));
  std::vector<double> due(n);
  for (double& t : due) t = rng.uniform() * duration_s;
  std::sort(due.begin(), due.end());

  const auto count = [](std::size_t total, double share) {
    return static_cast<std::size_t>(std::llround(static_cast<double>(total) * share));
  };
  const std::size_t n_bulk = count(n, mix.bulk_share);
  const std::size_t n_char = count(n_bulk, mix.characterize_share);
  std::vector<RequestClass> classes(n, RequestClass::kInteractive);
  for (std::size_t i = 0; i < n_bulk; ++i)
    classes[i] = i < n_char ? RequestClass::kCharacterize
                            : RequestClass::kBulkAnalyze;
  shuffle(classes, rng);
  const std::size_t n_inter = n - n_bulk;
  std::vector<char> repeat(n_inter, 0);
  for (std::size_t i = 0; i < count(n_inter, mix.repeat_share); ++i) repeat[i] = 1;
  shuffle(repeat, rng);
  // Circuits are dealt from a deck per class made of shuffled rounds of
  // the class's circuits.
  const auto deal = [&](const std::vector<std::string>& keys, std::size_t k) {
    std::vector<std::string> deck;
    while (deck.size() < k) {
      std::vector<std::string> round = keys;
      shuffle(round, rng);
      deck.insert(deck.end(), round.begin(), round.end());
    }
    deck.resize(k);
    return deck;
  };
  const std::vector<std::string> inter_deck = deal(mix.interactive, n_inter);
  const std::vector<std::string> bulk_deck =
      deal(mix.bulk_analyze, n_bulk - n_char);
  const std::vector<std::string> char_deck = deal(mix.characterize, n_char);

  std::vector<std::size_t> fresh_interactive;  // repeat candidates, by due
  std::size_t k_inter = 0, k_fresh = 0, k_bulk = 0, k_char = 0;
  for (std::size_t i = 0; i < n; ++i) {
    ScheduledRequest r;
    r.due_s = due[i];
    r.cls = classes[i];
    r.seed = 1 + (rng.next() & 0x3fffffffULL);
    if (r.cls == RequestClass::kCharacterize) {
      r.tenant = "bulk";
      r.circuit = char_deck[k_char++];
    } else if (r.cls == RequestClass::kBulkAnalyze) {
      r.tenant = "bulk";
      r.circuit = bulk_deck[k_bulk++];
    } else {
      r.tenant = (rng.next() & 1) != 0 ? "alice" : "bob";
      const bool want_repeat = repeat[k_inter++] != 0;
      const std::size_t pick = static_cast<std::size_t>(rng.next() >> 1);
      // Candidates due at least repeat_lag_s earlier: a prefix of the
      // due-ordered fresh list.
      const auto eligible = static_cast<std::size_t>(
          std::upper_bound(fresh_interactive.begin(), fresh_interactive.end(),
                           r.due_s - mix.repeat_lag_s,
                           [&](double t, std::size_t idx) {
                             return t < out[idx].due_s;
                           }) -
          fresh_interactive.begin());
      if (want_repeat && eligible > 0) {
        const std::size_t j = fresh_interactive[pick % eligible];
        r.repeat_of = static_cast<long>(j);
        r.circuit = out[j].circuit;
        r.seed = out[j].seed;
      } else {
        // Fresh pairs take the next circuit of the deck, so every circuit
        // gets the same share of the fresh requests.
        r.circuit = inter_deck[k_fresh++];
        fresh_interactive.push_back(out.size());
      }
    }
    out.push_back(std::move(r));
  }
  return out;
}

/// How late the generator sent a request: send time minus due time, both
/// in seconds from the loop start; never negative.
inline double lateness_ms(double due_s, double sent_s) {
  return std::max(0.0, sent_s - due_s) * 1e3;
}

/// Open-loop latency: measured from the time the request was *due*, not
/// from when it was sent, so a stall in the generator (or a full set of
/// connections) counts against the requests it delayed.
inline double latency_from_due_ms(double due_s, double done_s) {
  return (done_s - due_s) * 1e3;
}

// ---------------------------------------------------------------------------
// Clocks
// ---------------------------------------------------------------------------

/// Seconds on the steady clock since an arbitrary process-wide epoch.
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace perfbench
