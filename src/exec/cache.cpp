#include "exec/cache.hpp"

#include <array>
#include <bit>
#include <filesystem>

#include "exec/disk_cache.hpp"
#include "noise/program.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace charter::exec {

FingerprintBuilder::FingerprintBuilder() {
  fp_.lo = 0x243f6a8885a308d3ULL;  // pi digits: arbitrary distinct seeds
  fp_.hi = 0x13198a2e03707344ULL;
}

void FingerprintBuilder::mix(std::uint64_t v) {
  std::uint64_t s = fp_.lo ^ (v + 0x9e3779b97f4a7c15ULL + (fp_.lo << 6));
  fp_.lo = util::splitmix64(s);
  s = fp_.hi ^ (v * 0xc2b2ae3d27d4eb4fULL + (fp_.hi >> 3) + 1);
  fp_.hi = util::splitmix64(s);
}

void FingerprintBuilder::mix_double(double v) {
  mix(std::bit_cast<std::uint64_t>(v));
}

void FingerprintBuilder::mix_string(const std::string& s) {
  mix(s.size());
  std::uint64_t word = 0;
  int n = 0;
  for (const char c : s) {
    word = (word << 8) | static_cast<unsigned char>(c);
    if (++n == 8) {
      mix(word);
      word = 0;
      n = 0;
    }
  }
  if (n > 0) mix(word);
}

namespace {

void mix_circuit(FingerprintBuilder& b, const circ::Circuit& c) {
  b.mix(static_cast<std::uint64_t>(c.num_qubits()));
  b.mix(c.size());
  for (const circ::Gate& g : c.ops()) {
    b.mix((static_cast<std::uint64_t>(g.kind) << 24) |
          (static_cast<std::uint64_t>(g.num_qubits) << 16) |
          (static_cast<std::uint64_t>(g.num_params) << 8) |
          static_cast<std::uint64_t>(g.flags));
    for (std::uint8_t i = 0; i < g.num_qubits; ++i)
      b.mix(static_cast<std::uint64_t>(
          static_cast<std::uint16_t>(g.qubits[i])));
    for (std::uint8_t i = 0; i < g.num_params; ++i)
      b.mix_double(g.params[i]);
  }
}

}  // namespace

Fingerprint fingerprint(const circ::Circuit& c) {
  FingerprintBuilder b;
  mix_circuit(b, c);
  return b.result();
}

Fingerprint fingerprint(const backend::CompiledProgram& program) {
  FingerprintBuilder b;
  mix_circuit(b, program.physical);
  b.mix(program.final_layout.size());
  for (const int p : program.final_layout)
    b.mix(static_cast<std::uint64_t>(p));
  b.mix(static_cast<std::uint64_t>(program.num_logical));
  return b.result();
}

Fingerprint fingerprint(const backend::RunOptions& options) {
  FingerprintBuilder b;
  b.mix(static_cast<std::uint64_t>(options.shots));
  b.mix(static_cast<std::uint64_t>(options.engine));
  b.mix(static_cast<std::uint64_t>(options.trajectories));
  b.mix(options.seed);
  b.mix_double(options.drift);
  return b.result();
}

namespace {

/// Adapts the incremental builder to the backend-facing sink interface.
class BuilderSink final : public backend::FingerprintSink {
 public:
  explicit BuilderSink(FingerprintBuilder& b) : b_(b) {}
  void mix(std::uint64_t v) override { b_.mix(v); }
  void mix_double(double v) override { b_.mix_double(v); }
  void mix_string(const std::string& s) override { b_.mix_string(s); }

 private:
  FingerprintBuilder& b_;
};

}  // namespace

std::optional<Fingerprint> fingerprint(const backend::Backend& backend) {
  FingerprintBuilder b;
  BuilderSink sink(b);
  if (!backend.cache_identity(sink)) return std::nullopt;
  return b.result();
}

Fingerprint run_key(const backend::CompiledProgram& program,
                    const backend::Backend& backend,
                    const backend::RunOptions& options) {
  const std::optional<Fingerprint> device = fingerprint(backend);
  require(device.has_value(),
          "backend '" + backend.name() +
              "' has no cache identity; its runs cannot be keyed");
  return run_key(program, *device, options);
}

Fingerprint run_key(const backend::CompiledProgram& program,
                    const Fingerprint& device,
                    const backend::RunOptions& options) {
  const Fingerprint p = fingerprint(program);
  const Fingerprint o = fingerprint(options);
  // The NoiseProgram a run executes is a pure function of (program circuit,
  // device model), both covered above; mixing the tape
  // *schema* fingerprint on top ties every key to the lowering pipeline's
  // semantics, so entries cached before a tape format change can never be
  // served after it.
  const std::array<std::uint64_t, 2> schema =
      noise::tape_schema_fingerprint();
  FingerprintBuilder b;
  b.mix(p.lo);
  b.mix(p.hi);
  b.mix(device.lo);
  b.mix(device.hi);
  b.mix(o.lo);
  b.mix(o.hi);
  b.mix(schema[0]);
  b.mix(schema[1]);
  return b.result();
}

RunCache::RunCache(std::size_t max_bytes)
    : max_bytes_(max_bytes), shard_budget_(max_bytes / kNumShards) {}

RunCache::~RunCache() = default;

RunCache& RunCache::global() {
  static RunCache cache;
  return cache;
}

void RunCache::set_disk_tier(const std::string& dir, std::size_t max_bytes) {
  std::shared_ptr<DiskCacheTier> tier;
  if (!dir.empty()) tier = std::make_shared<DiskCacheTier>(dir, max_bytes);
  const std::lock_guard<std::mutex> lock(disk_mu_);
  disk_ = std::move(tier);
}

bool RunCache::has_disk_tier() const {
  const std::lock_guard<std::mutex> lock(disk_mu_);
  return disk_ != nullptr;
}

std::string RunCache::disk_dir() const {
  const std::lock_guard<std::mutex> lock(disk_mu_);
  return disk_ != nullptr ? disk_->dir() : std::string();
}

std::optional<std::vector<double>> RunCache::lookup(const Fingerprint& key,
                                                    CacheTier* served) {
  if (served != nullptr) *served = CacheTier::kNone;
  Shard& shard = shards_[shard_index(key)];
  std::optional<std::vector<double>> memory_hit;
  {
    const std::lock_guard<std::mutex> lock(shard.mu);
    const auto it = shard.entries.find(key);
    if (it != shard.entries.end()) {
      ++shard.stats.hits;
      // Refresh recency: splice this key to the back of the LRU list.
      shard.lru.splice(shard.lru.end(), shard.lru, it->second.lru_pos);
      if (served != nullptr) *served = CacheTier::kMemory;
      memory_hit = it->second.distribution;
    } else {
      ++shard.stats.misses;
    }
  }
  if (memory_hit.has_value()) {
    // A memory hit is still a *use* of the disk copy: refresh its mtime so
    // the disk tier's LRU sweep doesn't evict the hottest entries first
    // (they stop reaching load() the moment they're promoted to memory).
    std::shared_ptr<DiskCacheTier> disk;
    {
      const std::lock_guard<std::mutex> lock(disk_mu_);
      disk = disk_;
    }
    if (disk != nullptr) disk->touch(key);
    return memory_hit;
  }

  // Fall through to the persistent tier; promote hits so repeated lookups
  // stay in memory.  The disk tier records its own hit/miss counters.
  std::shared_ptr<DiskCacheTier> disk;
  {
    const std::lock_guard<std::mutex> lock(disk_mu_);
    disk = disk_;
  }
  if (disk == nullptr) return std::nullopt;
  std::optional<std::vector<double>> loaded = disk->load(key);
  if (!loaded.has_value()) return std::nullopt;
  if (loaded->size() * sizeof(double) <= max_bytes_) {
    const std::lock_guard<std::mutex> lock(shard.mu);
    store_in_shard(shard, key, std::vector<double>(*loaded));
  }
  if (served != nullptr) *served = CacheTier::kDisk;
  return loaded;
}

void RunCache::store_in_shard(Shard& shard, const Fingerprint& key,
                              std::vector<double>&& distribution) {
  const std::size_t bytes = distribution.size() * sizeof(double);
  const auto it = shard.entries.find(key);
  if (it != shard.entries.end()) {
    // Results for a given key are identical by construction; refresh
    // recency only.
    shard.lru.splice(shard.lru.end(), shard.lru, it->second.lru_pos);
    return;
  }
  while (shard.stored_bytes + bytes > shard_budget_ && !shard.lru.empty()) {
    const auto victim = shard.entries.find(shard.lru.front());
    shard.lru.pop_front();
    if (victim == shard.entries.end()) continue;
    shard.stored_bytes -= victim->second.distribution.size() * sizeof(double);
    shard.entries.erase(victim);
    ++shard.stats.evictions;
  }
  shard.stored_bytes += bytes;
  const auto pos = shard.lru.insert(shard.lru.end(), key);
  shard.entries.emplace(key, Shard::Entry{std::move(distribution), pos});
  shard.stats.entries = shard.entries.size();
  shard.stats.bytes = shard.stored_bytes;
}

void RunCache::store(const Fingerprint& key, std::vector<double> distribution) {
  std::shared_ptr<DiskCacheTier> disk;
  {
    const std::lock_guard<std::mutex> lock(disk_mu_);
    disk = disk_;
  }
  // Write through before moving the payload into the memory tier.
  if (disk != nullptr) disk->store(key, distribution);

  const std::size_t bytes = distribution.size() * sizeof(double);
  // Admission is against the *total* budget (the constructor's contract),
  // not the per-shard split: an entry bigger than a shard's even share
  // still gets cached — the eviction loop drains its shard and it occupies
  // the stripe alone.  The eviction target keeps each shard at its share
  // otherwise, so total memory stays within max_bytes plus at most one
  // oversized entry per stripe.
  if (bytes > max_bytes_) return;  // never admit an entry that can't fit
  Shard& shard = shards_[shard_index(key)];
  const std::lock_guard<std::mutex> lock(shard.mu);
  store_in_shard(shard, key, std::move(distribution));
}

void RunCache::clear() {
  for (Shard& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard.mu);
    shard.entries.clear();
    shard.lru.clear();
    shard.stored_bytes = 0;
    shard.stats = TierStats{};
  }
}

void RunCache::clear_disk() {
  std::shared_ptr<DiskCacheTier> disk;
  {
    const std::lock_guard<std::mutex> lock(disk_mu_);
    disk = disk_;
  }
  if (disk == nullptr) return;
  // Re-attaching a fresh tier over an emptied directory both wipes the
  // files and resets its counters.
  const std::string dir = disk->dir();
  const std::size_t budget = disk->max_bytes();
  namespace fs = std::filesystem;
  std::error_code ec;
  for (const auto& de : fs::directory_iterator(dir, ec)) {
    std::error_code rec;
    fs::remove(de.path(), rec);
  }
  set_disk_tier(dir, budget);
}

RunCache::Stats RunCache::stats() const {
  Stats total;
  for (const Shard& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard.mu);
    total.memory.hits += shard.stats.hits;
    total.memory.misses += shard.stats.misses;
    total.memory.evictions += shard.stats.evictions;
    total.memory.entries += shard.entries.size();
    total.memory.bytes += shard.stored_bytes;
  }
  std::shared_ptr<DiskCacheTier> disk;
  {
    const std::lock_guard<std::mutex> lock(disk_mu_);
    disk = disk_;
  }
  if (disk != nullptr) {
    const DiskCacheTier::Stats d = disk->stats();
    total.disk = {d.hits, d.misses, d.evictions, d.entries, d.bytes};
  }
  total.hits = total.memory.hits + total.disk.hits;
  // A disk hit was first a memory miss; only lookups neither tier answered
  // count as misses of the cache as a whole.  (Saturating: per-shard
  // snapshots may straddle a concurrent promote.)
  total.misses = total.memory.misses > total.disk.hits
                     ? total.memory.misses - total.disk.hits
                     : 0;
  total.entries = total.memory.entries;
  total.evictions = total.memory.evictions + total.disk.evictions;
  return total;
}

}  // namespace charter::exec
