#include "charter/session.hpp"

#include <utility>

#include "util/error.hpp"

namespace charter {

// ---------------------------------------------------------------------------
// SessionConfig
// ---------------------------------------------------------------------------

std::vector<std::string> SessionConfig::validate() const {
  std::vector<std::string> errors;
  const auto flag = [&](const std::string& msg) { errors.push_back(msg); };

  if (reversals_ < 1)
    flag("reversals must be >= 1 (the paper uses 5); got " +
         std::to_string(reversals_));
  if (max_gates_ < 0)
    flag("max_gates must be >= 0 (0 analyzes every eligible gate); got " +
         std::to_string(max_gates_));
  if (shots_ < 0)
    flag("shots must be >= 0 (0 returns the exact distribution); got " +
         std::to_string(shots_));
  if (trajectories_ < 1)
    flag("trajectories must be >= 1 (48 reproduces the paper setup); got " +
         std::to_string(trajectories_));
  if (drift_ < 0.0 || drift_ >= 1.0)
    flag("drift must be in [0, 1) — it scales calibration parameters; got " +
         std::to_string(drift_));
  if (exec_.threads() < 0)
    flag("threads must be >= 0 (0 = one worker per hardware thread); got " +
         std::to_string(exec_.threads()));
  if (exec_.checkpointing() && exec_.checkpoint_memory_bytes() == 0)
    flag("checkpoint_memory_bytes must be > 0 when checkpointing is on; "
         "disable checkpointing instead of zeroing its budget");
  if (!exec_.cache_dir().empty() && !exec_.caching())
    flag("cache_dir is set but caching is disabled; drop cache_dir or "
         "enable caching");
  if (!exec_.cache_dir().empty() && exec_.cache_disk_bytes() == 0)
    flag("cache_disk_bytes must be > 0 when cache_dir is set; drop "
         "cache_dir instead of zeroing its budget");
  return errors;
}

core::CharterOptions SessionConfig::resolved() const {
  core::CharterOptions o;
  o.reversals = reversals_;
  o.skip_rz = skip_rz_;
  o.isolate = isolate_;
  o.max_gates = max_gates_;
  o.compute_validation = validation_;
  o.common_random_numbers = exec_.common_random_numbers();
  o.run.shots = shots_;
  o.run.engine = engine_;
  o.run.trajectories = trajectories_;
  o.run.seed = seed_;
  o.run.drift = drift_;
  o.exec.checkpointing = exec_.checkpointing();
  o.exec.caching = exec_.caching();
  o.exec.checkpoint_memory_bytes = exec_.checkpoint_memory_bytes();
  o.exec.threads = exec_.threads();
  o.budget = exec_.adaptive() ? exec::BudgetMode::kAdaptive
                              : exec::BudgetMode::kFixedBudget;
  return o;
}

std::string to_string(JobStatus status) {
  switch (status) {
    case JobStatus::kQueued: return "queued";
    case JobStatus::kRunning: return "running";
    case JobStatus::kDone: return "done";
    case JobStatus::kCancelled: return "cancelled";
    case JobStatus::kFailed: return "failed";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// Job state shared between Session, its worker, and every JobHandle copy.
// ---------------------------------------------------------------------------

namespace detail {

struct JobState {
  explicit JobState(backend::CompiledProgram p) : program(std::move(p)) {}

  std::uint64_t id = 0;
  JobKind kind = JobKind::kAnalyze;
  backend::CompiledProgram program;
  JobCallbacks callbacks;
  core::CharterReport charter;  ///< kCharacterize input ranking
  int top_k = 0;                ///< kCharacterize gate count
  util::CancelFlag cancel;

  mutable std::mutex mu;
  mutable std::condition_variable cv;
  JobStatus status = JobStatus::kQueued;  // under mu
  JobProgress progress;                   // under mu
  JobResult result;  ///< written by the worker before the terminal
                     ///< transition; immutable afterwards

  /// Callback fence: user callbacks (on_progress/on_impact) deliver only
  /// while the gate is open, and the terminal transition closes it
  /// *before* publishing the terminal status — so once wait() (or
  /// status()) can observe kDone/kCancelled/kFailed, no further callback
  /// begins.  Closing the gate also drains any callback in flight, since
  /// delivery holds callbacks_mu.  Lock order where nested: callbacks_mu
  /// before mu (set_status never holds both).
  mutable std::mutex callbacks_mu;
  bool callbacks_open = true;  // under callbacks_mu

  void set_status(JobStatus next) {
    if (next == JobStatus::kDone || next == JobStatus::kCancelled ||
        next == JobStatus::kFailed) {
      const std::lock_guard<std::mutex> gate(callbacks_mu);
      callbacks_open = false;
    }
    {
      const std::lock_guard<std::mutex> lock(mu);
      status = next;
      result.status = next;
    }
    cv.notify_all();
  }

  bool terminal() const {
    return status == JobStatus::kDone || status == JobStatus::kCancelled ||
           status == JobStatus::kFailed;
  }
};

}  // namespace detail

// ---------------------------------------------------------------------------
// JobHandle
// ---------------------------------------------------------------------------

namespace {

const detail::JobState& deref(
    const std::shared_ptr<detail::JobState>& state) {
  require(state != nullptr, "operation on an invalid (default) JobHandle");
  return *state;
}

}  // namespace

std::uint64_t JobHandle::id() const { return deref(state_).id; }

JobKind JobHandle::kind() const { return deref(state_).kind; }

JobStatus JobHandle::status() const {
  const detail::JobState& s = deref(state_);
  const std::lock_guard<std::mutex> lock(s.mu);
  return s.status;
}

JobProgress JobHandle::progress() const {
  const detail::JobState& s = deref(state_);
  const std::lock_guard<std::mutex> lock(s.mu);
  return s.progress;
}

void JobHandle::cancel() const {
  require(state_ != nullptr, "operation on an invalid (default) JobHandle");
  state_->cancel.request();
}

const JobResult& JobHandle::wait() const {
  const detail::JobState& s = deref(state_);
  std::unique_lock<std::mutex> lock(s.mu);
  s.cv.wait(lock, [&] { return s.terminal(); });
  return s.result;
}

bool JobHandle::wait_for(std::chrono::milliseconds timeout) const {
  const detail::JobState& s = deref(state_);
  std::unique_lock<std::mutex> lock(s.mu);
  return s.cv.wait_for(lock, timeout, [&] { return s.terminal(); });
}

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

namespace {

std::string join_errors(const std::vector<std::string>& errors) {
  std::string out = "invalid SessionConfig:";
  for (const std::string& e : errors) out += "\n  - " + e;
  return out;
}

}  // namespace

Session::Session(const backend::Backend& backend, SessionConfig config)
    : Session(std::shared_ptr<const backend::Backend>(
                  &backend, [](const backend::Backend*) {}),
              std::move(config)) {}

Session::Session(std::shared_ptr<const backend::Backend> backend,
                 SessionConfig config)
    : backend_(std::move(backend)), config_(std::move(config)) {
  require(backend_ != nullptr, "Session needs a backend");
  const std::vector<std::string> errors = config_.validate();
  if (!errors.empty()) throw InvalidArgument(join_errors(errors));
  options_ = config_.resolved();
  if (!config_.execution().cache_dir().empty())
    exec::RunCache::global().set_disk_tier(
        config_.execution().cache_dir(),
        config_.execution().cache_disk_bytes());
  worker_ = std::thread([this] { worker_main(); });
}

Session::~Session() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    // Queued jobs resolve to kCancelled without running; the in-flight one
    // sees its flag at the next job boundary.
    for (const auto& job : queue_) job->cancel.request();
    if (running_ != nullptr) running_->cancel.request();
  }
  cv_.notify_all();
  worker_.join();
}

backend::CompiledProgram Session::compile(
    const circ::Circuit& logical,
    const transpile::TranspileOptions& options) const {
  return backend_->compile(logical, options);
}

JobHandle Session::submit(backend::CompiledProgram program,
                          JobCallbacks callbacks) {
  return enqueue(JobKind::kAnalyze, std::move(program), std::move(callbacks));
}

JobHandle Session::submit_input_impact(backend::CompiledProgram program,
                                       JobCallbacks callbacks) {
  return enqueue(JobKind::kInputImpact, std::move(program),
                 std::move(callbacks));
}

JobHandle Session::submit_characterization(backend::CompiledProgram program,
                                           core::CharterReport charter,
                                           int top_k, JobCallbacks callbacks) {
  require(top_k >= 1, "characterization top_k must be >= 1");
  return enqueue(JobKind::kCharacterize, std::move(program),
                 std::move(callbacks), std::move(charter), top_k);
}

core::CharterReport Session::analyze(const backend::CompiledProgram& program) {
  // The handle must outlive the returned reference: it co-owns the job
  // state wait() points into.
  const JobHandle job = submit(program);
  const JobResult& r = job.wait();
  if (r.status == JobStatus::kFailed) throw Error(r.error);
  if (r.status == JobStatus::kCancelled)
    throw Cancelled("analysis cancelled");
  return r.report;
}

double Session::input_impact(const backend::CompiledProgram& program) {
  const JobHandle job = submit_input_impact(program);
  const JobResult& r = job.wait();
  if (r.status == JobStatus::kFailed) throw Error(r.error);
  if (r.status == JobStatus::kCancelled)
    throw Cancelled("input-impact computation cancelled");
  return r.input_tvd;
}

characterize::CharacterizationReport Session::characterize(
    const backend::CompiledProgram& program,
    const core::CharterReport& charter, int top_k) {
  const JobHandle job = submit_characterization(program, charter, top_k);
  const JobResult& r = job.wait();
  if (r.status == JobStatus::kFailed) throw Error(r.error);
  if (r.status == JobStatus::kCancelled)
    throw Cancelled("characterization cancelled");
  return r.characterization;
}

void Session::cancel_all() {
  const std::lock_guard<std::mutex> lock(mu_);
  for (const auto& job : queue_) job->cancel.request();
  if (running_ != nullptr) running_->cancel.request();
}

std::size_t Session::outstanding_jobs() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return queue_.size() + (running_ != nullptr ? 1 : 0);
}

exec::RunCache::Stats Session::cache_stats() {
  return exec::RunCache::global().stats();
}

characterize::CharacterizeOptions Session::characterization_options(
    int top_k) const {
  characterize::CharacterizeOptions o;
  o.top_k = top_k;
  o.isolate = config_.isolate();
  o.severity_reversals = config_.reversals();
  // Characterization always shares one seed across the original and every
  // sequence: the decay curve is a within-experiment comparison, unlike the
  // paper's independent analysis runs, so CRN is pure variance reduction.
  o.common_random_numbers = true;
  o.run = options_.run;
  o.exec = options_.exec;
  return o;
}

JobHandle Session::enqueue(JobKind kind, backend::CompiledProgram program,
                           JobCallbacks callbacks, core::CharterReport charter,
                           int top_k) {
  auto state = std::make_shared<detail::JobState>(std::move(program));
  state->kind = kind;
  state->callbacks = std::move(callbacks);
  state->charter = std::move(charter);
  state->top_k = top_k;
  state->result.kind = kind;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    require(!closed_, "submit() on a destroyed Session");
    state->id = next_id_++;
    queue_.push_back(state);
  }
  cv_.notify_all();
  return JobHandle(state);
}

void Session::worker_main() {
  for (;;) {
    std::shared_ptr<detail::JobState> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return closed_ || !queue_.empty(); });
      if (queue_.empty()) return;  // closed and drained
      job = queue_.front();
      queue_.pop_front();
      running_ = job;
    }
    run_job(*job);
    {
      const std::lock_guard<std::mutex> lock(mu_);
      running_ = nullptr;
    }
  }
}

void Session::run_job(detail::JobState& job) {
  if (job.cancel.requested()) {
    job.set_status(JobStatus::kCancelled);
    return;
  }
  job.set_status(JobStatus::kRunning);

  core::AnalysisHooks hooks;
  hooks.cancel = &job.cancel;
  hooks.on_progress = [&job](std::size_t completed, std::size_t total) {
    const JobProgress p{completed, total};
    const std::lock_guard<std::mutex> gate(job.callbacks_mu);
    if (!job.callbacks_open) return;  // terminal status already observable
    {
      const std::lock_guard<std::mutex> lock(job.mu);
      job.progress = p;
    }
    if (job.callbacks.on_progress) job.callbacks.on_progress(p);
  };
  if (job.callbacks.on_impact) {
    hooks.on_impact = [&job](const core::GateImpact& impact) {
      const std::lock_guard<std::mutex> gate(job.callbacks_mu);
      if (!job.callbacks_open) return;
      job.callbacks.on_impact(impact);
    };
  }

  try {
    if (job.kind == JobKind::kCharacterize) {
      const characterize::GateCharacterizer characterizer(
          *backend_, characterization_options(job.top_k));
      job.result.characterization =
          characterizer.characterize(job.program, job.charter, &hooks);
    } else {
      const core::CharterAnalyzer analyzer(*backend_, options_);
      if (job.kind == JobKind::kAnalyze) {
        job.result.report = analyzer.analyze(job.program, &hooks);
      } else {
        job.result.input_tvd = analyzer.input_impact(job.program, &hooks);
      }
    }
    job.set_status(JobStatus::kDone);
  } catch (const Cancelled&) {
    job.set_status(JobStatus::kCancelled);
  } catch (const std::exception& e) {
    job.result.error = e.what();
    job.set_status(JobStatus::kFailed);
  }
}

}  // namespace charter
