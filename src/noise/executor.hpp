#pragma once

/// \file executor.hpp
/// The noisy executor: a thin runner over lowered NoiseProgram tapes.
///
/// Historically this class *walked* the ASAP schedule per execution,
/// re-deriving lazy decoherence windows and ZZ flushes and making one
/// virtual engine call per op.  That walk now happens once, at lowering
/// time (noise/program.hpp): run() lowers the circuit to the exact tape and
/// the inner loop is the tape interpreter, which on the density-matrix
/// engine dispatches devirtualized single-pass pair kernels.
///
/// The physical model is unchanged (see program.hpp's lowering rules):
///  1. state-preparation bit flips at t = 0;
///  2. lazy per-qubit thermal relaxation over scheduled busy+idle windows;
///  3. lazy static-ZZ flushing per coupled pair;
///  4. gates with coherent miscalibration (imperfect rotation angle for
///     SX/SXDG/X — SXDG uses the *same* fractional error as SX, mirroring
///     hardware synthesis from the same pulse — and a residual ZZ rotation
///     after CX);
///  5. per-gate stochastic depolarizing;
///  6. drive-crosstalk ZZ phases for temporally overlapping ops.
///
/// Convention: a gate's unitary is applied at the start of its scheduled
/// window and the qubit then decoheres across the window — so a qubit is
/// "busy or idle" for decoherence purposes over the entire wall clock, and
/// the total damping applied to any qubit equals the circuit makespan.
///
/// The executor only accepts basis-gate circuits (transpile first).

#include "circuit/circuit.hpp"
#include "circuit/schedule.hpp"
#include "noise/noise_model.hpp"
#include "noise/program.hpp"
#include "sim/engine.hpp"

namespace charter::noise {

/// Executes circuits against engines under a fixed noise model.
///
/// Besides the one-shot run(), execution is exposed as a *stream* over tape
/// positions: make_stream() lowers the circuit once (always to the exact
/// tape, with resume records), then start()/step()/finish() interpret the
/// prologue, one circuit op's tape segment at a time, and the epilogue.  A
/// stream can be paused after any op, the engine snapshotted, and a derived
/// circuit sharing the same op prefix resumed from that tape position — the
/// mechanism behind exec/checkpoint.hpp's prefix-state checkpointing, which
/// splices derived tapes from the stream's base tape via lower_spliced().
/// run(c, e) is exactly { s = make_stream(c); start(c,s,e); step...; finish }.
class NoisyExecutor {
 public:
  explicit NoisyExecutor(const NoiseModel& model);

  /// Everything one in-flight execution carries: the exact tape (schedule,
  /// crosstalk, and clock bookkeeping all resolved into it) and the next
  /// circuit op to interpret.
  struct Stream {
    NoiseProgram program;
    std::size_t next_op = 0;  ///< next circuit op to apply
  };

  /// Runs \p c (basis gates only) on \p engine from |0...0>.
  /// The engine is reset first.  Throws InvalidArgument when the circuit
  /// contains a non-basis gate or a CX on an uncoupled pair.
  void run(const circ::Circuit& c, sim::NoisyEngine& engine) const;

  /// Lowers \p c under this executor's model into the exact tape.  The
  /// returned tape can be executed many times (e.g. once per trajectory)
  /// without re-deriving the schedule or clocks.
  NoiseProgram lower(const circ::Circuit& c) const;

  /// Validates \p c and lowers its exact tape with resume records.  Does not
  /// touch any engine.
  Stream make_stream(const circ::Circuit& c) const;

  /// Starts an execution: resets \p engine and applies the t = 0
  /// state-preparation prologue.  Call once before the first step().
  void start(const circ::Circuit& c, Stream& stream,
             sim::NoisyEngine& engine) const;

  /// Applies circuit op stream.next_op's tape segment and increments
  /// next_op.  Requires next_op < c.size().
  void step(const circ::Circuit& c, Stream& stream,
            sim::NoisyEngine& engine) const;

  /// Closes out the timeline after the last op: every qubit decoheres and
  /// every pair accumulates ZZ until the makespan (the tape epilogue).
  void finish(const circ::Circuit& c, Stream& stream,
              sim::NoisyEngine& engine) const;

  /// The schedule the executor will use for \p c (exposed for tests and for
  /// the benches that report circuit durations).
  circ::Schedule make_schedule(const circ::Circuit& c) const;

  const NoiseModel& model() const { return model_; }

 private:
  const NoiseModel& model_;
};

}  // namespace charter::noise
