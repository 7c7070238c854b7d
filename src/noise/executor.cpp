#include "noise/executor.hpp"

#include "util/error.hpp"

namespace charter::noise {

NoisyExecutor::NoisyExecutor(const NoiseModel& model) : model_(model) {}

circ::Schedule NoisyExecutor::make_schedule(const circ::Circuit& c) const {
  return circ::schedule_asap(
      c, [this](const circ::Gate& g) { return model_.duration(g); },
      /*with_overlaps=*/true);
}

NoiseProgram NoisyExecutor::lower(const circ::Circuit& c) const {
  return noise::lower(model_, c);
}

void NoisyExecutor::run(const circ::Circuit& c,
                        sim::NoisyEngine& engine) const {
  lower(c).execute(engine);
}

NoisyExecutor::Stream NoisyExecutor::make_stream(
    const circ::Circuit& c) const {
  return Stream{noise::lower(model_, c, /*record_resume_info=*/true), 0};
}

void NoisyExecutor::start(const circ::Circuit& c, Stream& stream,
                          sim::NoisyEngine& engine) const {
  require(c.num_qubits() == engine.num_qubits(),
          "circuit width does not match engine");
  // Rewind so a Stream can be reused for repeated executions.
  stream.next_op = 0;
  engine.reset();
  stream.program.run(engine, 0, stream.program.prologue_end());
}

void NoisyExecutor::step(const circ::Circuit& c, Stream& stream,
                         sim::NoisyEngine& engine) const {
  CHARTER_ASSERT(stream.next_op < c.size(), "stepping past the last op");
  const std::size_t i = stream.next_op++;
  stream.program.run(engine, stream.program.op_begin(i),
                     stream.program.op_end(i));
}

void NoisyExecutor::finish(const circ::Circuit& c, Stream& stream,
                           sim::NoisyEngine& engine) const {
  CHARTER_ASSERT(stream.next_op == c.size(), "finishing with ops pending");
  stream.program.run(engine, stream.program.epilogue_begin(),
                     stream.program.size());
}

}  // namespace charter::noise
