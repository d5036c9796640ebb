#pragma once
// Checkpointed execution of scenarios: pause a live run at a boundary
// time, snapshot its complete state into a Checkpoint container, persist
// it, and later resume it — bit-identical to a run that never stopped.
// Resume is replay-based and digest-verified: the prefix is re-executed
// from the scenario and the replayed state must byte-match the stored
// payload (Network::verify_restore). See docs/checkpoint.md.

#include <string>

#include "harness/runner.hpp"
#include "sim/checkpoint.hpp"

namespace aquamac {

/// Encodes the complete runtime state of `network` as a checkpoint
/// payload (save_state of the Network into a fresh StateWriter). Callable only
/// at a boundary between events — run(RunBoundaryHooks) provides those.
[[nodiscard]] std::string encode_network_state(const Network& network);

/// Builds the checkpoint container for `network` paused at `at`: the
/// exact scenario text (save_scenario of `config`), the boundary time,
/// and the state payload.
[[nodiscard]] Checkpoint make_checkpoint(const Network& network, const ScenarioConfig& config,
                                         Time at);

struct CheckpointedRun {
  RunStats stats;
  Checkpoint checkpoint;
};

/// Runs `config` to the horizon, capturing one checkpoint when the run
/// crosses `at`. Throws CheckpointError if the run never reaches `at`
/// (past the horizon).
[[nodiscard]] CheckpointedRun run_scenario_with_checkpoint(const ScenarioConfig& config,
                                                           Time at);

/// run_scenario with config.checkpoint_every / checkpoint_path honored:
/// at every multiple of the interval the current snapshot is written to
/// checkpoint_path, overwriting the previous one. Falls back to a plain
/// run when either knob is unset.
[[nodiscard]] RunStats run_scenario_checkpointing(const ScenarioConfig& config);

/// Resumes `ckpt` under `config`: replays the prefix to ckpt.at,
/// digest-verifies the replayed state against the stored payload (any
/// divergence is a CheckpointError naming the first differing section),
/// then finishes the run and returns its stats. The caller vouches that
/// `config` reproduces the checkpointed prefix — same seed, deployment,
/// hello phase and pre-checkpoint traffic behavior. Knobs that only act
/// after ckpt.at (e.g. the Poisson traffic rate before the first traffic
/// event) may differ.
[[nodiscard]] RunStats resume_scenario_as(const Checkpoint& ckpt, const ScenarioConfig& config);

/// Resumes `ckpt` using its embedded scenario text loaded over `base`.
/// Pointers (trace, logger) and the execution-surface knobs jobs / shards
/// come from `base`: the engine capture is shard-invariant, so resuming
/// under a different shard count than the capture run is sound and still
/// bit-identical.
[[nodiscard]] RunStats resume_scenario(const Checkpoint& ckpt, const ScenarioConfig& base);

}  // namespace aquamac
