#include "harness/checkpoint_run.hpp"

#include <sstream>

#include "harness/config_io.hpp"

namespace aquamac {

std::string encode_network_state(const Network& network) {
  StateWriter writer;
  save_state(network, writer);
  return writer.bytes();
}

Checkpoint make_checkpoint(const Network& network, const ScenarioConfig& config, Time at) {
  Checkpoint ckpt;
  std::ostringstream scenario;
  save_scenario(config, scenario);
  ckpt.scenario_text = scenario.str();
  ckpt.at = at;
  ckpt.payload = encode_network_state(network);
  return ckpt;
}

CheckpointedRun run_scenario_with_checkpoint(const ScenarioConfig& config, Time at) {
  Simulator sim{config.logger};
  Network network{sim, config};
  CheckpointedRun out{};
  bool captured = false;
  RunBoundaryHooks hooks;
  hooks.boundaries = {at};
  hooks.on_boundary = [&](Time boundary) {
    out.checkpoint = make_checkpoint(network, config, boundary);
    captured = true;
    return true;
  };
  out.stats = network.run(hooks);
  if (!captured) {
    throw CheckpointError("checkpoint time " + at.to_string() +
                          " lies past the run horizon; nothing was captured");
  }
  return out;
}

RunStats run_scenario_checkpointing(const ScenarioConfig& config) {
  if (config.checkpoint_every <= Duration::zero() || config.checkpoint_path.empty()) {
    return run_scenario(config);
  }
  Simulator sim{config.logger};
  Network network{sim, config};
  RunBoundaryHooks hooks;
  for (Time t = Time::zero() + config.checkpoint_every; t <= network.horizon();
       t += config.checkpoint_every) {
    hooks.boundaries.push_back(t);
  }
  hooks.on_boundary = [&](Time boundary) {
    write_checkpoint_file(make_checkpoint(network, config, boundary), config.checkpoint_path);
    return true;
  };
  return network.run(hooks);
}

RunStats resume_scenario_as(const Checkpoint& ckpt, const ScenarioConfig& config) {
  Simulator sim{config.logger};
  Network network{sim, config};
  bool verified = false;
  RunBoundaryHooks hooks;
  hooks.boundaries = {ckpt.at};
  hooks.on_boundary = [&](Time) {
    network.verify_restore(ckpt.payload);
    verified = true;
    return true;
  };
  RunStats stats = network.run(hooks);
  if (!verified) {
    throw CheckpointError("checkpoint time " + ckpt.at.to_string() +
                          " was never reached on resume; the scenario horizon is shorter than "
                          "the checkpoint");
  }
  return stats;
}

RunStats resume_scenario(const Checkpoint& ckpt, const ScenarioConfig& base) {
  std::istringstream is{ckpt.scenario_text};
  ScenarioConfig config = load_scenario(is, base);
  // jobs/shards are execution-surface knobs, not physics: the embedded
  // scenario text carries the capture run's values, but the engine
  // capture is shard-invariant, so the caller's values win.
  config.jobs = base.jobs;
  config.shards = base.shards;
  return resume_scenario_as(ckpt, config);
}

}  // namespace aquamac
