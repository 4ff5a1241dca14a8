/**
 * @file
 * Environment-driven checkpoint wiring for long sweeps.
 *
 * The sweep benches are embarrassingly parallel grids of independent
 * cells; a crash hours into one should cost the unfinished cells, not
 * the whole grid.  Setting
 *
 *     REACT_CHECKPOINT_DIR=<dir>
 *
 * makes every grid cell checkpoint its simulation state to
 * `<dir>/<cell-key>.snap` (the key gains a `:faults-<digest>-<seed>`
 * suffix under a fault plan; atomically, with a `.prev` fallback -- see
 * snapshot/snapshot.hh) and resume from it on the next run: finished
 * cells return their stored result instantly, interrupted cells pick up
 * from their last periodic checkpoint bit-identically, and damaged
 * snapshot files degrade to a cold start.  The cadence defaults to
 * kDefaultCheckpointInterval steps and can be overridden with
 *
 *     REACT_CHECKPOINT_INTERVAL=<steps>
 *
 * Both variables are read per cell, so the switch needs no code changes
 * in the individual benches: bench::runCell() routes through
 * applyCheckpointEnv().
 */

#ifndef REACT_HARNESS_CHECKPOINT_HH
#define REACT_HARNESS_CHECKPOINT_HH

#include <cstdint>
#include <string>
#include <string_view>

#include "harness/experiment.hh"

namespace react {
namespace harness {

/**
 * Default periodic-checkpoint cadence, in engine steps.  At the
 * evaluation timestep (1 ms) this is every 250 simulated seconds --
 * frequent enough that a crash loses little, rare enough that snapshot
 * I/O stays invisible next to the physics.
 */
constexpr uint64_t kDefaultCheckpointInterval = 250000;

/**
 * Map an arbitrary cell key (e.g. "DE:RF Cart:REACT") to a safe
 * snapshot filename: [A-Za-z0-9._-] pass through, every other byte
 * becomes '_', and ".snap" is appended.  Distinct keys that sanitize to
 * the same name would share a file, but the experiment identity stored
 * in the snapshot's meta section rejects the mismatch at load time.
 */
std::string checkpointFileName(std::string_view cell_key);

/**
 * Apply the REACT_CHECKPOINT_DIR / REACT_CHECKPOINT_INTERVAL
 * environment to @p config for the cell named @p cell_key.  A cell
 * with a fault plan gets a file of its own per (plan, fault seed), so
 * the severities of one fault sweep never share a snapshot.  No-op
 * (returns false) when REACT_CHECKPOINT_DIR is unset or empty.
 */
bool applyCheckpointEnv(ExperimentConfig *config,
                        std::string_view cell_key);

} // namespace harness
} // namespace react

#endif // REACT_HARNESS_CHECKPOINT_HH
