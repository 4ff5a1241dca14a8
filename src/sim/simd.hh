/**
 * @file
 * Runtime SIMD dispatch policy for the batch-of-cells lane engine.
 *
 * The batch stepper (sim/batch_stepper.hh) ships two kernels: a
 * portable scalar fallback and an AVX2 build of the same operation
 * sequence.  Whether the lane engine runs is the REACT_SIMD
 * environment knob's choice, parsed through react::env:
 *
 *      unset / "off"  -> lane engine disabled; every cell runs the
 *                        classic per-cell scalar path (the bit-exact
 *                        default -- golden results never depend on an
 *                        env var being set);
 *      "auto"         -> lane engine on;
 *      anything else  -> react_warn naming the accepted forms, then the
 *                        unset default (per the react::env contract).
 *
 * Which kernel the engine runs is the host's choice, decided once per
 * process: AVX2 when the CPU executes it (cpuid, via
 * __builtin_cpu_supports) and the build compiled it in, scalar
 * otherwise.  Both kernels compute bit-identical results
 * (tests/test_batch_stepper.cc proves it differentially), so the
 * choice is a pure performance matter.
 */

#ifndef REACT_SIM_SIMD_HH
#define REACT_SIM_SIMD_HH

#include <string>

namespace react {
namespace sim {
namespace simd {

/** Parsed REACT_SIMD request. */
enum class Policy
{
    /** Unset/off: classic per-cell stepping, no lane engine. */
    Off,
    /** Lane engine on, with the best kernel the host supports. */
    Auto,
};

/** Kernel the batch stepper will actually run. */
enum class Kernel
{
    /** No lane engine: cells step one at a time (the default). */
    Disabled,
    /** Portable scalar lane kernel. */
    Scalar,
    /** AVX2 4-wide double kernel (two vectors cover the 8 lanes). */
    Avx2,
};

/** Raw cpuid probe: does this host execute AVX2? */
bool cpuSupportsAvx2();

/** Was the AVX2 kernel translation unit compiled into this binary? */
bool avx2KernelCompiled();

/** Both of the above: the AVX2 kernel can actually run here. */
bool avx2Available();

/**
 * Raw cpuid probe: does this host execute AVX-512F?  No kernel uses
 * it; it stays only until ROADMAP item 3's benchmark change drops
 * perfbench's host-fingerprint call.
 */
bool cpuSupportsAvx512f();

/**
 * Always false: there is no AVX-512 kernel.  Stays only until ROADMAP
 * item 3's benchmark change drops perfbench's call.
 */
bool avx512Available();

/**
 * Parse a REACT_SIMD value.  Accepts "off" and "auto" (exact,
 * lower-case).  Anything else sets *malformed and returns the unset
 * default (Policy::Off); the caller owns the warning so this stays pure
 * and unit-testable.
 */
Policy parsePolicy(const std::string &value, bool *malformed);

/** Read REACT_SIMD through react::env: unset -> Off silently, malformed
 *  -> react_warn naming the accepted forms, then Off. */
Policy envPolicy();

/**
 * Resolve a policy against host capability: Off -> Disabled, Auto ->
 * Avx2 when @p avx2_available, else Scalar.  Pure, so the incapable-host
 * path is unit-testable on any machine.  The third argument is ignored;
 * it stays only until ROADMAP item 3's benchmark change drops
 * perfbench's three-argument call.
 */
Kernel resolveKernel(Policy policy, bool avx2_available, bool = false);

/**
 * The process-wide kernel selection: resolveKernel(envPolicy(),
 * avx2Available()), read once and cached -- the engine must not change
 * between cells of one sweep.
 */
Kernel selectedKernel();

/** Display names for logs and BENCH_*.json. */
const char *kernelName(Kernel kernel);

} // namespace simd
} // namespace sim
} // namespace react

#endif // REACT_SIM_SIMD_HH
