/**
 * @file
 * REACT_SIMD runtime-dispatch contract (sim/simd.hh): parsing, the
 * resolution matrix, and the three negative paths the ISSUE pins --
 * an explicit avx2 request on an incapable host fails loudly, "scalar"
 * pins the scalar kernel even when AVX2 exists, and malformed values
 * warn and fall back to the unset default.
 *
 * resolveKernel is pure (policy and capability are explicit inputs), so
 * the incapable-host paths are testable on any machine, including AVX2
 * ones.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "sim/batch_stepper.hh"
#include "sim/simd.hh"

namespace react {
namespace sim {
namespace simd {
namespace {

TEST(SimdDispatch, ParsePolicyAcceptsTheFiveForms)
{
    bool malformed = true;
    EXPECT_EQ(parsePolicy("off", &malformed), Policy::Off);
    EXPECT_FALSE(malformed);
    EXPECT_EQ(parsePolicy("auto", &malformed), Policy::Auto);
    EXPECT_FALSE(malformed);
    EXPECT_EQ(parsePolicy("scalar", &malformed), Policy::Scalar);
    EXPECT_FALSE(malformed);
    EXPECT_EQ(parsePolicy("avx2", &malformed), Policy::Avx2);
    EXPECT_FALSE(malformed);
    EXPECT_EQ(parsePolicy("avx512", &malformed), Policy::Avx512);
    EXPECT_FALSE(malformed);
}

TEST(SimdDispatch, ParsePolicyFlagsEverythingElseMalformed)
{
    // Per the react::env contract, a malformed value warns (the caller
    // owns the warning) and behaves as unset -- never a silent guess.
    for (const char *bad : {"", "AVX2", "Auto", "sse", "AVX512", "on",
                            "1", "scalar ", " avx2", "avx512f"}) {
        bool malformed = false;
        EXPECT_EQ(parsePolicy(bad, &malformed), Policy::Off)
            << "'" << bad << "'";
        EXPECT_TRUE(malformed) << "'" << bad << "'";
    }
}

TEST(SimdDispatch, ResolutionMatrix)
{
    // Off never engages the lane engine; scalar is pinned regardless of
    // capability; auto takes the widest available kernel (legal only
    // because every kernel is proven bit-identical).
    for (const bool avx2 : {false, true}) {
        for (const bool avx512 : {false, true}) {
            EXPECT_EQ(resolveKernel(Policy::Off, avx2, avx512),
                      Kernel::Disabled);
            EXPECT_EQ(resolveKernel(Policy::Scalar, avx2, avx512),
                      Kernel::Scalar);
        }
    }
    EXPECT_EQ(resolveKernel(Policy::Auto, false, false), Kernel::Scalar);
    EXPECT_EQ(resolveKernel(Policy::Auto, true, false), Kernel::Avx2);
    EXPECT_EQ(resolveKernel(Policy::Auto, true, true), Kernel::Avx512);
    EXPECT_EQ(resolveKernel(Policy::Auto, false, true), Kernel::Avx512);
    EXPECT_EQ(resolveKernel(Policy::Avx2, true, false), Kernel::Avx2);
    EXPECT_EQ(resolveKernel(Policy::Avx512, false, true), Kernel::Avx512);
}

TEST(SimdDispatchDeathTest, ExplicitAvx2RequestFailsLoudlyWhenUnavailable)
{
    // REACT_SIMD=avx2 on a host (or build) that cannot run the AVX2
    // kernel must panic, naming the cause and the fallback knob --
    // silently handing back the scalar engine would report the wrong
    // machine's numbers.
    EXPECT_DEATH(resolveKernel(Policy::Avx2, false, false),
                 "REACT_SIMD=avx2 requested but the AVX2 lane kernel "
                 "cannot run here");
}

TEST(SimdDispatchDeathTest, ExplicitAvx512RequestFailsLoudlyWhenUnavailable)
{
    // Same contract one step wider; note avx2 capability is NOT an
    // acceptable substitute -- the request named avx512.
    EXPECT_DEATH(resolveKernel(Policy::Avx512, true, false),
                 "REACT_SIMD=avx512 requested but the AVX-512 lane "
                 "kernel cannot run here");
}

TEST(SimdDispatch, ScalarPinsTheScalarKernelEndToEnd)
{
    // On an AVX2-capable host, Policy::Scalar must still hand the batch
    // stepper the scalar kernel -- the pin is what makes scalar-vs-avx2
    // A/B runs trustworthy.
    const Kernel kernel =
        resolveKernel(Policy::Scalar, avx2Available(), avx512Available());
    ASSERT_EQ(kernel, Kernel::Scalar);
    BatchStepper stepper(kernel, units::Seconds(1e-3));
    EXPECT_EQ(stepper.kernel(), Kernel::Scalar);
}

TEST(SimdDispatch, EnvPolicyReadsReactSimd)
{
    // envPolicy (unlike the process-cached selectedKernel) re-reads the
    // environment, so the env surface is testable in-process.
    ASSERT_EQ(::setenv("REACT_SIMD", "scalar", 1), 0);
    EXPECT_EQ(envPolicy(), Policy::Scalar);
    ASSERT_EQ(::setenv("REACT_SIMD", "auto", 1), 0);
    EXPECT_EQ(envPolicy(), Policy::Auto);
    ASSERT_EQ(::unsetenv("REACT_SIMD"), 0);
    EXPECT_EQ(envPolicy(), Policy::Off);
}

TEST(SimdDispatch, MalformedEnvValueWarnsAndDefaultsOff)
{
    // The warn path must not abort and must resolve to the unset
    // default (classic per-cell engine), per the react::env contract.
    ASSERT_EQ(::setenv("REACT_SIMD", "turbo", 1), 0);
    testing::internal::CaptureStderr();
    const Policy policy = envPolicy();
    const std::string log = testing::internal::GetCapturedStderr();
    ASSERT_EQ(::unsetenv("REACT_SIMD"), 0);
    EXPECT_EQ(policy, Policy::Off);
    EXPECT_NE(log.find("REACT_SIMD"), std::string::npos) << log;
    EXPECT_NE(log.find("defaulting to off"), std::string::npos) << log;
    EXPECT_EQ(resolveKernel(policy, avx2Available(), avx512Available()),
              Kernel::Disabled);
}

TEST(SimdDispatch, CapabilityProbesAgree)
{
    // Each *Available probe is the conjunction of its cpu probe and
    // build probe; kernelName covers every enumerator (BENCH_*.json
    // relies on the strings).
    EXPECT_EQ(avx2Available(), cpuSupportsAvx2() && avx2KernelCompiled());
    EXPECT_EQ(avx512Available(),
              cpuSupportsAvx512f() && avx512KernelCompiled());
    EXPECT_STREQ(kernelName(Kernel::Disabled), "disabled");
    EXPECT_STREQ(kernelName(Kernel::Scalar), "scalar");
    EXPECT_STREQ(kernelName(Kernel::Avx2), "avx2");
    EXPECT_STREQ(kernelName(Kernel::Avx512), "avx512");
}

} // namespace
} // namespace simd
} // namespace sim
} // namespace react
