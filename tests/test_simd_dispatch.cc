/**
 * @file
 * REACT_SIMD runtime-dispatch contract (sim/simd.hh): parsing, the
 * resolution matrix, and the negative path -- malformed values
 * (including the retired kernel pins) warn and fall back to the unset
 * default.
 *
 * resolveKernel is pure (policy and capability are explicit inputs), so
 * the incapable-host path is testable on any machine, including AVX2
 * ones.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "sim/simd.hh"

namespace react {
namespace sim {
namespace simd {
namespace {

TEST(SimdDispatch, ParsePolicyAcceptsOffAndAuto)
{
    bool malformed = true;
    EXPECT_EQ(parsePolicy("off", &malformed), Policy::Off);
    EXPECT_FALSE(malformed);
    EXPECT_EQ(parsePolicy("auto", &malformed), Policy::Auto);
    EXPECT_FALSE(malformed);
}

TEST(SimdDispatch, RetiredKernelPinsWarnAndResolveDisabled)
{
    // The host picks the kernel; the old scalar/avx2/avx512 pins are
    // malformed now and mean off, like any other unknown value.
    for (const char *retired : {"scalar", "avx2", "avx512"}) {
        bool malformed = false;
        const Policy policy = parsePolicy(retired, &malformed);
        EXPECT_TRUE(malformed) << retired;
        EXPECT_EQ(resolveKernel(policy, avx2Available()), Kernel::Disabled)
            << retired;

        ASSERT_EQ(::setenv("REACT_SIMD", retired, 1), 0);
        testing::internal::CaptureStderr();
        EXPECT_EQ(envPolicy(), Policy::Off) << retired;
        const std::string log = testing::internal::GetCapturedStderr();
        EXPECT_NE(log.find("defaulting to off"), std::string::npos) << log;
    }
    ASSERT_EQ(::unsetenv("REACT_SIMD"), 0);
}

TEST(SimdDispatch, ParsePolicyFlagsEverythingElseMalformed)
{
    // Per the react::env contract, a malformed value warns (the caller
    // owns the warning) and behaves as unset -- never a silent guess.
    for (const char *bad : {"", "AVX2", "Auto", "sse", "on", "1", "off ",
                            " auto"}) {
        bool malformed = false;
        EXPECT_EQ(parsePolicy(bad, &malformed), Policy::Off)
            << "'" << bad << "'";
        EXPECT_TRUE(malformed) << "'" << bad << "'";
    }
}

TEST(SimdDispatch, ResolutionMatrix)
{
    // Off never engages the lane engine; auto takes AVX2 exactly when
    // it can run (legal only because both kernels are proven
    // bit-identical).  The ignored third argument changes nothing.
    for (const bool avx2 : {false, true}) {
        for (const bool ignored : {false, true}) {
            EXPECT_EQ(resolveKernel(Policy::Off, avx2, ignored),
                      Kernel::Disabled);
            EXPECT_EQ(resolveKernel(Policy::Auto, avx2, ignored),
                      avx2 ? Kernel::Avx2 : Kernel::Scalar);
        }
    }
    EXPECT_EQ(resolveKernel(Policy::Auto, avx2Available()),
              avx2Available() ? Kernel::Avx2 : Kernel::Scalar);
}

TEST(SimdDispatch, EnvPolicyReadsReactSimd)
{
    // envPolicy (unlike the process-cached selectedKernel) re-reads the
    // environment, so the env surface is testable in-process.
    ASSERT_EQ(::setenv("REACT_SIMD", "off", 1), 0);
    EXPECT_EQ(envPolicy(), Policy::Off);
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
    EXPECT_EQ(resolveKernel(policy, avx2Available()), Kernel::Disabled);
}

TEST(SimdDispatch, CapabilityProbesAgree)
{
    // avx2Available is the conjunction of the cpu probe and the build
    // probe; kernelName covers every enumerator (BENCH_*.json relies on
    // the strings).
    EXPECT_EQ(avx2Available(), cpuSupportsAvx2() && avx2KernelCompiled());
    EXPECT_STREQ(kernelName(Kernel::Disabled), "disabled");
    EXPECT_STREQ(kernelName(Kernel::Scalar), "scalar");
    EXPECT_STREQ(kernelName(Kernel::Avx2), "avx2");
}

} // namespace
} // namespace simd
} // namespace sim
} // namespace react
