/**
 * @file
 * Tiny capability probe for CI: exits 0 when this host and build run
 * the AVX2 lane kernel, 1 otherwise, printing why.  The golden.simd.*
 * entries run REACT_SIMD=auto, which falls back to scalar lanes on a
 * host without AVX2; this probe is what makes CI fail loudly if its
 * runner ever stops exercising the AVX2 kernel.
 */

#include <cstdio>

#include "sim/simd.hh"

int
main()
{
    using namespace react::sim::simd;
    std::printf("cpu supports avx2: %s; avx2 kernel compiled in: %s\n",
                cpuSupportsAvx2() ? "yes" : "no",
                avx2KernelCompiled() ? "yes" : "no");
    if (!avx2Available()) {
        std::printf("AVX2 lane kernel unavailable; REACT_SIMD=auto runs "
                    "scalar lanes on this host\n");
        return 1;
    }
    return 0;
}
