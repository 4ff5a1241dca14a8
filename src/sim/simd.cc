#include "simd.hh"

#include "util/env.hh"
#include "util/logging.hh"

namespace react {
namespace sim {
namespace simd {

bool
cpuSupportsAvx2()
{
#if defined(__x86_64__) || defined(__i386__)
    return __builtin_cpu_supports("avx2") != 0;
#else
    return false;
#endif
}

bool
avx2KernelCompiled()
{
#ifdef REACT_HAVE_AVX2_KERNEL
    return true;
#else
    return false;
#endif
}

bool
avx2Available()
{
    return avx2KernelCompiled() && cpuSupportsAvx2();
}

bool
cpuSupportsAvx512f()
{
#if defined(__x86_64__) || defined(__i386__)
    return __builtin_cpu_supports("avx512f") != 0;
#else
    return false;
#endif
}

bool
avx512Available()
{
    return false;
}

Policy
parsePolicy(const std::string &value, bool *malformed)
{
    if (malformed != nullptr)
        *malformed = false;
    if (value == "off")
        return Policy::Off;
    if (value == "auto")
        return Policy::Auto;
    if (malformed != nullptr)
        *malformed = true;
    return Policy::Off;
}

Policy
envPolicy()
{
    const auto value = env::stringVar("REACT_SIMD");
    if (!value)
        return Policy::Off;
    bool malformed = false;
    const Policy policy = parsePolicy(*value, &malformed);
    if (malformed)
        react_warn("REACT_SIMD='%s' is not off or auto; defaulting to "
                   "off (classic per-cell engine)",
                   value->c_str());
    return policy;
}

Kernel
resolveKernel(Policy policy, bool avx2_available, bool)
{
    if (policy == Policy::Off)
        return Kernel::Disabled;
    // Both kernels are bit-identical (the differential harness in
    // tests/test_batch_stepper.cc proves it), so the host may take the
    // vector one without changing any result.
    return avx2_available ? Kernel::Avx2 : Kernel::Scalar;
}

Kernel
selectedKernel()
{
    // Read once per process: the engine must not change between cells
    // of one sweep.
    static const Kernel kernel =
        resolveKernel(envPolicy(), avx2Available());
    return kernel;
}

const char *
kernelName(Kernel kernel)
{
    switch (kernel) {
    case Kernel::Disabled:
        return "disabled";
    case Kernel::Scalar:
        return "scalar";
    case Kernel::Avx2:
        return "avx2";
    }
    return "?";
}

} // namespace simd
} // namespace sim
} // namespace react
