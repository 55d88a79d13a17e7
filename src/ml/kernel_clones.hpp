#pragma once

// Function multi-versioning for the FMA kernels (the GEMM micro-kernel in
// gemm.cpp and the in-place conv tile in conv2d.cpp): the fma/avx512f
// clones use hardware FMA and wider vectors where the CPU has them,
// selected once at load time via ifunc by feature bit. The kernels
// accumulate with an explicit fused multiply-add, so every clone rounds
// each step once and they differ in speed only, never in bits; the default
// clone calls libm's correctly rounded fmaf. The sanitizers do not support
// ifunc, so their builds run the default clone alone. Internal header: CI
// checks every non-default clone of every kernel that uses the macro for
// vfmadd and for no fmaf call.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define AIRFEDGA_NO_KERNEL_CLONES 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define AIRFEDGA_NO_KERNEL_CLONES 1
#endif
#endif
#if defined(__x86_64__) && defined(__linux__) && (defined(__GNUC__) || defined(__clang__)) && \
    !defined(AIRFEDGA_NO_KERNEL_CLONES)
#define AIRFEDGA_KERNEL_CLONES __attribute__((target_clones("default", "fma", "avx512f")))
/// A kernel called only where AIRFEDGA_KERNEL_CLONE_AVX512() holds: one body.
#define AIRFEDGA_KERNEL_AVX512 __attribute__((target("avx512f")))
/// Whether the kernels run their avx512f clone here: the clone resolver
/// picks it by this feature bit, and callers an AIRFEDGA_KERNEL_AVX512
/// kernel. Such kernels stage operands gathered in pieces for 16-float
/// vectors rather than 8-float ones; both stagings move the same floats.
#define AIRFEDGA_KERNEL_CLONE_AVX512() __builtin_cpu_supports("avx512f")
#else
#define AIRFEDGA_KERNEL_CLONES
#define AIRFEDGA_KERNEL_AVX512
#define AIRFEDGA_KERNEL_CLONE_AVX512() false
#endif
