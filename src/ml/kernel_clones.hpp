#pragma once

// Function multi-versioning for the FMA register tile (src/ml/tile.cpp),
// which ml::sgemm and Conv2D both run. Each kernel comes as 8-float clones
// and a 16-float twin: the narrow_* kernels have a default and an fma
// clone, selected once at load time via ifunc by feature bit, and callers
// take the wide_* avx512f body instead where AIRFEDGA_KERNEL_CLONE_AVX512()
// holds, so no narrow kernel needs an avx512f clone. The kernels accumulate
// with an explicit fused multiply-add, so every body rounds each step once
// and they differ in speed only, never in bits; the default clone calls
// libm's correctly rounded fmaf. The sanitizers do not support ifunc, so
// their builds run the default clone alone. Internal header: CI checks
// that every cloned kernel has an fma clone and a wide_* twin, and every
// non-default body for vfmadd and for no fmaf call.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define AIRFEDGA_NO_KERNEL_CLONES 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define AIRFEDGA_NO_KERNEL_CLONES 1
#endif
#endif
#if defined(__x86_64__) && defined(__linux__) && (defined(__GNUC__) || defined(__clang__)) && \
    !defined(AIRFEDGA_NO_KERNEL_CLONES)
/// A kernel that runs where AIRFEDGA_KERNEL_CLONE_AVX512() does not hold.
#define AIRFEDGA_KERNEL_NARROW __attribute__((target_clones("default", "fma")))
/// A kernel called only where AIRFEDGA_KERNEL_CLONE_AVX512() holds: one body.
#define AIRFEDGA_KERNEL_AVX512 __attribute__((target("avx512f")))
/// Whether callers take the AIRFEDGA_KERNEL_AVX512 kernels here. Those
/// stage operands gathered in pieces for 16-float vectors rather than
/// 8-float ones; both stagings move the same floats.
#define AIRFEDGA_KERNEL_CLONE_AVX512() __builtin_cpu_supports("avx512f")
#else
#define AIRFEDGA_KERNEL_NARROW
#define AIRFEDGA_KERNEL_AVX512
#define AIRFEDGA_KERNEL_CLONE_AVX512() false
#endif
