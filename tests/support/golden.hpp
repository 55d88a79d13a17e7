#pragma once

// The one condition every golden digest holds under. The GEMM rounds the
// same on every build (one fused multiply-add per step), but dataset
// synthesis and the channel draws call libm's log, sqrt and pow, whose last
// bits other C libraries may round differently: the goldens are pinned on
// glibc and skip elsewhere. Use at the point where a test stops checking
// what holds everywhere and starts comparing against pinned values.

#include <gtest/gtest.h>

#include <cstdlib>

#if defined(__GLIBC__)
#define SKIP_UNLESS_GLIBC() static_cast<void>(0)
#else
#define SKIP_UNLESS_GLIBC() GTEST_SKIP() << "golden digests are pinned on glibc's libm log/sqrt/pow"
#endif
