#pragma once

// Runs a kernel test on every register-tile body this host can run
// (src/ml/tile.hpp). The bodies differ in speed only, never in bits, so
// each golden and bitwise check must hold on each of them; one ctest run
// on an AVX-512 host checks all three.

#include <gtest/gtest.h>

#include <string>

#include "ml/tile.hpp"

/// Calls f() once per body the host runs, slowest first, under
/// SCOPED_TRACE of its name, then restores the body the host resolved.
template <typename F>
void for_each_body(F&& f) {
  namespace tile = airfedga::ml::tile;
  struct Restore {
    tile::Body resolved = tile::kernel().body;
    ~Restore() { tile::force_body(resolved); }
  } restore;
  for (const tile::Body body : {tile::Body::kDefault, tile::Body::kFma, tile::Body::kWide}) {
    if (!tile::force_body(body)) continue;
    SCOPED_TRACE(std::string("kernel body ") + tile::kernel().name);
    f();
  }
}
