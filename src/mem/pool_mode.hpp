// Workspace-pool mode: whether device buffers come from the shared
// stream-ordered pool (mem::WorkspacePool) or are statically owned.
//
//   - `off`:  every component allocates private sim::DeviceBuffers exactly
//             as before the pool existed — the bit-for-bit parity axis the
//             pooled modes are diffed against.
//   - `on`:   every engine routes its buffers through a WorkspacePool,
//             self-creating a per-machine PoolSet when the caller did not
//             share one. Freed blocks are recycled stream-ordered, so peak
//             footprint drops wherever buffer lifetimes do not overlap.
//   - `auto`: pool only when the caller installed a shared PoolSet
//             (multi-tenant setups — the case cross-component reuse pays
//             for); single-tenant engines stay on the static path. This is
//             the conservative resolution CaPGNN's joint-budget argument
//             suggests: pooling buys sharing, and sharing needs tenants.
//
// Every mode trains and serves bit-identically: recycled blocks are
// re-zeroed before reuse, so a pooled buffer starts life exactly like a
// fresh DeviceBuffer; only footprint and (slightly) the simulated schedule
// of reuse edges differ.
//
// The mode is a value (the engines' `pool_mode` option fields);
// default-built ones read the MGGCN_POOL environment variable, and an
// unknown value fails loudly. MGGCN_POOL_BUDGET is the default per-device
// budget of PoolSet::create in bytes (0 = the device's full capacity).
#pragma once

#include "util/mode.hpp"

namespace mggcn::mem {

enum class PoolMode {
  kOff = 0,
  kOn = 1,
  kAuto = 2,
};

}  // namespace mggcn::mem

template <>
struct mggcn::util::ModeTable<mggcn::mem::PoolMode> {
  using E = mem::PoolMode;
  static constexpr ModeRow<E> rows[] = {
      {E::kOff, "off"}, {E::kOn, "on"}, {E::kAuto, "auto"}};
  static constexpr const char* env = "MGGCN_POOL";
  static constexpr E fallback = E::kAuto;
};
