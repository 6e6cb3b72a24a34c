// Feature-cache mode: whether and how the sampled pipeline pins hot vertex
// feature rows in device memory.
//
// Sampled mini-batch training re-reads the same high-degree input rows over
// and over (CaPGNN, samgraph study exactly this skew); a per-device cache of
// those rows converts repeated remote extraction traffic into local HBM
// reads:
//
//   - `off`:    every remote input row travels over the interconnect every
//               time it is needed (the no-cache baseline).
//   - `static`: degree-scored — the top-degree remote vertices are pinned at
//               construction and never evicted (zero bookkeeping, good when
//               access skew follows degree).
//   - `freq`:   access-frequency scored (LFU) — rows are admitted/evicted by
//               observed lookup counts, adapting to the actual sampling
//               distribution (the samgraph frequency-hashmap policy).
//   - `auto`:   price a cached row read against its sendv extraction cost
//               with the simulator's own cost model, clamp the capacity to
//               the device memory actually available, and keep the cache
//               only when the model says it wins — never worse than `off`
//               under the model (core::FeatureCache::plan_auto).
//
// Every mode trains bit-identically: the cache changes which task moves a
// row (local gather vs sendv payload), never the row's contents.
//
// The mode is a value (SampledPipeline::Options::cache_mode); default-built
// options read the MGGCN_CACHE environment variable, and an unknown value
// fails loudly. The capacity (Options::cache_capacity_fraction, a fraction
// of the graph's vertices cacheable per device) defaults the same way from
// MGGCN_CACHE_CAP.
#pragma once

#include "util/mode.hpp"

namespace mggcn::core {

enum class CacheMode {
  kOff = 0,
  kStatic = 1,
  kFreq = 2,
  kAuto = 3,
};

}  // namespace mggcn::core

template <>
struct mggcn::util::ModeTable<mggcn::core::CacheMode> {
  using E = core::CacheMode;
  static constexpr ModeRow<E> rows[] = {{E::kOff, "off"},
                                        {E::kStatic, "static"},
                                        {E::kFreq, "freq"},
                                        {E::kAuto, "auto"}};
  static constexpr const char* env = "MGGCN_CACHE";
  static constexpr E fallback = E::kAuto;
};
