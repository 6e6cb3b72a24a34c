// Serving embedding-cache mode of core::InferenceServer.
//
// The inference tier answers node-classification queries against a trained
// model; its embedding tier can pin remote store rows in device memory the
// same way the sampled pipeline's feature cache does:
//
//   - `off`:   every remote store row travels over the interconnect for
//              every batch that needs it (the no-cache baseline).
//   - `embed`: a frequency-scored embedding cache (core::FeatureCache kFreq
//              semantics) pins hot remote rows; simulated graph-update
//              events invalidate the touched rows.
//   - `auto`:  price a cached-row read against its sendv extraction with
//              the simulator's own cost model and keep the cache only when
//              it wins — never worse than `off` under the model
//              (core::FeatureCache::plan_auto).
//
// Every mode predicts bit-identically: the cache changes which task moves a
// row, never the row's contents.
//
// The mode is a value (ServeOptions::cache_mode); default-built options
// read the MGGCN_SERVE_CACHE environment variable, and an unknown value
// fails loudly. The batching knobs default the same way: MGGCN_SERVE_BATCH
// (ServeOptions::max_batch) and MGGCN_SERVE_SLACK (slack_seconds).
#pragma once

#include "util/mode.hpp"

namespace mggcn::core {

enum class ServeCacheMode {
  kOff = 0,
  kEmbed = 1,
  kAuto = 2,
};

}  // namespace mggcn::core

template <>
struct mggcn::util::ModeTable<mggcn::core::ServeCacheMode> {
  using E = core::ServeCacheMode;
  static constexpr ModeRow<E> rows[] = {
      {E::kOff, "off"}, {E::kEmbed, "embed"}, {E::kAuto, "auto"}};
  static constexpr const char* env = "MGGCN_SERVE_CACHE";
  static constexpr E fallback = E::kAuto;
};
