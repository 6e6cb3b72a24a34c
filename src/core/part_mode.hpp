// Partitioner mode: how the 1D vertex ordering and cut points are chosen.
//
// The paper's §5.2 answer is a random permutation with uniform cuts — it
// buys nnz balance by deliberately destroying locality, which is exactly
// the wrong trade once communication dominates (our compacted-exchange
// bench shows permutation densifies the ghost sets):
//
//   - `random` (default): §5.2 — random permutation (when
//                 TrainConfig::permute) + uniform cuts, the paper's
//                 behaviour.
//   - `balanced`: natural vertex order with nnz-balanced prefix cuts
//                 (the ablation alternative previously behind
//                 TrainConfig::partition_strategy).
//   - `locality`: multi-level coarsen -> greedy/label-propagation refine ->
//                 balanced-split pipeline minimizing edge cut under the
//                 configurable balance slack (core/partitioner.hpp).
//   - `hier`:     the hierarchical variant for multi-node profiles:
//                 minimize inter-node cut first, intra-node cut second.
//   - `auto`:     price the random and locality/hier candidates with the
//                 partition's actual ghost-row volume (inter-node rows
//                 weighted by the NVLink/NIC bandwidth ratio) and keep the
//                 cheaper one — never worse than `random` under the model.
//
// Any mode trains to the same optimum; losses differ only by the
// floating-point reduction-order effect any reordering has (the documented
// §5.2 permutation effect). Within one mode, training is bit-deterministic.
//
// The mode is a value (TrainConfig::part_mode); default-built configs read
// the MGGCN_PART environment variable, and an unknown value fails loudly,
// so experiment-script typos do not silently change the partitioner under
// study.
#pragma once

#include "util/mode.hpp"

namespace mggcn::core {

enum class PartMode {
  kRandom = 0,
  kBalanced = 1,
  kLocality = 2,
  kHier = 3,
  kAuto = 4,
};

}  // namespace mggcn::core

template <>
struct mggcn::util::ModeTable<mggcn::core::PartMode> {
  using E = core::PartMode;
  static constexpr ModeRow<E> rows[] = {{E::kRandom, "random"},
                                        {E::kBalanced, "balanced"},
                                        {E::kLocality, "locality"},
                                        {E::kHier, "hier"},
                                        {E::kAuto, "auto"}};
  static constexpr const char* env = "MGGCN_PART";
  static constexpr E fallback = E::kRandom;
};

namespace mggcn::core {

/// util::mode_name for PartMode, kept for existing callers.
[[nodiscard]] inline const char* part_mode_name(PartMode mode) {
  return util::mode_name(mode);
}

}  // namespace mggcn::core
