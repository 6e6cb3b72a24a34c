// Exchange mode of the staged-broadcast SpMM.
//
// MG-GCN's baseline exchange broadcasts each rank's *entire* dense block
// every stage (§4.1), even when the consuming tiles read only a few of its
// rows. The compacted exchange (Demirci et al.'s sparsity-aware
// communication, CaPGNN's redundant-transfer avoidance) ships only the
// ghost rows each destination's tile actually gathers:
//
//   - `dense`: always broadcast full blocks (the paper's §4.1 behaviour).
//   - `compact`: always pack + send only the required rows, per
//     destination, via Communicator::sendv_rows.
//   - `auto` (the default): per stage, pick whichever the topology cost
//     model predicts is faster — compaction wins on sparse stages, dense
//     broadcast keeps high-density graphs at exactly their old timings.
//
// The mode is a value (TrainConfig::comm_mode, the DistSpmm and Planner
// constructors); default-built ones read the MGGCN_COMM environment
// variable, and an unknown value fails loudly so experiment-script typos
// do not silently change the communication volume under study.
#pragma once

#include "util/mode.hpp"

namespace mggcn::comm {

enum class CommMode { kDense = 0, kCompact = 1, kAuto = 2 };

}  // namespace mggcn::comm

template <>
struct mggcn::util::ModeTable<mggcn::comm::CommMode> {
  using E = comm::CommMode;
  static constexpr ModeRow<E> rows[] = {
      {E::kDense, "dense"}, {E::kCompact, "compact"}, {E::kAuto, "auto"}};
  static constexpr const char* env = "MGGCN_COMM";
  static constexpr E fallback = E::kAuto;
};
