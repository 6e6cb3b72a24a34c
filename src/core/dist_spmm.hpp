// Distributed multi-stage SpMM (§4.1, Figs. 2-3) with optional
// communication/computation overlap (§4.3, Fig. 8).
//
// Semantics: with the symmetric 1D partition p, rank i owns tile row i of
// the (already transposed, for the forward direction) adjacency operator and
// the i-th row block of the dense input. The product runs in P stages; at
// stage s, rank s broadcasts its dense block and every rank i accumulates
//
//     C^i += A^{is} * H^s .
//
// Without overlap, stage s+1's broadcast waits for stage s's SpMM (one
// broadcast buffer BC1). With overlap, broadcasts run on the comm stream one
// stage ahead into the double buffer BC1/BC2: broadcast s+1 only waits for
// SpMM s-1 (the previous reader of that buffer), and SpMM kernels run with a
// reduced HBM bandwidth share to model the NVLink contention the paper
// measures (~1/6 on V100).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "comm/comm_mode.hpp"
#include "comm/communicator.hpp"
#include "core/dist_executor.hpp"
#include "core/partition.hpp"
#include "sim/device.hpp"
#include "sim/machine.hpp"

namespace mggcn::core {

class DistSpmm : public DistExecutor {
 public:
  /// `grid` holds the operator's tiles: grid.tile(i, s) multiplies the
  /// stage-s broadcast on rank i. `mode` selects the exchange path (dense
  /// broadcast, compacted ghost-row sendv, or per-stage cost-model
  /// auto-selection); it defaults to MGGCN_COMM.
  DistSpmm(sim::Machine& machine, comm::Communicator& comm, TileGrid grid,
           comm::CommMode mode = util::env_mode<comm::CommMode>());

  /// Registers the tiles' CSR footprints with each device's memory
  /// accounting, plus — under the compact/auto exchange modes — the
  /// ghost-map structures (per-tile required-row list + remapped column
  /// indices) the compacted path needs on-device. Call once after
  /// construction; released on destruction.
  void account_memory();
  ~DistSpmm() override;

  DistSpmm(const DistSpmm&) = delete;
  DistSpmm& operator=(const DistSpmm&) = delete;

  /// The shared executor contract (core/dist_executor.hpp). The aliases
  /// keep the established DistSpmm::Io / DistSpmm::Result spellings.
  using Io = DistIo;
  using Result = DistResult;

  /// Enqueues the whole staged product; returns immediately.
  Result run(const Io& io) override;

  [[nodiscard]] const TileGrid& grid() const { return grid_; }
  [[nodiscard]] comm::CommMode mode() const { return mode_; }
  [[nodiscard]] const PartitionVector& partition() const {
    return grid_.partition;
  }
  [[nodiscard]] int parts() const { return grid_.parts(); }

 private:
  sim::Machine& machine_;
  comm::Communicator& comm_;
  TileGrid grid_;
  comm::CommMode mode_ = comm::CommMode::kDense;
  bool memory_accounted_ = false;
  /// Per-rank ghost-map bytes reserved by account_memory (exact release).
  std::vector<std::uint64_t> ghost_map_bytes_;
};

}  // namespace mggcn::core
