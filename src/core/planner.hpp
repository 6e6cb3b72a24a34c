// Per-layer mixture-of-parallelism auto-planner.
//
// The paper fixes the 1D staged broadcast for every layer, but which
// distribution strategy is cheapest depends on the dense width d(l), the
// tile structure, the device count, and the topology (the
// mixture-of-parallelism argument, PAPERS.md). The Planner owns one
// operator's distributed product and, per (width, overlap) combination,
// prices three interchangeable executors with exactly the models the
// simulator charges:
//
//   - 1d          DistSpmm            staged broadcast, dense/compact
//                                     exchange composing via MGGCN_COMM
//   - 15d         DistSpmm15DChained  order-preserving chained 1.5D: half
//                                     the per-rank broadcast traffic (and
//                                     intra-node groups on clusters) for
//                                     ~2x the per-rank compute
//   - replicated  ReplicatedSpmm      allgather the whole dense operand,
//                                     then ONE fused local SpMM — a single
//                                     collective and a single launch, the
//                                     launch-overhead-bound regime of
//                                     small graphs (§6.1)
//
// Cost inputs: sparse::spmm_cost through sim::CostModel::seconds for every
// kernel, comm::Topology collective models x CommOptions::duration_scale
// for every exchange, Communicator::sendv_rows_seconds for compacted
// stages, and DistSpmm's own overlap-contention dilation — so `auto`'s
// argmin is taken over the very quantities the simulated clock will
// accumulate, which is what backs the invariant that auto never exceeds
// the best fixed strategy's steady-state epoch time.
//
// Decisions are cached per (d, overlap), counted into sim::Trace's
// PlanCounters (plan_* fields of EpochStats and the bench --json), and an
// infeasible choice (odd rank count, replica or partner tiles would not
// fit in device memory) falls back to 1d and counts as plan_fallbacks.
//
// All three executors accumulate every output element in ascending stage
// order, so losses are bit-identical across MGGCN_PLAN values.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "comm/comm_mode.hpp"
#include "comm/communicator.hpp"
#include "core/dist_executor.hpp"
#include "core/dist_spmm.hpp"
#include "core/dist_spmm_15d.hpp"
#include "core/partition.hpp"
#include "core/plan_mode.hpp"
#include "sim/machine.hpp"

namespace mggcn::core {

/// Replicated-operand executor: every rank gathers the full dense input
/// (rank order = global row order), then computes its whole output row
/// block in ONE fused kernel that sweeps the stage tiles left to right.
/// No extra adjacency memory (rank r already owns tile row r under the 1D
/// distribution); the replica buffer costs n x d floats per device.
class ReplicatedSpmm : public DistExecutor {
 public:
  /// `grid` is caller-owned and must outlive this executor.
  ReplicatedSpmm(sim::Machine& machine, comm::Communicator& comm,
                 const TileGrid& grid);

  ReplicatedSpmm(const ReplicatedSpmm&) = delete;
  ReplicatedSpmm& operator=(const ReplicatedSpmm&) = delete;

  /// Uses input/output/d/input_ready/traffic_factor/launch_multiplier;
  /// bc1/bc2/overlap/slot_readers are ignored (nothing is staged, so
  /// there is no broadcast-buffer hazard and no contention window).
  DistResult run(const DistIo& io) override;

  /// Bytes rank `rank` additionally needs at width `d` (replica growth).
  [[nodiscard]] std::uint64_t extra_bytes(int rank, std::int64_t d) const;

 private:
  void ensure_replicas(std::int64_t d);

  sim::Machine& machine_;
  comm::Communicator& comm_;
  const TileGrid& grid_;
  /// replica_[r]: the gathered full dense operand (n x d) on rank r.
  std::vector<std::unique_ptr<sim::DeviceBuffer>> replica_;
  std::int64_t replica_width_ = 0;
  /// Last task to touch replica_[r] in the previous product.
  std::vector<sim::Event> replica_last_use_;
};

class Planner {
 public:
  /// Steady-state estimate of one product per strategy, in simulated
  /// seconds; infeasible strategies price as +infinity.
  struct Estimate {
    double seconds_1d = 0.0;
    double seconds_15d = 0.0;
    double seconds_replicated = 0.0;
    PlanMode choice = PlanMode::k1D;  ///< argmin (1d wins ties)
  };

  /// Takes ownership of `grid` (the Planner's DistSpmm holds it; the other
  /// executors reference it). `mode`/`comm_mode` default to MGGCN_PLAN /
  /// MGGCN_COMM.
  Planner(sim::Machine& machine, comm::Communicator& comm, TileGrid grid,
          PlanMode mode = util::env_mode<PlanMode>(),
          comm::CommMode comm_mode = util::env_mode<comm::CommMode>());

  Planner(const Planner&) = delete;
  Planner& operator=(const Planner&) = delete;

  /// Registers the 1D tile rows (+ ghost maps under compact/auto comm
  /// modes). Strategy-specific extras (partner tiles, partial / replica
  /// buffers) are accounted lazily when a strategy is first selected.
  void account_memory() { spmm_1d_.account_memory(); }

  /// Decides the strategy for this product (cached per (d, overlap)),
  /// records the plan_* counters, and runs the chosen executor.
  DistResult run(const DistIo& io);

  /// Prices one product at width `d` without running anything. Public so
  /// tests and bench_planner can audit the decision surface.
  [[nodiscard]] Estimate price(std::int64_t d, bool overlap,
                               double compute_bandwidth_scale = 1.0,
                               double traffic_factor = 1.0,
                               double launch_multiplier = 1.0) const;

  [[nodiscard]] const TileGrid& grid() const { return spmm_1d_.grid(); }
  [[nodiscard]] const PartitionVector& partition() const {
    return spmm_1d_.partition();
  }
  [[nodiscard]] int parts() const { return spmm_1d_.parts(); }
  [[nodiscard]] PlanMode mode() const { return mode_; }

 private:
  [[nodiscard]] double est_1d(std::int64_t d, bool overlap,
                              double compute_bandwidth_scale,
                              double traffic_factor,
                              double launch_multiplier) const;
  [[nodiscard]] double est_15d(std::int64_t d, double traffic_factor,
                               double launch_multiplier) const;
  [[nodiscard]] double est_replicated(std::int64_t d, double traffic_factor,
                                      double launch_multiplier) const;
  /// Free-memory feasibility of the strategy's extra footprint at width d.
  [[nodiscard]] bool fits(PlanMode strategy, std::int64_t d) const;
  /// Cached count_distinct_cols(tile(r, s)) — NOT TileGrid::plan(), whose
  /// lazy build would suppress the one-time inspector charge DistSpmm
  /// places on the timeline at first use.
  [[nodiscard]] std::int64_t ghost_cols(int r, int s) const;
  /// Cached distinct-column count of stage s's block across every tile
  /// (r, s) with r on `node` — the unioned payload one node-aggregated
  /// inter message to that node carries (see Communicator::sendv_shape).
  [[nodiscard]] std::int64_t node_ghost_cols(int node, int s) const;
  PlanMode decide(const DistIo& io);

  sim::Machine& machine_;
  comm::Communicator& comm_;
  PlanMode mode_;
  comm::CommMode comm_mode_;
  DistSpmm spmm_1d_;  // owns the grid; always constructed (the fallback)
  std::unique_ptr<DistSpmm15DChained> exec_15d_;       // when feasible(p)
  std::unique_ptr<ReplicatedSpmm> exec_replicated_;    // when p > 1
  bool accounted_15d_ = false;
  mutable std::vector<std::vector<std::int64_t>> ghost_cols_;
  mutable std::vector<std::vector<std::int64_t>> node_ghost_cols_;
  std::map<std::pair<std::int64_t, bool>, PlanMode> decisions_;
};

}  // namespace mggcn::core
