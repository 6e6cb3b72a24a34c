// Training configuration and the paper's four model presets (§6, "Model").
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "comm/comm_mode.hpp"
#include "core/part_mode.hpp"
#include "core/plan_mode.hpp"
#include "mem/pool_mode.hpp"

namespace mggcn::mem {
class PoolSet;
}

namespace mggcn::core {

struct TrainConfig {
  /// Hidden layer widths; the full layer-dim chain is
  /// [feature_dim, hidden..., num_classes].
  std::vector<std::int64_t> hidden_dims = {512};

  /// §5.2: random vertex permutation for tile load balance. Only consulted
  /// by the `random` partitioner; the structured modes define their own
  /// ordering.
  bool permute = true;
  /// How the 1D vertex ordering + cut points are chosen: the paper's
  /// random permutation, nnz-balanced prefix cuts, the locality-aware
  /// min-cut partitioner, its hierarchical multi-node variant, or
  /// cut-priced auto-selection (core/partitioner.hpp). Defaults to
  /// MGGCN_PART (read at config construction). All modes train to the
  /// same optimum; losses differ only by the floating-point
  /// reduction-order effect of reordering (the documented §5.2
  /// permutation effect).
  PartMode part_mode = util::env_mode<PartMode>();
  /// Balance slack for the locality/hier partitioners: a part's nnz may
  /// exceed the mean by at most this factor.
  double partition_slack = 1.15;
  /// §4.3: overlap broadcast i+1 with SpMM i using the BC2 double buffer.
  bool overlap = true;
  /// Exchange path of the staged SpMM: dense broadcast, compacted
  /// ghost-row sendv, or per-stage cost-model auto-selection. Defaults to
  /// MGGCN_COMM (read at config construction, so the environment axis
  /// reaches every trainer built from a default config). All three train
  /// bit-identically; only volume/time differ.
  comm::CommMode comm_mode = util::env_mode<comm::CommMode>();
  /// Distribution strategy of the distributed products: forced 1d / 15d /
  /// replicated, or per-layer cost-model auto-selection (core::Planner).
  /// Defaults to MGGCN_PLAN (read at config construction). All four train
  /// bit-identically; only time, volume and memory differ.
  PlanMode plan_mode = util::env_mode<PlanMode>();
  /// §4.4: run GeMM before SpMM when d(l) >= d(l+1), else SpMM first.
  bool reorder_gemm_spmm = true;
  /// When reorder_gemm_spmm is off, run every layer aggregate-first
  /// (SpMM on d(l)) instead of weight-first. CAGNET's 1D SUMMA broadcasts
  /// H — always aggregate-first — which is why its per-layer communication
  /// is n*d(l) and the §4.4 order switch beats it on wide-hidden models.
  bool spmm_first_when_no_reorder = false;
  /// §4.4: skip the first layer's backward SpMM when input-feature
  /// gradients are not needed (the paper's averaging argument).
  bool skip_first_backward_spmm = true;
  /// Autograd-framework behaviour (DGL/CAGNET on PyTorch): when the first
  /// layer is aggregate-first, the forward saves A^T X and the weight
  /// gradient reuses it, so no backward SpMM is needed for that layer even
  /// without the §4.4 trick. Cost-equivalent modeling knob (the extra saved
  /// tensor is covered by reuse_buffers = false).
  bool autograd_aggregation_reuse = false;

  // Adam (Kingma & Ba), the optimizer the paper implements.
  double learning_rate = 1e-2;
  double beta1 = 0.9;
  double beta2 = 0.999;
  double epsilon = 1e-8;

  /// Whether device buffers come from the stream-ordered workspace pool
  /// (mem::WorkspacePool) or are statically owned. Defaults to MGGCN_POOL
  /// (read at config construction); kOff preserves the pre-pool
  /// allocation behaviour bit for bit. See mem/pool_mode.hpp for the
  /// off/on/auto semantics.
  mem::PoolMode pool_mode = util::env_mode<mem::PoolMode>();
  /// Shared per-machine workspace pools (mem::PoolSet::create) so several
  /// tenants — trainer, sampled pipeline, inference server — recycle one
  /// budget. Null: kOn self-creates a private set, kOff/kAuto stay static.
  std::shared_ptr<mem::PoolSet> pool;

  std::uint64_t seed = 1;

  /// Whether gradients w.r.t. the input features are required (disables the
  /// first-layer backward skip).
  bool input_grad_needed = false;

  // --- Baseline-emulation knobs (defaults = MG-GCN behaviour). -----------
  // The baselines (src/baselines/) run the same engine with these set so
  // that measured ratios isolate the design deltas the paper evaluates.

  /// §4.2 buffer reuse. When false, two extra n x d buffers per layer are
  /// allocated (saved pre-activation + gradient, the eager-framework
  /// pattern), tripling the per-layer slope of Fig. 12.
  bool reuse_buffers = true;
  /// Multiplies every kernel's launch count (framework dispatch overhead:
  /// eager per-op execution in DGL/PyTorch vs fused C++ kernels).
  double kernel_overhead_multiplier = 1.0;
  /// Multiplies SpMM memory traffic (generic/COO kernels and format
  /// conversions vs tuned CSR SpMM).
  double spmm_traffic_factor = 1.0;
  /// Collective efficiency relative to MG-GCN's NCCL 2.11 (CAGNET pins
  /// NCCL 2.4); durations scale by 1 / comm_efficiency.
  double comm_efficiency = 1.0;
};

/// Model 1 (§6): 2 layers, hidden 512 — the CAGNET/DGL comparison model.
inline TrainConfig model_hidden512() {
  TrainConfig c;
  c.hidden_dims = {512};
  return c;
}

/// Model 2 (§6): 2 layers, hidden 16 — the DistGNN-on-Reddit comparison.
inline TrainConfig model_hidden16() {
  TrainConfig c;
  c.hidden_dims = {16};
  return c;
}

/// Model 3 (§6): 3 layers, hidden 256 — DistGNN on Products/Proteins/Papers.
inline TrainConfig model_hidden256x2() {
  TrainConfig c;
  c.hidden_dims = {256, 256};
  return c;
}

/// Model 4 (§6): 3 layers, hidden 208 — the largest hidden size that fits
/// Papers on DGX-A100.
inline TrainConfig model_hidden208x2() {
  TrainConfig c;
  c.hidden_dims = {208, 208};
  return c;
}

}  // namespace mggcn::core
