// Host-kernel policy registry.
//
// Every real-execution compute path (trainer epochs, baselines, benches,
// tests) funnels through the dense GeMM variants and the CSR SpMM. This
// registry lets callers pick between implementations at runtime:
//
//   - `naive`: the original straightforward loops, kept as the correctness
//     reference that tests diff the optimized kernels against.
//   - `tiled`: register-tiled, cache-blocked, auto-vectorizable kernels —
//     the host stand-in for the cuBLAS/cuSPARSE efficiency the paper's
//     performance story is built on (§4.4).
//   - `planned` (the default): the tiled dense kernels plus the
//     inspector–executor SpMM (sparse/spmm_plan.hpp), which amortizes a
//     one-time per-matrix degree-binning pass across every later launch.
//
// Selection: set_kernel_policy() programmatically, or the MGGCN_KERNELS
// environment variable read once at first use. Unlike the other modes this
// one is process-wide: the free gemm/spmm entry points have no config in
// reach. Benches expose it as a CLI sweep so the policies land in the same
// JSON artifact for the perf-regression gate (scripts/check_perf.py).
#pragma once

#include "dense/matrix.hpp"
#include "util/mode.hpp"

namespace mggcn::dense {

enum class KernelPolicy { kNaive = 0, kTiled = 1, kPlanned = 2 };

}  // namespace mggcn::dense

template <>
struct mggcn::util::ModeTable<mggcn::dense::KernelPolicy> {
  using E = dense::KernelPolicy;
  static constexpr ModeRow<E> rows[] = {
      {E::kNaive, "naive"}, {E::kTiled, "tiled"}, {E::kPlanned, "planned"}};
  static constexpr const char* env = "MGGCN_KERNELS";
  static constexpr E fallback = E::kPlanned;
};

namespace mggcn::dense {

/// The active policy. Defaults to kPlanned, overridable once via the
/// MGGCN_KERNELS environment variable; throws InvalidArgumentError on an
/// unknown MGGCN_KERNELS value so experiment-script typos fail loudly.
[[nodiscard]] KernelPolicy kernel_policy();

/// Installs `policy` as the active policy (e.g. from a --kernels CLI flag).
void set_kernel_policy(KernelPolicy policy);

/// RAII policy override for tests and benches that diff the two paths.
class ScopedKernelPolicy {
 public:
  explicit ScopedKernelPolicy(KernelPolicy policy) : previous_(kernel_policy()) {
    set_kernel_policy(policy);
  }
  ~ScopedKernelPolicy() { set_kernel_policy(previous_); }
  ScopedKernelPolicy(const ScopedKernelPolicy&) = delete;
  ScopedKernelPolicy& operator=(const ScopedKernelPolicy&) = delete;

 private:
  KernelPolicy previous_;
};

/// Per-policy dense kernel entry points. The dispatching wrappers in
/// kernels.hpp look the active table up per call, so flipping the policy
/// mid-process (tests) immediately reroutes every caller.
struct DenseKernelTable {
  using GemmFn = void (*)(ConstMatrixView, ConstMatrixView, MatrixView, float,
                          float);
  using GemmMaskedFn = void (*)(ConstMatrixView, ConstMatrixView, MatrixView);

  GemmFn gemm = nullptr;
  GemmFn gemm_at_b = nullptr;
  GemmFn gemm_a_bt = nullptr;
  GemmMaskedFn gemm_a_bt_relu_masked = nullptr;
};

/// The kernel table registered for `policy`.
[[nodiscard]] const DenseKernelTable& dense_kernels(KernelPolicy policy);

/// Replaces the table for `policy` (hook for future backends, e.g. a BLAS
/// binding); the built-in naive and tiled tables are pre-registered.
void register_dense_kernels(KernelPolicy policy, const DenseKernelTable& table);

}  // namespace mggcn::dense
