// Sparse-matrix x dense-matrix multiplication (the paper's dominant kernel,
// 60-94% of GCN runtime per Fig. 5) and its cost descriptor.
//
// `spmm` is the inspector-executor path (sparse/spmm_plan.hpp) behind a
// process-wide plan cache; `naive::spmm` is the reference loop it is tested
// against. Both fold the beta scale into the first-nonzero accumulation (no
// separate zeroing pass) and accumulate edges in CSR order per output
// element, so they agree bit-for-bit.
#pragma once

#include "dense/matrix.hpp"
#include "sim/cost_model.hpp"
#include "sparse/csr.hpp"

namespace mggcn::sparse {

namespace naive {
/// Reference row-at-a-time SpMM (the correctness oracle).
void spmm(const Csr& a, dense::ConstMatrixView b, dense::MatrixView c,
          float alpha, float beta);
}  // namespace naive

/// C = alpha * A * B + beta * C, with A in CSR (m x k), B (k x d), C (m x d).
/// Looks `a` up in a process-wide plan cache keyed by its CSR arrays
/// (inspecting it on a miss) and runs the cached SpmmPlan. Meant for
/// matrices that are multiplied many times; for a one-shot operand call
/// `SpmmPlan::inspect(a).execute(...)` so no dead plan is retained.
void spmm(const Csr& a, dense::ConstMatrixView b, dense::MatrixView c,
          float alpha = 1.0f, float beta = 0.0f);

/// Cost of one SpMM launch. `src_rows` is the number of B rows the tile can
/// touch (the tile width): it bounds the gather working set, which is what
/// gives narrower tiles better cache reuse (the paper's super-linear
/// speedups, §6.4).
[[nodiscard]] sim::KernelCost spmm_cost(std::int64_t nnz,
                                        std::int64_t out_rows,
                                        std::int64_t src_rows, std::int64_t d);

/// Convenience overload from a concrete tile.
[[nodiscard]] sim::KernelCost spmm_cost(const Csr& a, std::int64_t d);

}  // namespace mggcn::sparse
