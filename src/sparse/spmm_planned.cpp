// SpmmPlan executor (the hot half of sparse::spmm). Kept in its own
// translation unit so it can be compiled at -O3 with the kernel ISA flags
// (see CMakeLists.txt) while the inspector TU keeps default flags.
//
// Every path preserves the naive reference's per-element IEEE operation
// sequence (first-nonzero beta fusion, edges accumulated one at a time in CSR
// order), so the executor stays bit-identical to naive::spmm. The speedup comes
// from *row* scheduling only: the plan elides empty rows into one bulk
// zero/scale pass, and the executor makes a single sweep over the remaining
// rows in natural order — the beta mode is hoisted out of the loops as a
// template parameter, the prefetch stream runs ahead across row boundaries
// instead of re-deriving each row's shape, and hub rows (degree >=
// SpmmPlan::kLongDegree) switch to a deep-prefetch inner loop that pulls whole
// B rows ahead of the gather.
//
// Natural order is deliberate: executing the plan bin by bin (one sweep per
// degree class) was measured consistently slower on both uniform and skewed
// graphs, because consecutive rows' neighborhoods overlap in B and the
// partitioned sweeps forfeit that cache reuse. The bins still matter — they
// drive the empty-row elision, the per-row hub dispatch, and the plan's
// introspection API — but row traversal stays monotone.
#include <algorithm>
#include <cstdint>

#include "sparse/spmm_plan.hpp"
#include "util/error.hpp"

namespace mggcn::sparse {

namespace {

/// Column-panel width: the C-row slice and the in-flight gathered B slices
/// stay L1-resident per pass.
constexpr std::int64_t kPanelD = 512;

/// Edge batch of the sweep loop (independent gather streams per element).
constexpr std::int64_t kEdgeBatch = 4;

/// How many edges ahead of the accumulation the prefetch stream runs.
constexpr std::int64_t kPrefetchDistance = 8;

/// Short rows prefetch whole upcoming rows (kRowPrefetch rows down the
/// sweep) instead of tracking an edge cursor: a one-edge row is consumed
/// in a few cycles, so only a row-granular lookahead runs deep enough to
/// hide the gather latency.
constexpr std::int64_t kRowPrefetch = 8;
constexpr std::int64_t kRowPrefetchEdgeCap = 8;


/// Hub rows gather hundreds of B rows that are each used exactly once, so
/// the two-line prefetch of the standard path leaves most of a wide B row
/// cold. The hub loop prefetches up to kHubPrefetchLines cache lines of
/// each upcoming B row (the whole row for d <= 128) at a deeper distance.
constexpr std::int64_t kHubPrefetchDistance = 16;
constexpr int kHubPrefetchLines = 8;
constexpr std::int64_t kHubEdgeBatch = 8;

/// How the output row is initialized, decided once per call and hoisted
/// out of every row loop as a template parameter.
enum class BetaMode { kZero, kOne, kScale };

struct Ctx {
  const std::int64_t* __restrict row_ptr;
  std::int64_t nnz;
  const std::uint32_t* __restrict col_idx;
  const float* __restrict values;
  const float* __restrict b;
  std::int64_t ldb;
  float* __restrict c;
  std::int64_t ldc;
  std::int64_t j0;
  std::int64_t dw;
  float alpha;
  float beta;
};

/// Prefetches up to `Lines` cache lines (16 floats each) of the B row
/// gathered by edge `e`, clamped to the panel width.
template <int Lines>
inline void prefetch_b_row(const Ctx& ctx, std::int64_t e) {
  const float* row =
      ctx.b + static_cast<std::int64_t>(ctx.col_idx[e]) * ctx.ldb + ctx.j0;
  __builtin_prefetch(row, 0, 1);
  for (int l = 1; l < Lines; ++l) {
    if (ctx.dw > static_cast<std::int64_t>(l) * 16) {
      __builtin_prefetch(row + static_cast<std::int64_t>(l) * 16, 0, 1);
    }
  }
}

/// Prefetches the B row gathered by the edge `ahead` positions past `e` in
/// the sweep's edge order: when the distance runs past the current row's
/// edges it continues into the following rows of the sweep list, so the
/// prefetch stream never stalls at a row boundary.
template <int Lines>
inline void prefetch_edge_ahead(const Ctx& ctx,
                                const std::uint32_t* __restrict rows,
                                std::int64_t count, std::int64_t i,
                                std::int64_t e, std::int64_t e_end,
                                std::int64_t ahead) {
  std::int64_t target = e + ahead;
  while (target >= e_end) {
    const std::int64_t overflow = target - e_end;
    if (++i >= count) return;
    const std::int64_t row = rows[i];
    target = ctx.row_ptr[row] + overflow;
    e_end = ctx.row_ptr[row + 1];
  }
  prefetch_b_row<Lines>(ctx, target);
}

/// Prefetches the B rows gathered by the row `kRowPrefetch` positions down
/// the sweep list, capped at kRowPrefetchEdgeCap edges so a hub row cannot
/// flood the prefetch queue.
inline void prefetch_row_ahead(const Ctx& ctx,
                               const std::uint32_t* __restrict rows,
                               std::int64_t count, std::int64_t i) {
  const std::int64_t target = i + kRowPrefetch;
  if (target >= count) return;
  const std::int64_t e = ctx.row_ptr[rows[target]];
  const std::int64_t e_end =
      std::min(ctx.row_ptr[rows[target] + 1], e + kRowPrefetchEdgeCap);
  for (std::int64_t q = e; q < e_end; ++q) prefetch_b_row<2>(ctx, q);
}

/// Empty rows never touch the edge arrays: one bulk zero (beta == 0) or
/// scale (general beta) pass, nothing at all for beta == 1.
template <BetaMode M>
void run_empty(const Ctx& ctx, const std::uint32_t* __restrict rows,
               std::int64_t count) {
  if constexpr (M == BetaMode::kOne) {
    (void)ctx;
    (void)rows;
    (void)count;
    return;
  } else {
    for (std::int64_t i = 0; i < count; ++i) {
      float* __restrict out = ctx.c + rows[i] * ctx.ldc + ctx.j0;
      for (std::int64_t j = 0; j < ctx.dw; ++j) {
        if constexpr (M == BetaMode::kZero) {
          out[j] = 0.0f;
        } else {
          out[j] *= ctx.beta;
        }
      }
    }
  }
}

/// One non-empty row of the sweep: first-nonzero beta fusion, then the
/// edge-batched accumulation (`Batch` independent gather streams, prefetch
/// `Distance` edges ahead pulling `Lines` cache lines per B row). The
/// per-element accumulation order is identical to the naive reference.
template <BetaMode M, std::int64_t DW, std::int64_t Batch,
          std::int64_t Distance, int Lines>
inline void run_row(const Ctx& ctx, const std::uint32_t* __restrict rows,
                    std::int64_t count, std::int64_t i) {
  const std::int64_t dw = DW != 0 ? DW : ctx.dw;
  std::int64_t e = ctx.row_ptr[rows[i]];
  const std::int64_t e_end = ctx.row_ptr[rows[i] + 1];
  float* __restrict out = ctx.c + rows[i] * ctx.ldc + ctx.j0;
  if constexpr (M == BetaMode::kZero) {
    const float w = ctx.alpha * ctx.values[e];
    const float* __restrict s = ctx.b + ctx.col_idx[e] * ctx.ldb + ctx.j0;
    for (std::int64_t j = 0; j < dw; ++j) out[j] = w * s[j];
    ++e;
  } else if constexpr (M == BetaMode::kScale) {
    for (std::int64_t j = 0; j < dw; ++j) out[j] *= ctx.beta;
  }
  for (; e + Batch <= e_end; e += Batch) {
    for (std::int64_t q = 0; q < Batch; ++q) {
      prefetch_edge_ahead<Lines>(ctx, rows, count, i, e + q, e_end, Distance);
    }
    float w[Batch];
    const float* __restrict s[Batch];
    for (std::int64_t q = 0; q < Batch; ++q) {
      w[q] = ctx.alpha * ctx.values[e + q];
      s[q] = ctx.b + ctx.col_idx[e + q] * ctx.ldb + ctx.j0;
    }
    for (std::int64_t j = 0; j < dw; ++j) {
      float v = out[j];
      for (std::int64_t q = 0; q < Batch; ++q) v += w[q] * s[q][j];
      out[j] = v;
    }
  }
  for (; e < e_end; ++e) {
    prefetch_edge_ahead<Lines>(ctx, rows, count, i, e, e_end, Distance);
    const float w = ctx.alpha * ctx.values[e];
    const float* __restrict s = ctx.b + ctx.col_idx[e] * ctx.ldb + ctx.j0;
    for (std::int64_t j = 0; j < dw; ++j) out[j] += w * s[j];
  }
}

/// The sweep: every non-empty row in natural order, hub rows dispatched to
/// the deep-prefetch variant. The branch costs one predictable compare per
/// row and buys each degree class its tuned inner loop without giving up
/// the locality between consecutive rows.
/// One short row (degree < kMediumDegree): plain edge loop, row-granular
/// look-ahead prefetch. Same per-element operation sequence as the others.
template <BetaMode M, std::int64_t DW>
inline void run_row_short(const Ctx& ctx, const std::uint32_t* __restrict rows,
                          std::int64_t count, std::int64_t i) {
  const std::int64_t dw = DW != 0 ? DW : ctx.dw;
  prefetch_row_ahead(ctx, rows, count, i);
  std::int64_t e = ctx.row_ptr[rows[i]];
  const std::int64_t e_end = ctx.row_ptr[rows[i] + 1];
  float* __restrict out = ctx.c + rows[i] * ctx.ldc + ctx.j0;
  if constexpr (M == BetaMode::kZero) {
    const float w = ctx.alpha * ctx.values[e];
    const float* __restrict s = ctx.b + ctx.col_idx[e] * ctx.ldb + ctx.j0;
    if (e + 1 == e_end) {
      for (std::int64_t j = 0; j < dw; ++j) out[j] = w * s[j];
      return;
    }
    for (std::int64_t j = 0; j < dw; ++j) out[j] = w * s[j];
    ++e;
  } else if constexpr (M == BetaMode::kScale) {
    for (std::int64_t j = 0; j < dw; ++j) out[j] *= ctx.beta;
  }
  for (; e < e_end; ++e) {
    const float w = ctx.alpha * ctx.values[e];
    const float* __restrict s = ctx.b + ctx.col_idx[e] * ctx.ldb + ctx.j0;
    for (std::int64_t j = 0; j < dw; ++j) out[j] += w * s[j];
  }
}

template <BetaMode M, std::int64_t DW>
void run_sweep(const Ctx& ctx, const std::uint32_t* __restrict rows,
               std::int64_t count) {
  for (std::int64_t i = 0; i < count; ++i) {
    const std::int64_t degree =
        ctx.row_ptr[rows[i] + 1] - ctx.row_ptr[rows[i]];
    if (degree < SpmmPlan::kMediumDegree) {
      run_row_short<M, DW>(ctx, rows, count, i);
    } else if (degree >= SpmmPlan::kLongDegree) {
      run_row<M, DW, kEdgeBatch, kHubPrefetchDistance, kHubPrefetchLines>(
          ctx, rows, count, i);
    } else {
      run_row<M, DW, kEdgeBatch, kPrefetchDistance, 2>(ctx, rows, count, i);
    }
  }
}

template <BetaMode M, std::int64_t DW>
void run_plan_dw(const SpmmPlan& plan, const Ctx& ctx) {
  {
    const auto rows = plan.bin_rows(SpmmPlan::kEmpty);
    run_empty<M>(ctx, rows.data(), static_cast<std::int64_t>(rows.size()));
  }
  {
    const auto rows = plan.sweep_rows();
    run_sweep<M, DW>(ctx, rows.data(), static_cast<std::int64_t>(rows.size()));
  }
}

/// Width dispatch: the common GCN feature dimensions get fully specialized
/// instantiations (the inner loops unroll with compile-time trip counts —
/// worth several percent on short rows, where loop overhead is the cost),
/// any other width takes the runtime-dw fallback.
template <BetaMode M>
void run_plan(const SpmmPlan& plan, const Ctx& ctx) {
  switch (ctx.dw) {
    case 32: return run_plan_dw<M, 32>(plan, ctx);
    case 64: return run_plan_dw<M, 64>(plan, ctx);
    case 128: return run_plan_dw<M, 128>(plan, ctx);
    case 256: return run_plan_dw<M, 256>(plan, ctx);
    case 512: return run_plan_dw<M, 512>(plan, ctx);
    default: return run_plan_dw<M, 0>(plan, ctx);
  }
}

/// The shared panel loop of both executors; `col_idx` selects which
/// gather map indexes B (the original CSR indices, or the plan's compact
/// remap over a packed B). Everything downstream of the map is identical,
/// so the two entry points are bit-identical by construction.
void run_panels(const SpmmPlan& plan, const Csr& a,
                const std::uint32_t* col_idx, dense::ConstMatrixView b,
                dense::MatrixView c, float alpha, float beta) {
  const std::int64_t d = b.cols;
  Ctx ctx;
  ctx.row_ptr = a.row_ptr().data();
  ctx.nnz = a.nnz();
  ctx.col_idx = col_idx;
  ctx.values = a.values().data();
  ctx.b = b.data;
  ctx.ldb = d;
  ctx.c = c.data;
  ctx.ldc = d;
  ctx.alpha = alpha;
  ctx.beta = beta;

  for (std::int64_t j0 = 0; j0 < d; j0 += kPanelD) {
    ctx.j0 = j0;
    ctx.dw = std::min(kPanelD, d - j0);
    if (beta == 0.0f) {
      run_plan<BetaMode::kZero>(plan, ctx);
    } else if (beta == 1.0f) {
      run_plan<BetaMode::kOne>(plan, ctx);
    } else {
      run_plan<BetaMode::kScale>(plan, ctx);
    }
  }
}

}  // namespace

void SpmmPlan::execute(const Csr& a, dense::ConstMatrixView b,
                       dense::MatrixView c, float alpha, float beta) const {
  MGGCN_CHECK_MSG(a.cols() == b.rows, "spmm inner dimensions must agree");
  MGGCN_CHECK_MSG(a.rows() == c.rows && b.cols == c.cols,
                  "spmm output shape mismatch");
  MGGCN_CHECK_MSG(matches(a), "execution plan does not match this matrix");
  run_panels(*this, a, a.col_idx().data(), b, c, alpha, beta);
}

void SpmmPlan::execute_compact(const Csr& a, dense::ConstMatrixView b,
                               dense::MatrixView c, float alpha,
                               float beta) const {
  MGGCN_CHECK_MSG(b.rows == ghost_count(),
                  "compact spmm needs one B row per ghost row");
  MGGCN_CHECK_MSG(a.rows() == c.rows && b.cols == c.cols,
                  "spmm output shape mismatch");
  MGGCN_CHECK_MSG(matches(a), "execution plan does not match this matrix");
  run_panels(*this, a, compact_col_idx_.data(), b, c, alpha, beta);
}

}  // namespace mggcn::sparse
