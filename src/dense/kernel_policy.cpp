#include "dense/kernel_policy.hpp"

#include <atomic>

#include "dense/kernels.hpp"
#include "util/error.hpp"

namespace mggcn::dense {

namespace {

std::atomic<KernelPolicy>& active_policy() {
  static std::atomic<KernelPolicy> policy{util::env_mode<KernelPolicy>()};
  return policy;
}

DenseKernelTable* tables() {
  // The planned policy only changes the *sparse* path (its SpMM runs
  // through an inspector-built plan); for dense kernels it shares the
  // tiled implementations.
  static DenseKernelTable registered[util::mode_count<KernelPolicy>()] = {
      {&naive::gemm, &naive::gemm_at_b, &naive::gemm_a_bt,
       &naive::gemm_a_bt_relu_masked},
      {&tiled::gemm, &tiled::gemm_at_b, &tiled::gemm_a_bt,
       &tiled::gemm_a_bt_relu_masked},
      {&tiled::gemm, &tiled::gemm_at_b, &tiled::gemm_a_bt,
       &tiled::gemm_a_bt_relu_masked},
  };
  return registered;
}

}  // namespace

KernelPolicy kernel_policy() {
  return active_policy().load(std::memory_order_relaxed);
}

void set_kernel_policy(KernelPolicy policy) {
  active_policy().store(policy, std::memory_order_relaxed);
}

const DenseKernelTable& dense_kernels(KernelPolicy policy) {
  return tables()[static_cast<int>(policy)];
}

void register_dense_kernels(KernelPolicy policy,
                            const DenseKernelTable& table) {
  MGGCN_CHECK_MSG(table.gemm != nullptr && table.gemm_at_b != nullptr &&
                      table.gemm_a_bt != nullptr &&
                      table.gemm_a_bt_relu_masked != nullptr,
                  "kernel table must be fully populated");
  tables()[static_cast<int>(policy)] = table;
}

}  // namespace mggcn::dense
