// Output checks of the repository benchmark. Each returns an empty string
// when the output is correct and a one-line reason otherwise. None compares
// against a stored copy of earlier output: each holds the program against
// an independent computation or a property the method must have.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "core/workload.hpp"
#include "dense/matrix.hpp"

namespace perfbench::checks {

/// fullbatch: the distributed trainer's per-epoch loss/accuracy against the
/// serial reference trainer (eqs. (2)-(11)) over the epochs both ran.
inline std::string match_reference(const std::vector<double>& loss,
                                   const std::vector<double>& acc,
                                   const std::vector<double>& ref_loss,
                                   const std::vector<double>& ref_acc,
                                   double loss_rel_tol, double acc_abs_tol) {
  if (ref_loss.empty() || loss.size() < ref_loss.size() ||
      acc.size() < ref_acc.size() || ref_acc.size() != ref_loss.size()) {
    return "reference comparison has no common epochs";
  }
  for (std::size_t e = 0; e < ref_loss.size(); ++e) {
    const double rel = std::abs(loss[e] - ref_loss[e]) /
                       std::max(1e-30, std::abs(ref_loss[e]));
    if (!(rel <= loss_rel_tol)) {
      return "epoch " + std::to_string(e) + " loss " + std::to_string(loss[e]) +
             " differs from the reference " + std::to_string(ref_loss[e]);
    }
    if (!(std::abs(acc[e] - ref_acc[e]) <= acc_abs_tol)) {
      return "epoch " + std::to_string(e) + " accuracy " +
             std::to_string(acc[e]) + " differs from the reference " +
             std::to_string(ref_acc[e]);
    }
  }
  return {};
}

/// fullbatch: training makes progress over the timed epochs.
inline std::string loss_falls(const std::vector<double>& losses) {
  if (losses.size() < 2) return "fewer than two epochs to compare";
  if (!(losses.back() < losses.front())) {
    return "loss did not fall: first " + std::to_string(losses.front()) +
           ", last " + std::to_string(losses.back());
  }
  return {};
}

/// sampled: two schedules of the same seeds must produce the same bits.
inline std::string bitwise_equal(const std::vector<double>& a,
                                 const std::vector<double>& b,
                                 const char* what) {
  if (a.empty() || a.size() != b.size()) {
    return std::string(what) + ": length mismatch";
  }
  if (std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) != 0) {
    return std::string(what) + " differ between the pipelined/cached and " +
           "serialized/uncached schedules";
  }
  return {};
}

/// sampled: the model learned something (accuracy well above 1/classes).
inline std::string above_chance(double accuracy, std::int64_t classes,
                                double factor) {
  const double chance = 1.0 / static_cast<double>(classes);
  if (!(accuracy >= factor * chance)) {
    return "train accuracy " + std::to_string(accuracy) +
           " is not far above chance " + std::to_string(chance);
  }
  return {};
}

/// serving: every request of the trace was answered, row for row.
inline std::string all_answered(std::size_t requests, std::int64_t served,
                                std::int64_t prediction_rows) {
  if (served != static_cast<std::int64_t>(requests) ||
      prediction_rows != static_cast<std::int64_t>(requests)) {
    return std::to_string(requests) + " requests but " +
           std::to_string(served) + " served and " +
           std::to_string(prediction_rows) + " prediction rows";
  }
  return {};
}

/// serving: prediction row i equals, bit for bit, the staged forward
/// pass's logits at the queried vertex.
inline std::string predictions_match(
    const mggcn::dense::HostMatrix& predictions,
    const mggcn::dense::HostMatrix& logits,
    std::span<const mggcn::serve::Request> requests) {
  if (predictions.rows() != static_cast<std::int64_t>(requests.size()) ||
      predictions.cols() != logits.cols()) {
    return "prediction shape does not match the request trace";
  }
  const auto row_bytes =
      static_cast<std::size_t>(logits.cols()) * sizeof(float);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const auto v = static_cast<std::int64_t>(requests[i].vertex);
    const auto r = static_cast<std::int64_t>(i);
    if (std::memcmp(predictions.data() + r * predictions.cols(),
                    logits.data() + v * logits.cols(), row_bytes) != 0) {
      return "request " + std::to_string(i) + " (vertex " + std::to_string(v) +
             ") prediction differs from the forward pass";
    }
  }
  return {};
}

/// multinode: the vertex ordering is a permutation of 0..n-1.
inline std::string is_bijection(std::span<const std::uint32_t> perm,
                                std::int64_t n) {
  if (static_cast<std::int64_t>(perm.size()) != n) return "perm has wrong size";
  std::vector<char> seen(perm.size(), 0);
  for (const std::uint32_t v : perm) {
    if (v >= perm.size() || seen[v]) return "perm is not a bijection";
    seen[v] = 1;
  }
  return {};
}

/// multinode: the partition's nnz imbalance respects the slack contract.
inline std::string within_slack(double imbalance, double slack) {
  if (!(imbalance >= 1.0 && imbalance <= slack)) {
    return "imbalance " + std::to_string(imbalance) + " outside [1, " +
           std::to_string(slack) + "]";
  }
  return {};
}

/// Sum over one epoch's distributed products of their dense width, from the
/// layer widths and the §4.4 order rule: a layer aggregates on the narrower
/// side (d_in when d_in < d_out, else d_out), forward and backward, and the
/// first layer's backward product is skipped.
inline std::int64_t product_width_sum(const std::vector<std::int64_t>& dims) {
  std::int64_t sum = 0;
  for (std::size_t l = 0; l + 1 < dims.size(); ++l) {
    const std::int64_t d = dims[l] < dims[l + 1] ? dims[l] : dims[l + 1];
    sum += l == 0 ? d : 2 * d;
  }
  return sum;
}

/// multinode: bytes on the wire plus bytes the exchange avoided equal the
/// all-dense volume (p-1) * n * 4 * sum(d) of the epoch's products.
inline std::string volume_conserved(std::uint64_t wire, std::uint64_t saved,
                                    int parts, std::int64_t n,
                                    std::int64_t width_sum) {
  const std::uint64_t dense = static_cast<std::uint64_t>(parts - 1) *
                              static_cast<std::uint64_t>(n) * sizeof(float) *
                              static_cast<std::uint64_t>(width_sum);
  if (wire + saved != dense) {
    return "wire " + std::to_string(wire) + " + saved " +
           std::to_string(saved) + " != all-dense " + std::to_string(dense);
  }
  return {};
}

}  // namespace perfbench::checks
