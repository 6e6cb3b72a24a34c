#include "baselines/minibatch.hpp"

#include <algorithm>

#include "core/gcn_kernels.hpp"
#include "core/trainer.hpp"
#include "dense/kernels.hpp"
#include "sparse/spmm.hpp"
#include "sparse/spmm_plan.hpp"
#include "util/error.hpp"

namespace mggcn::baselines {

namespace {

/// Mean-aggregation operator: adjacency with each row scaled to sum 1.
sparse::Csr row_normalize(const sparse::Csr& adjacency) {
  sparse::Csr out = adjacency;
  const auto row_ptr = out.row_ptr();
  auto values = out.values_mutable();
  for (std::int64_t r = 0; r < out.rows(); ++r) {
    const auto begin = row_ptr[static_cast<std::size_t>(r)];
    const auto end = row_ptr[static_cast<std::size_t>(r) + 1];
    double sum = 0.0;
    for (auto e = begin; e < end; ++e) {
      sum += values[static_cast<std::size_t>(e)];
    }
    if (sum <= 0.0) continue;
    for (auto e = begin; e < end; ++e) {
      values[static_cast<std::size_t>(e)] = static_cast<float>(
          values[static_cast<std::size_t>(e)] / sum);
    }
  }
  return out;
}

}  // namespace

MiniBatchTrainer::MiniBatchTrainer(const graph::Dataset& dataset,
                                   Options options)
    : dataset_(dataset),
      options_(std::move(options)),
      mean_operator_(row_normalize(dataset.adjacency)),
      sampler_(dataset.adjacency, options_.fanout),
      rng_(options_.seed * 77 + 5) {
  MGGCN_CHECK_MSG(dataset_.has_features(),
                  "mini-batch trainer needs features/labels");
  MGGCN_CHECK_MSG(options_.fanout.size() == options_.hidden_dims.size() + 1,
                  "need one fanout entry per layer");

  dims_.push_back(dataset_.spec.feature_dim);
  for (const auto h : options_.hidden_dims) dims_.push_back(h);
  dims_.push_back(dataset_.spec.num_classes);
  weights_ = core::init_weights(dims_, options_.seed);
  for (const auto& w : weights_) {
    adam_m_.emplace_back(w.rows(), w.cols());
    adam_v_.emplace_back(w.rows(), w.cols());
  }

  for (std::int64_t v = 0; v < dataset_.n(); ++v) {
    if (dataset_.train_mask[static_cast<std::size_t>(v)]) {
      train_vertices_.push_back(static_cast<std::uint32_t>(v));
    }
  }
  MGGCN_CHECK_MSG(!train_vertices_.empty(), "no training vertices");
}

MiniBatchTrainer::EpochResult MiniBatchTrainer::train_epoch() {
  EpochResult result;
  const int layers = num_layers();

  std::vector<std::uint32_t> order = train_vertices_;
  rng_.shuffle(order);

  std::int64_t correct = 0, counted = 0;
  for (std::size_t begin = 0; begin < order.size();
       begin += static_cast<std::size_t>(options_.batch_size)) {
    const std::size_t end = std::min(
        order.size(), begin + static_cast<std::size_t>(options_.batch_size));
    const std::vector<std::uint32_t> seeds(order.begin() + begin,
                                           order.begin() + end);
    const graph::SampledSubgraph sub = sampler_.sample(seeds, rng_);
    result.sampled_edges += sub.total_edges();

    // Forward, deepest layer first: h = X[layers[L]], then per level
    //   z_l = block * h,  h = relu(z_l W_l)   (no ReLU on the logits).
    const auto& deepest = sub.layers.back();
    dense::HostMatrix h(static_cast<std::int64_t>(deepest.size()),
                        dims_.front());
    dense::gather_rows(dataset_.features.view(), deepest.data(), h.view());

    std::vector<dense::HostMatrix> z_cache;   // block * h per level
    std::vector<dense::HostMatrix> h_cache;   // inputs per level
    for (int l = 0; l < layers; ++l) {
      const sparse::Csr& block =
          sub.blocks[static_cast<std::size_t>(layers - 1 - l)];
      h_cache.push_back(std::move(h));
      dense::HostMatrix z(block.rows(), dims_[static_cast<std::size_t>(l)]);
      // Per-batch blocks are multiplied once: no plan-cache entry.
      sparse::SpmmPlan::inspect(block).execute(block, h_cache.back().view(),
                                               z.view(), 1.0f, 0.0f);
      dense::HostMatrix out(block.rows(),
                            dims_[static_cast<std::size_t>(l) + 1]);
      dense::gemm(z.view(), weights_[static_cast<std::size_t>(l)].view(),
                  out.view());
      if (l + 1 < layers) {
        dense::relu_forward(out.data(), out.data(), out.size());
      }
      z_cache.push_back(std::move(z));
      h = std::move(out);
    }

    // Loss + gradient on the seeds.
    const auto& seed_layer = sub.layers.front();
    std::vector<std::int32_t> labels(seed_layer.size());
    for (std::size_t i = 0; i < seed_layer.size(); ++i) {
      labels[i] = dataset_.labels[seed_layer[i]];
    }
    const core::LossResult loss = core::softmax_cross_entropy_inplace(
        h.view(), labels.data(), nullptr,
        static_cast<std::int64_t>(seed_layer.size()));
    result.loss += loss.loss_sum;
    correct += loss.correct;
    counted += loss.counted;

    // Backward through the levels.
    ++adam_step_;
    dense::HostMatrix grad = std::move(h);  // dL/d(out_{L-1})
    for (int l = layers - 1; l >= 0; --l) {
      const auto ll = static_cast<std::size_t>(l);
      const sparse::Csr& block =
          sub.blocks[static_cast<std::size_t>(layers - 1 - l)];

      // grad is already ReLU-masked here: the propagation step below masks
      // with h_cache[l+1] (this level's post-activation) before handing it
      // down.
      dense::HostMatrix w_grad(dims_[ll], dims_[ll + 1]);
      dense::gemm_at_b(z_cache[ll].view(), grad.view(), w_grad.view());

      if (l > 0) {
        // dL/dz = grad W^T; dL/dh_in = block^T (dL/dz); then mask by the
        // previous level's post-activation (h_cache[l] = relu output).
        dense::HostMatrix dz(block.rows(), dims_[ll]);
        dense::gemm_a_bt(grad.view(), weights_[ll].view(), dz.view());
        const sparse::Csr block_t = block.transpose();
        dense::HostMatrix dh(block_t.rows(), dims_[ll]);
        sparse::SpmmPlan::inspect(block_t).execute(block_t, dz.view(),
                                                   dh.view(), 1.0f, 0.0f);
        dense::relu_backward(dh.data(), h_cache[ll].data(), dh.data(),
                             dh.size());
        grad = std::move(dh);
      }

      core::adam_update(weights_[ll].data(), w_grad.data(),
                        adam_m_[ll].data(), adam_v_[ll].data(),
                        w_grad.size(), adam_step_, options_.learning_rate,
                        options_.beta1, options_.beta2, options_.epsilon);
    }
  }

  result.train_accuracy =
      counted > 0 ? static_cast<double>(correct) / counted : 0.0;
  return result;
}

dense::HostMatrix MiniBatchTrainer::forward_full() const {
  const std::int64_t n = dataset_.n();
  dense::HostMatrix h = dataset_.features;
  for (int l = 0; l < num_layers(); ++l) {
    const auto ll = static_cast<std::size_t>(l);
    dense::HostMatrix z(n, dims_[ll]);
    sparse::spmm(mean_operator_, h.view(), z.view());
    dense::HostMatrix out(n, dims_[ll + 1]);
    dense::gemm(z.view(), weights_[ll].view(), out.view());
    if (l + 1 < num_layers()) {
      dense::relu_forward(out.data(), out.data(), out.size());
    }
    h = std::move(out);
  }
  return h;
}

}  // namespace mggcn::baselines
