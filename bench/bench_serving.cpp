// Inference serving sweep: open-loop load x query skew x micro-batch policy
// x embedding-cache mode, reporting p50/p99 latency and sustained QPS.
//
// Each cell replays the same seeded request trace (serve::WorkloadGen)
// against a phantom-mode server built from a trainer on the dataset
// replica. Per-request dispatch is the latency baseline; the fixed and
// deadline batchers trade queueing delay for amortized gathers; the
// embedding cache converts remote store pulls into HBM reads.
//
// scripts/check_perf.py --serve gates the --json output: deadline batching
// must beat per-request QPS by the locked factor at equal-or-better p99 on
// >= 4 devices under saturating load, and the auto cache must never lose
// to off.
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "core/inference_server.hpp"
#include "core/trainer.hpp"
#include "core/workload.hpp"
#include "util/cli.hpp"
#include "util/format.hpp"

using namespace mggcn;

namespace {

serve::QuerySkew parse_skew(const std::string& name) {
  if (name == "uniform") return serve::QuerySkew::kUniform;
  if (name == "zipf") return serve::QuerySkew::kZipf;
  throw InvalidArgumentError("invalid skew for --skews: '" + name +
                             "' (expected uniform or zipf)");
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli(
      "Inference serving: load x skew x batch policy x cache mode sweep");
  bench::add_dataset_options(cli, "Arxiv");
  cli.option("gpus", "4,8", "device counts");
  cli.option("loads", "20000,400000", "offered load (queries/s)");
  cli.option("skews", "uniform,zipf", "query distributions");
  cli.option("requests", "2048", "trace length per cell");
  cli.option("hidden", "64", "hidden width");
  cli.option("batch", "16", "micro-batch cap");
  cli.option("deadline", "0.002", "per-request deadline (s)");
  cli.parse(argc, argv);
  if (cli.help_requested()) {
    std::cout << cli.help();
    return 0;
  }

  bench::print_header(
      "serving",
      "open-loop node-classification serving, batch cap " + cli.get("batch") +
          ", deadline " + cli.get("deadline") + "s, DGX-V100");

  core::TrainConfig config;
  config.hidden_dims = {cli.get_int("hidden")};
  config.seed = 7;

  const std::int64_t n_requests = cli.get_int("requests");
  const std::int64_t max_batch = cli.get_int("batch");
  const double deadline = cli.get_double("deadline");

  util::Table table({"Dataset", "GPUs", "load", "skew", "policy", "cache",
                     "QPS", "p50(us)", "p99(us)", "miss%", "hit rate",
                     "batch"});
  std::ostringstream json_rows;
  bool first_row = true;

  for (const auto& name : cli.get_list("datasets")) {
    const graph::Dataset ds = bench::load_cli_replica(cli, name);
    std::cout << "  [" << ds.spec.name << " replica: n=" << ds.n()
              << " nnz=" << ds.nnz() << " scale=1/" << ds.scale << "]\n";

    for (const auto gpus : cli.get_int_list("gpus")) {
      sim::Machine machine(sim::dgx_v100(), static_cast<int>(gpus),
                           sim::ExecutionMode::kPhantom);
      core::MgGcnTrainer trainer(machine, ds, config);
      trainer.run_forward();

      for (const auto& load : cli.get_list("loads")) {
        for (const auto& skew : cli.get_list("skews")) {
          serve::WorkloadOptions wl;
          wl.rate_qps = std::stod(load);
          wl.skew = parse_skew(skew);
          wl.deadline = deadline;
          wl.seed = 11;
          serve::WorkloadGen gen(ds.n(), wl);
          const auto requests = gen.generate(n_requests);

          for (const core::BatchPolicy policy :
               {core::BatchPolicy::kPerRequest, core::BatchPolicy::kFixed,
                core::BatchPolicy::kDeadline}) {
            for (const core::ServeCacheMode cache :
                 {core::ServeCacheMode::kOff, core::ServeCacheMode::kAuto}) {
              core::ServeOptions options;
              options.policy = policy;
              options.max_batch = max_batch;
              options.cache_mode = cache;
              core::InferenceServer server(machine, trainer, ds, options);
              const auto stats = server.serve(requests);

              table.add_row(
                  {ds.spec.name, std::to_string(gpus), load, skew,
                   util::mode_name(policy),
                   util::mode_name(cache),
                   util::format_double(stats.serve_qps, 0),
                   util::format_double(stats.serve_p50_latency * 1e6, 1),
                   util::format_double(stats.serve_p99_latency * 1e6, 1),
                   util::format_double(stats.serve_deadline_miss_rate * 100,
                                       1),
                   util::format_double(stats.serve_cache_hit_rate, 3),
                   util::format_double(stats.serve_mean_batch_size, 1)});

              if (!first_row) json_rows << ",\n";
              first_row = false;
              json_rows
                  << "    {\"dataset\": \"" << ds.spec.name
                  << "\", \"gpus\": " << gpus << ", \"load_qps\": " << load
                  << ", \"skew\": \"" << skew << "\", \"policy\": \""
                  << util::mode_name(policy) << "\", \"cache_mode\": \""
                  << util::mode_name(cache)
                  << "\", \"resolved_cache\": \""
                  << util::mode_name(server.cache_mode_used())
                  << "\", \"requests\": " << stats.serve_requests
                  << ", \"batches\": " << stats.serve_batches
                  << ", \"mean_batch\": " << stats.serve_mean_batch_size
                  << ", \"qps\": " << stats.serve_qps
                  << ", \"p50\": " << stats.serve_p50_latency
                  << ", \"p99\": " << stats.serve_p99_latency
                  << ", \"max_latency\": " << stats.serve_max_latency
                  << ", \"deadline_miss_rate\": "
                  << stats.serve_deadline_miss_rate
                  << ", \"hit_rate\": " << stats.serve_cache_hit_rate << "}";
            }
          }
        }
      }
    }
  }

  std::cout << '\n'
            << table.to_string()
            << "\n(per-request is the latency floor at low load; under "
               "saturating load the deadline batcher amortizes gathers into "
               "micro-batches, raising QPS without spending the p99 budget; "
               "the cache trims remote-pull time from every batch.)\n";
  return bench::write_json(cli, "serving", json_rows.str()) ? 0 : 1;
}
