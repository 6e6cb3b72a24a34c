// The repository benchmark's program (see README.md in this directory).
//
//   perfbench gen --workload W --seed N --dir D
//       Generates the workload's inputs from the seed into D: the graph
//       (sparse::write_csr), features/labels/splits, and for `serving` a
//       trained checkpoint and an open-loop request trace.
//   perfbench run --workload W --seed N --seconds S --trace 0|1 --dir D
//                 [--results R] [--perturb CHECK]
//       Reads the inputs, builds the engine, and runs whole units of the
//       workload's timed work for at least S seconds. Prints one JSON line:
//       end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
//       --perturb corrupts one output before its check (used by
//       selftest.py to show each check can fail).
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "checks.hpp"
#include "comm/communicator.hpp"
#include "comm/topology.hpp"
#include "core/checkpoint.hpp"
#include "core/inference_server.hpp"
#include "core/partitioner.hpp"
#include "core/planner.hpp"
#include "core/reference.hpp"
#include "core/sampled_pipeline.hpp"
#include "core/trainer.hpp"
#include "core/workload.hpp"
#include "dense/kernels.hpp"
#include "graph/datasets.hpp"
#include "graph/sampling.hpp"
#include "mem/workspace_pool.hpp"
#include "sim/machine.hpp"
#include "sim/profile.hpp"
#include "sparse/io.hpp"
#include "sparse/spmm.hpp"
#include "sparse/spmm_plan.hpp"
#include "spans.hpp"
#include "util/rng.hpp"

using namespace mggcn;
using perfbench::Clock;
using perfbench::seconds_between;
using perfbench::Spans;
namespace checks = perfbench::checks;

namespace {

// Set-up time is measured from here: static initialization runs before
// main, so this is as close to process start as the program can observe.
const Clock::time_point g_process_start = Clock::now();

constexpr int kDevices = 4;
/// Simulated-clock metrics are read from the first kSimUnits timed units,
/// so they do not depend on how many units the host managed in the window.
constexpr int kSimUnits = 3;
constexpr std::int64_t kRequestsPerPass = 10'000;

// ---------------------------------------------------------------------------
// Arguments and workload shapes.

struct Args {
  std::string mode, workload, dir, results, perturb;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

Args parse_args(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument("usage: perfbench gen|run ...");
  Args a;
  a.mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") a.workload = value;
    else if (key == "--seed") a.seed = std::stoull(value);
    else if (key == "--seconds") a.seconds = std::stod(value);
    else if (key == "--trace") a.trace = value == "1";
    else if (key == "--dir") a.dir = value;
    else if (key == "--results") a.results = value;
    else if (key == "--perturb") a.perturb = value;
    else throw std::invalid_argument("unknown option " + key);
  }
  if (a.dir.empty()) throw std::invalid_argument("--dir is required");
  return a;
}

struct Shape {
  graph::DatasetSpec spec;
  double scale = 1.0;
  bool features = true;
};

Shape shape_of(const std::string& workload) {
  if (workload == "fullbatch") return {graph::arxiv(), 2.0, true};
  if (workload == "sampled") return {graph::products(), 48.0, true};
  if (workload == "serving") return {graph::arxiv(), 4.0, true};
  if (workload == "multinode") return {graph::products(), 16.0, false};
  throw std::invalid_argument("unknown workload '" + workload + "'");
}

/// Independent per-purpose seeds derived from the benchmark seed.
std::uint64_t derive(std::uint64_t seed, std::uint64_t purpose) {
  std::uint64_t s = seed * 0x9e3779b97f4a7c15ULL + purpose;
  return util::splitmix64(s);
}

core::TrainConfig fullbatch_config(std::uint64_t seed) {
  core::TrainConfig c;
  c.hidden_dims = {256};
  c.part_mode = core::PartMode::kRandom;
  c.plan_mode = core::PlanMode::kAuto;
  c.comm_mode = comm::CommMode::kAuto;
  c.pool_mode = mem::PoolMode::kOff;
  c.seed = derive(seed, 2);
  return c;
}

core::SampledPipeline::Options sampled_options(std::uint64_t seed) {
  core::SampledPipeline::Options o;
  o.hidden_dims = {64};
  o.fanout = {10, 10};
  o.batch_size = 256;
  o.pipeline = true;
  o.cache_mode = core::CacheMode::kAuto;
  o.cache_capacity_fraction = 0.05;
  o.pool_mode = mem::PoolMode::kOff;
  o.seed = derive(seed, 2);
  return o;
}

core::TrainConfig serving_config(std::uint64_t seed) {
  core::TrainConfig c;
  c.hidden_dims = {64};
  c.part_mode = core::PartMode::kRandom;
  c.plan_mode = core::PlanMode::kAuto;
  c.comm_mode = comm::CommMode::kAuto;
  c.pool_mode = mem::PoolMode::kAuto;
  c.seed = derive(seed, 2);
  return c;
}

core::TrainConfig multinode_config(std::uint64_t seed) {
  core::TrainConfig c;
  c.hidden_dims = {256, 256};
  c.part_mode = core::PartMode::kAuto;
  c.plan_mode = core::PlanMode::kAuto;
  c.comm_mode = comm::CommMode::kAuto;
  c.pool_mode = mem::PoolMode::kOff;
  c.seed = derive(seed, 2);
  return c;
}

serve::WorkloadOptions serving_load(std::uint64_t seed) {
  serve::WorkloadOptions w;
  w.rate_qps = 200'000.0;
  w.arrival = serve::ArrivalProcess::kBursty;
  w.burst_factor = 3.0;  // on-phase 3x the mean, off-phase 1/3 of it
  w.skew = serve::QuerySkew::kZipf;
  w.update_rate = 500.0;
  w.seed = derive(seed, 3);
  return w;
}

/// dgx_a100_cluster arranged as 2 nodes x 2 devices.
sim::MachineProfile two_by_two_cluster() {
  sim::MachineProfile p = sim::dgx_a100_cluster(2);
  p.interconnect.devices_per_node = 2;
  p.max_devices = 4;
  return p;
}

// ---------------------------------------------------------------------------
// Input files. The graph goes through the library's own loader; features
// and the request trace use the flat little-endian layouts below.

std::string path_in(const Args& a, const char* file) {
  return a.dir + "/" + file;
}

template <typename T>
void put(std::ofstream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}
template <typename T>
void put_array(std::ofstream& os, const T* p, std::size_t n) {
  os.write(reinterpret_cast<const char*>(p),
           static_cast<std::streamsize>(n * sizeof(T)));
}
template <typename T>
T get(std::ifstream& is) {
  T v{};
  is.read(reinterpret_cast<char*>(&v), sizeof(T));
  if (!is) throw std::runtime_error("truncated input file");
  return v;
}
template <typename T>
void get_array(std::ifstream& is, T* p, std::size_t n) {
  is.read(reinterpret_cast<char*>(p),
          static_cast<std::streamsize>(n * sizeof(T)));
  if (!is) throw std::runtime_error("truncated input file");
}

// features.bin: n i64 | d i64 | features f32[n*d] | labels i32[n] |
//               train u8[n] | val u8[n] | test u8[n]
void write_features(const graph::Dataset& ds, const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  put<std::int64_t>(os, ds.features.rows());
  put<std::int64_t>(os, ds.features.cols());
  put_array(os, ds.features.data(),
            static_cast<std::size_t>(ds.features.size()));
  put_array(os, ds.labels.data(), ds.labels.size());
  put_array(os, ds.train_mask.data(), ds.train_mask.size());
  put_array(os, ds.val_mask.data(), ds.val_mask.size());
  put_array(os, ds.test_mask.data(), ds.test_mask.size());
  if (!os) throw std::runtime_error("cannot write " + path);
}

void read_features(graph::Dataset* ds, const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("cannot open " + path);
  const auto n = get<std::int64_t>(is);
  const auto d = get<std::int64_t>(is);
  if (n != ds->n() || d != ds->spec.feature_dim) {
    throw std::runtime_error("features do not match the graph");
  }
  const auto un = static_cast<std::size_t>(n);
  ds->features = dense::HostMatrix(n, d);
  get_array(is, ds->features.data(), static_cast<std::size_t>(n * d));
  ds->labels.resize(un);
  get_array(is, ds->labels.data(), un);
  for (auto* mask : {&ds->train_mask, &ds->val_mask, &ds->test_mask}) {
    mask->resize(un);
    get_array(is, mask->data(), un);
  }
}

struct RequestTrace {
  std::vector<serve::Request> requests;
  std::vector<serve::GraphUpdate> updates;
};

// trace.bin: count i64 | (arrival f64, vertex u32, deadline f64)[count] |
//            updates i64 | (time f64, k i64, vertices u32[k])[updates]
void write_trace(const RequestTrace& t, const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  put<std::int64_t>(os, static_cast<std::int64_t>(t.requests.size()));
  for (const auto& r : t.requests) {
    put(os, r.arrival);
    put(os, r.vertex);
    put(os, r.deadline);
  }
  put<std::int64_t>(os, static_cast<std::int64_t>(t.updates.size()));
  for (const auto& u : t.updates) {
    put(os, u.time);
    put<std::int64_t>(os, static_cast<std::int64_t>(u.vertices.size()));
    put_array(os, u.vertices.data(), u.vertices.size());
  }
  if (!os) throw std::runtime_error("cannot write " + path);
}

/// A count read from an input file, checked before anything is sized by it.
std::size_t get_count(std::ifstream& is, std::int64_t limit) {
  const auto count = get<std::int64_t>(is);
  if (count < 0 || count > limit) {
    throw std::runtime_error("corrupt count in input file");
  }
  return static_cast<std::size_t>(count);
}

RequestTrace read_trace(const std::string& path, std::int64_t num_vertices) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("cannot open " + path);
  RequestTrace t;
  t.requests.resize(get_count(is, kRequestsPerPass));
  for (auto& r : t.requests) {
    r.arrival = get<double>(is);
    r.vertex = get<std::uint32_t>(is);
    r.deadline = get<double>(is);
    if (r.vertex >= num_vertices) {
      throw std::runtime_error("request vertex out of range");
    }
  }
  t.updates.resize(get_count(is, kRequestsPerPass));
  for (auto& u : t.updates) {
    u.time = get<double>(is);
    u.vertices.resize(get_count(is, num_vertices));
    get_array(is, u.vertices.data(), u.vertices.size());
    for (const std::uint32_t v : u.vertices) {
      if (v >= num_vertices) {
        throw std::runtime_error("update vertex out of range");
      }
    }
  }
  if (t.requests.empty()) throw std::runtime_error("empty request trace");
  return t;
}

int generate(const Args& a) {
  const Shape shape = shape_of(a.workload);
  graph::DatasetOptions options;
  options.scale = shape.scale;
  options.seed = derive(a.seed, 1);
  options.with_features = shape.features;
  const graph::Dataset ds = graph::make_dataset(shape.spec, options);
  sparse::write_csr(ds.adjacency, path_in(a, "graph.csr"));
  if (shape.features) write_features(ds, path_in(a, "features.bin"));

  if (a.workload == "serving") {
    // The served model: a few epochs of full-batch training, saved the way
    // a training job would hand it to the serving tier.
    sim::Machine machine(sim::dgx_v100(), kDevices, sim::ExecutionMode::kReal,
                         false);
    core::TrainConfig config = serving_config(a.seed);
    config.pool_mode = mem::PoolMode::kOff;
    core::MgGcnTrainer trainer(machine, ds, config);
    trainer.train(5);
    core::save_checkpoint(trainer.checkpoint(), path_in(a, "model.ckpt"));

    serve::WorkloadGen gen(ds.n(), serving_load(a.seed));
    RequestTrace t;
    t.requests = gen.generate(kRequestsPerPass);
    t.updates = gen.generate_updates(t.requests.back().arrival);
    write_trace(t, path_in(a, "trace.bin"));
  }
  std::cerr << "generated " << a.workload << " inputs: n=" << ds.n()
            << " nnz=" << ds.nnz() << " scale=1/" << shape.scale << '\n';
  return 0;
}

// ---------------------------------------------------------------------------
// Measurement plumbing.

struct Metric {
  double value = 0.0;
  std::string unit;
};
using MetricMap = std::vector<std::pair<std::string, Metric>>;

void set_metric(MetricMap& m, const std::string& name, double value,
                const char* unit) {
  for (auto& [n, metric] : m) {
    if (n == name) {
      metric = {value, unit};
      return;
    }
  }
  m.push_back({name, {value, unit}});
}

constexpr sim::TaskKind kBusyKinds[] = {
    sim::TaskKind::kSpMM,      sim::TaskKind::kGeMM,
    sim::TaskKind::kActivation, sim::TaskKind::kLoss,
    sim::TaskKind::kOptimizer, sim::TaskKind::kComm,
    sim::TaskKind::kMemory,    sim::TaskKind::kInspect,
    sim::TaskKind::kSample};

const char* busy_name(sim::TaskKind kind) {
  switch (kind) {
    case sim::TaskKind::kSpMM: return "SpMM";
    case sim::TaskKind::kGeMM: return "GeMM";
    case sim::TaskKind::kActivation: return "Activation";
    case sim::TaskKind::kLoss: return "Loss";
    case sim::TaskKind::kOptimizer: return "Optimizer";
    case sim::TaskKind::kComm: return "Comm";
    case sim::TaskKind::kMemory: return "Memory";
    case sim::TaskKind::kInspect: return "Inspect";
    case sim::TaskKind::kSample: return "Sample";
    default: return "Other";
  }
}

/// Every per-layer metric the traced run reports, with its unit. Layers a
/// workload does not run report 0.
const std::vector<std::pair<const char*, const char*>>& per_layer_names() {
  static const std::vector<std::pair<const char*, const char*>> names = {
      {"sparse.read_csr_s", "s"},          {"sparse.spmm_s", "s"},
      {"sparse.spmm_gflops", "GFLOP/s"},   {"sparse.plan_build_s", "s"},
      {"dense.gemm_s", "s"},               {"dense.gemm_gflops", "GFLOP/s"},
      {"graph.sample_s", "s"},             {"graph.sampled_vertices", "count"},
      {"graph.sampled_edges", "count"},    {"comm.wire_bytes", "B"},
      {"comm.inter_node_bytes", "B"},      {"comm.calls", "count"},
      {"comm.busy_sim_s", "s"},            {"comm.exposed_sim_s", "s"},
      {"sim.tasks", "count"},              {"sim.host_us_per_task", "us"},
      {"sim.busy_sim_s.SpMM", "s"},        {"sim.busy_sim_s.GeMM", "s"},
      {"sim.busy_sim_s.Activation", "s"},  {"sim.busy_sim_s.Loss", "s"},
      {"sim.busy_sim_s.Optimizer", "s"},   {"sim.busy_sim_s.Comm", "s"},
      {"sim.busy_sim_s.Memory", "s"},      {"sim.busy_sim_s.Inspect", "s"},
      {"sim.busy_sim_s.Sample", "s"},      {"partitioner.s", "s"},
      {"partitioner.cut_edges", "count"},
      {"partitioner.inter_node_ghost_rows", "count"},
      {"partitioner.imbalance", "ratio"},  {"planner.products_1d", "count"},
      {"planner.products_15d", "count"},
      {"planner.products_replicated", "count"},
      {"planner.price_error", "ratio"},    {"trainer.preprocess_s", "s"},
      {"trainer.forward_s", "s"},          {"pipeline.sample_sim_s", "s"},
      {"pipeline.extract_sim_s", "s"},     {"pipeline.train_sim_s", "s"},
      {"pipeline.occupancy", "ratio"},     {"pipeline.rounds", "count"},
      {"cache.hits", "count"},             {"cache.misses", "count"},
      {"cache.lookups", "count"},          {"cache.hit_rate", "ratio"},
      {"cache.evictions", "count"},        {"cache.invalidations", "count"},
      {"serve.batches", "count"},          {"serve.mean_batch", "count"},
      {"serve.gather_sim_s", "s"},         {"serve.infer_sim_s", "s"},
      {"serve.deadline_misses", "count"},  {"serve.host_us_per_request", "us"},
      {"pool.peak_bytes", "B"},            {"pool.reuse_hits", "count"},
      {"pool.fragmentation", "ratio"},     {"trace.overhead_s", "s"},
  };
  return names;
}

/// What one timed unit left in the machine trace, read and then cleared so
/// the trace does not grow across the run.
struct Harvest {
  std::uint64_t tasks = 0;
  std::map<sim::TaskKind, double> busy;
  std::uint64_t comm_calls = 0;
  double comm_exposed = 0.0;
  sim::CommVolume volume;
  sim::PoolCounters pool;
};

/// Total length of the union of [begin, end) intervals.
std::vector<std::pair<double, double>> merged(
    std::vector<std::pair<double, double>> v) {
  std::sort(v.begin(), v.end());
  std::vector<std::pair<double, double>> out;
  for (const auto& iv : v) {
    if (!out.empty() && iv.first <= out.back().second) {
      out.back().second = std::max(out.back().second, iv.second);
    } else {
      out.push_back(iv);
    }
  }
  return out;
}

/// Comm-stream time not covered by compute-stream time on the same device.
double exposed_comm(const std::vector<sim::TraceRecord>& records, int devices) {
  double exposed = 0.0;
  for (int d = 0; d < devices; ++d) {
    std::vector<std::pair<double, double>> comm, compute;
    for (const auto& r : records) {
      if (r.device != d || r.t_end <= r.t_begin) continue;
      (r.stream == sim::Device::kCommStream ? comm : compute)
          .emplace_back(r.t_begin, r.t_end);
    }
    const auto c = merged(std::move(comm));
    const auto k = merged(std::move(compute));
    std::size_t j = 0;
    for (const auto& [b, e] : c) {
      double covered = 0.0;
      while (j < k.size() && k[j].second <= b) ++j;
      for (std::size_t i = j; i < k.size() && k[i].first < e; ++i) {
        covered += std::min(e, k[i].second) - std::max(b, k[i].first);
      }
      exposed += (e - b) - covered;
    }
  }
  return exposed;
}

Harvest harvest(sim::Machine& machine) {
  Harvest h;
  const auto records = machine.trace().records();
  h.tasks = records.size();
  for (const auto& r : records) {
    h.busy[r.kind] += r.duration();
    if (r.kind == sim::TaskKind::kComm) ++h.comm_calls;
  }
  h.comm_exposed = exposed_comm(records, machine.num_devices());
  h.volume = machine.trace().comm_volume();
  h.pool = machine.trace().pool_counters();
  machine.trace().clear();
  return h;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Runs whole units until at least `seconds` have passed and at least
/// kSimUnits units ran. In the traced run every other unit records spans,
/// so the tracing overhead is the difference of the two medians.
struct TimedRun {
  std::vector<double> host;        // host seconds per unit
  std::vector<bool> traced;
  std::vector<Harvest> harvests;
  double elapsed = 0.0;

  [[nodiscard]] double median_host(bool with_spans) const {
    std::vector<double> v;
    for (std::size_t i = 0; i < host.size(); ++i) {
      if (traced[i] == with_spans) v.push_back(host[i]);
    }
    return median(v);
  }
  [[nodiscard]] double median_all() const { return median(host); }
};

struct Context {
  Args args;
  Spans spans{g_process_start};
  double setup_s = 0.0;
  std::vector<std::string> failures;
  MetricMap e2e;
  MetricMap layer;

  void check(const std::string& name, const std::string& problem) {
    if (!problem.empty()) failures.push_back(name + ": " + problem);
  }
  [[nodiscard]] bool perturb(const char* check) const {
    return args.perturb == check;
  }
};

template <typename Unit>
TimedRun timed_loop(Context& c, sim::Machine& machine, const char* span,
                    Unit&& unit) {
  TimedRun t;
  const auto begin = Clock::now();
  for (int i = 0;; ++i) {
    t.elapsed = seconds_between(begin, Clock::now());
    if (i >= kSimUnits && t.elapsed >= c.args.seconds) break;
    const bool traced = c.args.trace && (i % 2 == 1);
    c.spans.enabled = traced;
    const auto t0 = Clock::now();
    {
      Spans::Scope scope(c.spans, span);
      unit(i);
    }
    t.host.push_back(seconds_between(t0, Clock::now()));
    c.spans.enabled = c.args.trace;
    t.traced.push_back(traced);
    t.harvests.push_back(harvest(machine));
  }
  std::vector<double> sorted = t.host;
  std::sort(sorted.begin(), sorted.end());
  std::cerr << "timed units: " << sorted.size()
            << ", host seconds per unit q1/median/q3: "
            << sorted[sorted.size() / 4] << ' ' << median(sorted) << ' '
            << sorted[sorted.size() * 3 / 4] << '\n';
  return t;
}

/// Mean over the first kSimUnits harvests of a per-unit quantity.
template <typename F>
double sim_mean(const TimedRun& t, F&& f) {
  double sum = 0.0;
  for (int i = 0; i < kSimUnits; ++i) {
    sum += f(t.harvests[static_cast<std::size_t>(i)]);
  }
  return sum / kSimUnits;
}

/// Per-layer metrics every workload has: simulator and comm counters from
/// the machine trace, pool counters, and the tracing overhead.
void trace_layer_metrics(Context& c, const TimedRun& t) {
  auto& m = c.layer;
  const double tasks = sim_mean(t, [](const Harvest& h) {
    return static_cast<double>(h.tasks);
  });
  set_metric(m, "sim.tasks", tasks, "count");
  set_metric(m, "sim.host_us_per_task",
             tasks > 0 ? t.median_host(false) / tasks * 1e6 : 0.0, "us");
  for (const sim::TaskKind kind : kBusyKinds) {
    set_metric(m, std::string("sim.busy_sim_s.") + busy_name(kind),
               sim_mean(t,
                        [kind](const Harvest& h) {
                          const auto it = h.busy.find(kind);
                          return it == h.busy.end() ? 0.0 : it->second;
                        }),
               "s");
  }
  set_metric(m, "comm.wire_bytes", sim_mean(t, [](const Harvest& h) {
               return static_cast<double>(h.volume.wire_bytes);
             }), "B");
  set_metric(m, "comm.inter_node_bytes", sim_mean(t, [](const Harvest& h) {
               return static_cast<double>(h.volume.wire_bytes_inter);
             }), "B");
  set_metric(m, "comm.calls", sim_mean(t, [](const Harvest& h) {
               return static_cast<double>(h.comm_calls);
             }), "count");
  set_metric(m, "comm.busy_sim_s", sim_mean(t, [](const Harvest& h) {
               const auto it = h.busy.find(sim::TaskKind::kComm);
               return it == h.busy.end() ? 0.0 : it->second;
             }), "s");
  set_metric(m, "comm.exposed_sim_s",
             sim_mean(t, [](const Harvest& h) { return h.comm_exposed; }), "s");
  std::uint64_t peak = 0;
  double frag = 0.0;
  for (const Harvest& h : t.harvests) {
    peak = std::max(peak, h.pool.reserved_peak_bytes);
    frag = std::max(frag, h.pool.fragmentation_peak);
  }
  set_metric(m, "pool.peak_bytes", static_cast<double>(peak), "B");
  set_metric(m, "pool.reuse_hits", sim_mean(t, [](const Harvest& h) {
               return static_cast<double>(h.pool.reuse_hits);
             }), "count");
  set_metric(m, "pool.fragmentation", frag, "ratio");
  set_metric(m, "trace.overhead_s", t.median_host(true) - t.median_host(false),
             "s");
}

graph::Dataset load_dataset(Context& c, const Shape& shape) {
  graph::Dataset ds;
  ds.spec = shape.spec;
  {
    const auto t0 = Clock::now();
    Spans::Scope scope(c.spans, "sparse.read_csr");
    ds.adjacency = sparse::read_csr(path_in(c.args, "graph.csr"));
    set_metric(c.layer, "sparse.read_csr_s", seconds_between(t0, Clock::now()),
               "s");
  }
  ds.scale = static_cast<double>(shape.spec.n) /
             static_cast<double>(ds.adjacency.rows());
  if (shape.features) {
    Spans::Scope scope(c.spans, "perfbench.read_features");
    read_features(&ds, path_in(c.args, "features.bin"));
  }
  return ds;
}

sim::MachineProfile replica_profile(sim::MachineProfile profile,
                                    const graph::Dataset& ds,
                                    const std::vector<std::int64_t>& dims) {
  return sim::scale_profile(std::move(profile), ds.scale,
                            core::replicated_state_bytes(dims));
}

/// Simulated-clock metrics of a training workload. Its operation is the
/// epoch, so the latency metrics are those of an epoch: the median and
/// (nearest-rank) 99th percentile of the sampled epochs' simulated times.
/// `epochs` starts with the warm-up epoch; the first kSimUnits timed epochs
/// follow it.
void epoch_metrics(Context& c, const std::vector<core::EpochStats>& epochs) {
  std::vector<double> sim;
  for (int i = 1; i <= kSimUnits; ++i) {
    sim.push_back(epochs[static_cast<std::size_t>(i)].sim_seconds);
  }
  set_metric(c.e2e, "sim_epoch_s", median(sim), "s");
  set_metric(c.e2e, "sim_p50_latency_s", median(sim), "s");
  set_metric(c.e2e, "sim_p99_latency_s",
             *std::max_element(sim.begin(), sim.end()), "s");
}

/// Mean of `field` over the first kSimUnits timed units, which start at
/// `units[first]`.
template <typename T, typename F>
double unit_mean(const std::vector<T>& units, std::size_t first, F&& field) {
  double sum = 0.0;
  for (std::size_t i = first; i < first + kSimUnits; ++i) {
    sum += static_cast<double>(field(units[i]));
  }
  return sum / kSimUnits;
}

void cache_metrics(Context& c, double hits, double misses) {
  set_metric(c.layer, "cache.hits", hits, "count");
  set_metric(c.layer, "cache.misses", misses, "count");
  set_metric(c.layer, "cache.lookups", hits + misses, "count");
  set_metric(c.layer, "cache.hit_rate",
             hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
}

void finish_setup(Context& c) {
  c.setup_s = seconds_between(g_process_start, Clock::now());
  set_metric(c.e2e, "setup_s", c.setup_s, "s");
}

// ---------------------------------------------------------------------------
// Host-kernel probes on the workload's own operands (traced run only).

/// Â^T row tiles of the trainer's ordering, i.e. the forward operator.
core::TileGrid forward_tiles(const graph::Dataset& ds,
                             std::span<const std::uint32_t> perm,
                             const core::PartitionVector& partition) {
  const std::vector<std::uint32_t> p(perm.begin(), perm.end());
  const sparse::Csr at =
      ds.adjacency.permute_symmetric(p).normalize_gcn().transpose();
  return core::make_tile_grid(at, partition);
}

template <typename F>
double best_of_three(F&& f) {
  double best = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    f();
    best = std::min(best, seconds_between(t0, Clock::now()));
  }
  return best;
}

void kernel_probes(Context& c, const graph::Dataset& ds,
                   const core::MgGcnTrainer& trainer) {
  const core::TileGrid grid =
      forward_tiles(ds, trainer.perm(), trainer.partition());
  const core::PartitionVector& part = grid.partition;
  const int p = grid.parts();
  const auto dims = trainer.dims();
  util::Rng rng(derive(c.args.seed, 9));

  double spmm_s = 0.0, spmm_flops = 0.0, gemm_s = 0.0, gemm_flops = 0.0;
  for (int l = 0; l + 1 < static_cast<int>(dims.size()); ++l) {
    const std::int64_t d_in = dims[static_cast<std::size_t>(l)];
    const std::int64_t d_out = dims[static_cast<std::size_t>(l) + 1];
    const std::int64_t d = trainer.layer_spmm_first(l) ? d_in : d_out;
    dense::HostMatrix b(part.total(), d);
    b.init_glorot(rng);
    std::vector<dense::HostMatrix> out;
    for (int r = 0; r < p; ++r) out.emplace_back(part.size(r), d);
    {
      Spans::Scope scope(c.spans, "sparse.spmm");
      spmm_s += best_of_three([&] {
        for (int r = 0; r < p; ++r) {
          for (int s = 0; s < p; ++s) {
            const dense::ConstMatrixView block{b.data() + part.begin(s) * d,
                                               part.size(s), d};
            sparse::spmm(grid.tile(r, s), block,
                         out[static_cast<std::size_t>(r)].view(), 1.0f,
                         s == 0 ? 0.0f : 1.0f);
          }
        }
      });
    }
    std::int64_t nnz = 0;
    for (int r = 0; r < p; ++r) nnz += grid.row_nnz(r);
    spmm_flops += 2.0 * static_cast<double>(nnz) * static_cast<double>(d);

    dense::HostMatrix w(d_in, d_out);
    w.init_glorot(rng);
    std::vector<dense::HostMatrix> a, y;
    for (int r = 0; r < p; ++r) {
      a.emplace_back(part.size(r), d_in);
      a.back().init_glorot(rng);
      y.emplace_back(part.size(r), d_out);
    }
    {
      Spans::Scope scope(c.spans, "dense.gemm");
      gemm_s += best_of_three([&] {
        for (int r = 0; r < p; ++r) {
          dense::gemm(a[static_cast<std::size_t>(r)].view(), w.view(),
                      y[static_cast<std::size_t>(r)].view());
        }
      });
    }
    gemm_flops += 2.0 * static_cast<double>(part.total()) *
                  static_cast<double>(d_in) * static_cast<double>(d_out);
  }
  double plan_s = 0.0;
  {
    Spans::Scope scope(c.spans, "sparse.plan_build");
    plan_s = best_of_three([&] {
      for (int r = 0; r < p; ++r) {
        for (int s = 0; s < p; ++s) {
          const auto plan = sparse::SpmmPlan::inspect(grid.tile(r, s));
          (void)plan;
        }
      }
    });
  }
  set_metric(c.layer, "sparse.spmm_s", spmm_s, "s");
  set_metric(c.layer, "sparse.spmm_gflops", spmm_flops / spmm_s / 1e9,
             "GFLOP/s");
  set_metric(c.layer, "sparse.plan_build_s", plan_s, "s");
  set_metric(c.layer, "dense.gemm_s", gemm_s, "s");
  set_metric(c.layer, "dense.gemm_gflops", gemm_flops / gemm_s / 1e9,
             "GFLOP/s");
}

void forward_probe(Context& c, core::MgGcnTrainer& trainer) {
  set_metric(c.layer, "trainer.preprocess_s", trainer.preprocessing_seconds(),
             "s");
  Spans::Scope scope(c.spans, "core.trainer.run_forward");
  set_metric(c.layer, "trainer.forward_s",
             best_of_three([&] { trainer.run_forward(); }), "s");
}

// ---------------------------------------------------------------------------
// Workloads.

/// fullbatch: the paper's own workload — real-mode full-batch training.
std::int64_t run_fullbatch(Context& c) {
  const graph::Dataset ds = load_dataset(c, shape_of("fullbatch"));
  const core::TrainConfig config = fullbatch_config(c.args.seed);
  sim::Machine machine(
      replica_profile(sim::dgx_v100(), ds, core::layer_dims(ds, config)),
      kDevices, sim::ExecutionMode::kReal, false);
  std::unique_ptr<core::MgGcnTrainer> trainer;
  {
    Spans::Scope scope(c.spans, "core.trainer.construct");
    trainer = std::make_unique<core::MgGcnTrainer>(machine, ds, config);
  }
  std::vector<core::EpochStats> epochs;
  {
    Spans::Scope scope(c.spans, "core.trainer.train_epoch.warmup");
    epochs.push_back(trainer->train_epoch());
  }
  finish_setup(c);
  harvest(machine);

  const TimedRun t =
      timed_loop(c, machine, "core.trainer.train_epoch",
                 [&](int) { epochs.push_back(trainer->train_epoch()); });
  const std::uint64_t peak = machine.max_memory_peak();

  std::vector<double> loss, acc;
  for (const auto& e : epochs) {
    loss.push_back(e.loss);
    acc.push_back(e.train_accuracy);
  }
  set_metric(c.e2e, "wall_s", t.median_all(), "s");
  epoch_metrics(c, epochs);
  set_metric(c.e2e, "peak_device_bytes", static_cast<double>(peak), "B");

  // Checks: the serial reference over the first epochs, and progress over
  // the timed ones.
  {
    Spans::Scope scope(c.spans, "core.reference.train_epoch");
    core::ReferenceTrainer reference(ds, config);
    std::vector<double> ref_loss, ref_acc;
    for (int e = 0; e < 2; ++e) {
      const auto r = reference.train_epoch();
      ref_loss.push_back(r.loss);
      ref_acc.push_back(r.train_accuracy);
    }
    std::vector<double> l = loss, a = acc;
    if (c.perturb("fullbatch.reference")) l[1] *= 1.0 + 1e-5;
    if (c.perturb("fullbatch.accuracy")) a[1] += 0.01;
    c.check("fullbatch.reference",
            checks::match_reference(l, a, ref_loss, ref_acc, 1e-6, 1e-3));
  }
  std::vector<double> timed_loss(loss.begin() + 1, loss.end());
  if (c.perturb("fullbatch.progress")) timed_loss.back() = timed_loss.front();
  c.check("fullbatch.progress", checks::loss_falls(timed_loss));

  if (c.args.trace) {
    trace_layer_metrics(c, t);
    const auto& e = epochs[1];
    set_metric(c.layer, "planner.products_1d", e.plan_products_1d, "count");
    set_metric(c.layer, "planner.products_15d", e.plan_products_15d, "count");
    set_metric(c.layer, "planner.products_replicated",
               e.plan_products_replicated, "count");
    const core::PartitionCutStats& cut = trainer->partition_stats();
    set_metric(c.layer, "partitioner.cut_edges",
               static_cast<double>(cut.cut_edges), "count");
    set_metric(c.layer, "partitioner.imbalance", cut.imbalance, "ratio");
    forward_probe(c, *trainer);
    kernel_probes(c, ds, *trainer);
  }
  return static_cast<std::int64_t>(t.host.size());
}

/// sampled: the pipelined mini-batch engine with the feature cache.
std::int64_t run_sampled(Context& c) {
  const graph::Dataset ds = load_dataset(c, shape_of("sampled"));
  const core::SampledPipeline::Options options = sampled_options(c.args.seed);
  std::vector<std::int64_t> dims = {ds.spec.feature_dim};
  dims.insert(dims.end(), options.hidden_dims.begin(),
              options.hidden_dims.end());
  dims.push_back(ds.spec.num_classes);
  const sim::MachineProfile profile =
      replica_profile(sim::dgx_v100(), ds, dims);
  sim::Machine machine(profile, kDevices, sim::ExecutionMode::kReal, false);
  std::unique_ptr<core::SampledPipeline> pipeline;
  {
    Spans::Scope scope(c.spans, "core.sampled_pipeline.construct");
    pipeline = std::make_unique<core::SampledPipeline>(machine, ds, options);
  }
  std::vector<core::EpochStats> epochs;
  {
    Spans::Scope scope(c.spans, "core.sampled_pipeline.train_epoch.warmup");
    epochs.push_back(pipeline->train_epoch());
  }
  finish_setup(c);
  harvest(machine);

  const TimedRun t =
      timed_loop(c, machine, "core.sampled_pipeline.train_epoch",
                 [&](int) { epochs.push_back(pipeline->train_epoch()); });
  const std::uint64_t peak = machine.max_memory_peak();

  set_metric(c.e2e, "wall_s", t.median_all(), "s");
  epoch_metrics(c, epochs);
  set_metric(c.e2e, "peak_device_bytes", static_cast<double>(peak), "B");

  // Check: a serialized, cache-off engine on the same seeds trains the
  // same bits over the first epoch (schedule and cache invariance).
  {
    Spans::Scope scope(c.spans, "core.sampled_pipeline.serialized_check");
    sim::Machine serial_machine(profile, kDevices, sim::ExecutionMode::kReal,
                                false);
    core::SampledPipeline::Options serial = options;
    serial.pipeline = false;
    serial.cache_mode = core::CacheMode::kOff;
    core::SampledPipeline reference(serial_machine, ds, serial);
    const core::EpochStats r = reference.train_epoch();
    std::vector<double> got = {epochs[0].loss, epochs[0].train_accuracy};
    const std::vector<double> want = {r.loss, r.train_accuracy};
    if (c.perturb("sampled.bitwise")) got[0] = std::nextafter(got[0], 0.0);
    c.check("sampled.bitwise",
            checks::bitwise_equal(got, want, "epoch-0 loss/accuracy"));
  }
  const std::int64_t classes = ds.spec.num_classes;
  double final_acc = epochs.back().train_accuracy;
  if (c.perturb("sampled.chance")) {
    final_acc = 1.0 / static_cast<double>(classes);
  }
  c.check("sampled.chance", checks::above_chance(final_acc, classes, 5.0));

  if (c.args.trace) {
    trace_layer_metrics(c, t);
    using E = const core::EpochStats&;
    auto mean = [&](auto field) { return unit_mean(epochs, 1, field); };
    set_metric(c.layer, "pipeline.sample_sim_s",
               mean([](E e) { return e.pipe_sample_seconds; }), "s");
    set_metric(c.layer, "pipeline.extract_sim_s",
               mean([](E e) { return e.pipe_extract_seconds; }), "s");
    set_metric(c.layer, "pipeline.train_sim_s",
               mean([](E e) { return e.pipe_train_seconds; }), "s");
    set_metric(c.layer, "pipeline.occupancy",
               mean([](E e) { return e.pipe_occupancy; }), "ratio");
    set_metric(c.layer, "pipeline.rounds",
               mean([](E e) { return e.pipe_rounds; }), "count");
    cache_metrics(c, mean([](E e) { return e.cache_hits; }),
                  mean([](E e) { return e.cache_misses; }));
    set_metric(c.layer, "cache.evictions",
               mean([](E e) { return e.cache_evictions; }), "count");

    // The epoch's batches through the host sampler, on the workload's graph.
    graph::NeighborSampler sampler(ds.adjacency, options.fanout);
    util::Rng rng(derive(c.args.seed, 4));
    double sample_s = 0.0;
    std::int64_t vertices = 0, edges = 0;
    const int batches = pipeline->rounds_per_epoch() * kDevices;
    for (int b = 0; b < batches; ++b) {
      const auto seeds = sampler.random_batch(options.batch_size, rng);
      const auto t0 = Clock::now();
      Spans::Scope scope(c.spans, "graph.sample");
      const graph::SampledSubgraph sub = sampler.sample(seeds, rng);
      sample_s += seconds_between(t0, Clock::now());
      vertices += sub.total_vertices();
      edges += sub.total_edges();
    }
    set_metric(c.layer, "graph.sample_s", sample_s, "s");
    set_metric(c.layer, "graph.sampled_vertices",
               static_cast<double>(vertices), "count");
    set_metric(c.layer, "graph.sampled_edges", static_cast<double>(edges),
               "count");
  }
  return static_cast<std::int64_t>(t.host.size()) *
         pipeline->rounds_per_epoch();
}

/// serving: a restored model served under a bursty open-loop trace, with a
/// trainer and the server sharing one workspace-pool set.
std::int64_t run_serving(Context& c) {
  const graph::Dataset ds = load_dataset(c, shape_of("serving"));
  core::Checkpoint checkpoint;
  {
    Spans::Scope scope(c.spans, "core.load_checkpoint");
    checkpoint = core::load_checkpoint(path_in(c.args, "model.ckpt"));
  }
  const RequestTrace trace = read_trace(path_in(c.args, "trace.bin"), ds.n());
  sim::Machine machine(sim::dgx_v100(), kDevices, sim::ExecutionMode::kReal,
                       false);
  const std::shared_ptr<mem::PoolSet> pool = mem::PoolSet::create(machine);
  core::TrainConfig config = serving_config(c.args.seed);
  config.pool = pool;
  std::unique_ptr<core::MgGcnTrainer> trainer;
  {
    Spans::Scope scope(c.spans, "core.trainer.construct");
    trainer = std::make_unique<core::MgGcnTrainer>(machine, ds, config);
    trainer->restore(checkpoint);
    trainer->run_forward();
  }
  core::ServeOptions options;
  options.policy = core::BatchPolicy::kDeadline;
  options.cache_mode = core::ServeCacheMode::kAuto;
  options.pool_mode = mem::PoolMode::kAuto;
  options.pool = pool;
  std::unique_ptr<core::InferenceServer> server;
  {
    Spans::Scope scope(c.spans, "core.inference_server.construct");
    server = std::make_unique<core::InferenceServer>(machine, *trainer, ds,
                                                     options);
  }
  {
    Spans::Scope scope(c.spans, "core.inference_server.serve.warmup");
    (void)server->serve(trace.requests, trace.updates);
  }
  finish_setup(c);
  harvest(machine);

  const dense::HostMatrix logits = trainer->gather_logits();
  std::vector<core::ServeStats> passes;
  const TimedRun t =
      timed_loop(c, machine, "core.inference_server.serve", [&](int) {
        passes.push_back(server->serve(trace.requests, trace.updates));
      });
  const std::uint64_t peak = machine.max_memory_peak();
  // The last pass's outputs are still in the server; every pass answers
  // the same trace, so checking them checks the pass.
  {
    dense::HostMatrix predictions = server->predictions();
    std::int64_t rows = predictions.rows();
    if (c.perturb("serving.answered")) --rows;
    if (c.perturb("serving.prediction")) {
      std::uint32_t bits;
      std::memcpy(&bits, predictions.data() + 7, sizeof bits);
      bits ^= 1u;
      std::memcpy(predictions.data() + 7, &bits, sizeof bits);
    }
    c.check("serving.answered",
            checks::all_answered(trace.requests.size(),
                                 passes.back().serve_requests, rows));
    c.check("serving.prediction",
            checks::predictions_match(predictions, logits, trace.requests));
  }

  // A serving "epoch" is one pass of the trace: first arrival to last
  // completion on the simulated clock.
  std::vector<double> span, p50, p99;
  for (int i = 0; i < kSimUnits; ++i) {
    span.push_back(passes[static_cast<std::size_t>(i)].serve_span_seconds);
    p50.push_back(passes[static_cast<std::size_t>(i)].serve_p50_latency);
    p99.push_back(passes[static_cast<std::size_t>(i)].serve_p99_latency);
  }
  set_metric(c.e2e, "wall_s", t.median_all(), "s");
  set_metric(c.e2e, "sim_epoch_s", median(span), "s");
  set_metric(c.e2e, "sim_p50_latency_s", median(p50), "s");
  set_metric(c.e2e, "sim_p99_latency_s", median(p99), "s");
  set_metric(c.e2e, "peak_device_bytes", static_cast<double>(peak), "B");

  if (c.args.trace) {
    trace_layer_metrics(c, t);
    using S = const core::ServeStats&;
    auto mean = [&](auto field) { return unit_mean(passes, 0, field); };
    cache_metrics(c, mean([](S s) { return s.serve_cache_hits; }),
                  mean([](S s) { return s.serve_cache_misses; }));
    set_metric(c.layer, "cache.invalidations",
               mean([](S s) { return s.serve_invalidations; }), "count");
    set_metric(c.layer, "serve.batches",
               mean([](S s) { return s.serve_batches; }), "count");
    set_metric(c.layer, "serve.mean_batch",
               mean([](S s) { return s.serve_mean_batch_size; }), "count");
    set_metric(c.layer, "serve.gather_sim_s",
               mean([](S s) { return s.serve_gather_seconds; }), "s");
    set_metric(c.layer, "serve.infer_sim_s",
               mean([](S s) { return s.serve_infer_seconds; }), "s");
    set_metric(c.layer, "serve.deadline_misses", mean([](S s) {
                 return s.serve_deadline_miss_rate *
                        static_cast<double>(s.serve_requests);
               }),
               "count");
    set_metric(c.layer, "serve.host_us_per_request",
               t.median_host(false) / kRequestsPerPass * 1e6, "us");
    forward_probe(c, *trainer);
  }
  return static_cast<std::int64_t>(t.host.size()) * kRequestsPerPass;
}

/// Simulated time of one isolated steady-state product at width d under
/// the planner's chosen strategy, against Planner::price of that strategy.
double price_error(const graph::Dataset& ds,
                   const core::MgGcnTrainer& trainer,
                   const sim::MachineProfile& profile) {
  sim::Machine machine(profile, kDevices, sim::ExecutionMode::kPhantom, false);
  const double comm_bw = profile.interconnect.collective_bandwidth();
  const double bw_scale =
      std::max(0.5, 1.0 - comm_bw / profile.device.memory_bandwidth);
  comm::CommOptions comm_options;
  comm_options.duration_scale = 1.10;
  comm::Communicator comm(machine, comm_options);
  core::Planner planner(machine, comm,
                        forward_tiles(ds, trainer.perm(), trainer.partition()),
                        core::PlanMode::kAuto, comm::CommMode::kAuto);
  planner.account_memory();
  const core::PartitionVector& part = planner.partition();
  const auto dims = trainer.dims();
  double worst = 0.0;
  for (int l = 0; l + 1 < static_cast<int>(dims.size()); ++l) {
    const std::int64_t d = trainer.layer_spmm_first(l)
                               ? dims[static_cast<std::size_t>(l)]
                               : dims[static_cast<std::size_t>(l) + 1];
    std::vector<std::unique_ptr<sim::DeviceBuffer>> owned;
    core::DistIo io;
    for (int r = 0; r < kDevices; ++r) {
      auto make = [&](std::int64_t rows) {
        owned.push_back(std::make_unique<sim::DeviceBuffer>(
            machine.device(r), static_cast<std::size_t>(rows * d)));
        return owned.back().get();
      };
      io.input.push_back(make(part.size(r)));
      io.output.push_back(make(part.size(r)));
      io.bc1.push_back(make(part.max_part_size()));
      io.bc2.push_back(make(part.max_part_size()));
    }
    std::vector<std::array<sim::Event, 2>> slots(kDevices);
    io.d = d;
    io.overlap = true;
    io.compute_bandwidth_scale = bw_scale;
    io.slot_readers = &slots;
    double realized = 0.0;
    for (int rep = 0; rep < 2; ++rep) {  // the first run pays inspection
      const double t0 = machine.align_clocks();
      (void)planner.run(io);
      realized = machine.align_clocks() - t0;
    }
    const core::Planner::Estimate est = planner.price(d, true, bw_scale);
    const double priced = est.choice == core::PlanMode::k15D ? est.seconds_15d
                          : est.choice == core::PlanMode::kReplicated
                              ? est.seconds_replicated
                              : est.seconds_1d;
    const double err = priced / realized - 1.0;
    if (std::abs(err) > std::abs(worst)) worst = err;
  }
  return worst;
}

/// multinode: phantom 2 nodes x 2 devices, partitioner and planner on auto.
std::int64_t run_multinode(Context& c) {
  const graph::Dataset ds = load_dataset(c, shape_of("multinode"));
  const core::TrainConfig config = multinode_config(c.args.seed);
  const sim::MachineProfile profile =
      replica_profile(two_by_two_cluster(), ds, core::layer_dims(ds, config));
  sim::Machine machine(profile, kDevices, sim::ExecutionMode::kPhantom, false);
  std::unique_ptr<core::MgGcnTrainer> trainer;
  {
    Spans::Scope scope(c.spans, "core.trainer.construct");
    trainer = std::make_unique<core::MgGcnTrainer>(machine, ds, config);
  }
  std::vector<core::EpochStats> epochs;
  {
    Spans::Scope scope(c.spans, "core.trainer.train_epoch.warmup");
    epochs.push_back(trainer->train_epoch());
  }
  finish_setup(c);
  harvest(machine);
  std::cerr << "partitioner auto chose "
            << core::part_mode_name(trainer->part_mode_used())
            << "; products 1d/15d/replicated " << epochs[0].plan_products_1d
            << '/' << epochs[0].plan_products_15d << '/'
            << epochs[0].plan_products_replicated << '\n';

  const TimedRun t =
      timed_loop(c, machine, "core.trainer.train_epoch", [&](int i) {
        core::EpochStats s = trainer->train_epoch();
        if (i < kSimUnits) epochs.push_back(std::move(s));
      });
  const std::uint64_t peak = machine.max_memory_peak();

  set_metric(c.e2e, "wall_s", t.median_all(), "s");
  epoch_metrics(c, epochs);
  set_metric(c.e2e, "peak_device_bytes", static_cast<double>(peak), "B");

  const auto trainer_perm = trainer->perm();
  std::vector<std::uint32_t> perm(trainer_perm.begin(), trainer_perm.end());
  if (c.perturb("multinode.perm")) perm[1] = perm[0];
  c.check("multinode.perm", checks::is_bijection(perm, ds.n()));
  double imbalance = trainer->partition_stats().imbalance;
  if (c.perturb("multinode.slack")) imbalance = config.partition_slack + 0.01;
  c.check("multinode.slack",
          checks::within_slack(imbalance, config.partition_slack));
  const auto dims = trainer->dims();
  const std::int64_t widths = checks::product_width_sum(
      std::vector<std::int64_t>(dims.begin(), dims.end()));
  for (int i = 1; i <= kSimUnits; ++i) {
    const auto& e = epochs[static_cast<std::size_t>(i)];
    std::uint64_t wire = e.comm_wire_bytes;
    if (c.perturb("multinode.volume")) wire += 4;
    c.check("multinode.volume",
            checks::volume_conserved(wire, e.comm_bytes_saved, kDevices,
                                     ds.n(), widths));
  }

  if (c.args.trace) {
    trace_layer_metrics(c, t);
    const auto& e = epochs[1];
    set_metric(c.layer, "planner.products_1d", e.plan_products_1d, "count");
    set_metric(c.layer, "planner.products_15d", e.plan_products_15d, "count");
    set_metric(c.layer, "planner.products_replicated",
               e.plan_products_replicated, "count");
    const core::PartitionCutStats& cut = trainer->partition_stats();
    set_metric(c.layer, "partitioner.cut_edges",
               static_cast<double>(cut.cut_edges), "count");
    set_metric(c.layer, "partitioner.inter_node_ghost_rows",
               static_cast<double>(cut.inter_node_ghost_rows), "count");
    set_metric(c.layer, "partitioner.imbalance", cut.imbalance, "ratio");
    set_metric(c.layer, "trainer.preprocess_s",
               trainer->preprocessing_seconds(), "s");

    // The partitioner with the options the trainer derives from the
    // machine (core::MgGcnTrainer::preprocess).
    const sim::InterconnectProfile& inter = profile.interconnect;
    core::PartitionerOptions popt;
    popt.parts = kDevices;
    popt.slack = config.partition_slack;
    popt.permute_random = config.permute;
    popt.seed = config.seed ^ 0xabcdef12345ULL;
    popt.devices_per_node = inter.devices_per_node;
    const comm::Topology topo(inter);
    popt.inter_node_cost = std::max(
        1.0, topo.group_bandwidth(inter.devices_per_node) /
                 (inter.internode_bandwidth * inter.efficiency));
    {
      Spans::Scope scope(c.spans, "core.partitioner.plan_partition");
      const auto t0 = Clock::now();
      const core::PartitionResult part =
          core::plan_partition(ds.adjacency, config.part_mode, popt);
      set_metric(c.layer, "partitioner.s", seconds_between(t0, Clock::now()),
                 "s");
      (void)part;
    }
    Spans::Scope scope(c.spans, "core.planner.price");
    set_metric(c.layer, "planner.price_error",
               price_error(ds, *trainer, profile), "ratio");
  }
  return static_cast<std::int64_t>(t.host.size());
}

void print_metrics(std::ostream& os, const MetricMap& metrics) {
  os << '{';
  bool first = true;
  char buf[64];
  for (const auto& [name, m] : metrics) {
    std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    os << (first ? "" : ", ") << '"' << name << "\": {\"value\": " << buf
       << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  os << '}';
}

int run(const Args& a) {
  Context c;
  c.args = a;
  c.spans.enabled = a.trace;
  for (const auto& [name, unit] : per_layer_names()) {
    set_metric(c.layer, name, 0.0, unit);
  }

  std::int64_t attempted = 0;
  if (a.workload == "fullbatch") attempted = run_fullbatch(c);
  else if (a.workload == "sampled") attempted = run_sampled(c);
  else if (a.workload == "serving") attempted = run_serving(c);
  else if (a.workload == "multinode") attempted = run_multinode(c);
  else throw std::invalid_argument("unknown workload '" + a.workload + "'");

  for (const auto& f : c.failures) std::cout << "CHECK FAILED " << f << '\n';
  if (a.trace) {
    std::cout << "per-layer spans (" << a.workload << ", seed " << a.seed
              << "):\n"
              << c.spans.table();
    if (!a.results.empty()) {
      const std::string path = a.results + "/spans-" + a.workload + "-" +
                               std::to_string(a.seed) + ".json";
      if (!c.spans.write_json(path)) {
        throw std::runtime_error("cannot write " + path);
      }
      std::cout << "spans written to " << path << '\n';
    }
  }
  std::cout << "{\"correct\": " << (c.failures.empty() ? "true" : "false")
            << ", \"attempted\": " << attempted
            << ", \"failed\": 0, \"metrics\": ";
  print_metrics(std::cout, a.trace ? c.layer : c.e2e);
  std::cout << "}" << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse_args(argc, argv);
    if (a.mode == "gen") return generate(a);
    if (a.mode == "run") return run(a);
    throw std::invalid_argument("unknown mode '" + a.mode + "'");
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
}
