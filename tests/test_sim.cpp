// Unit tests for the simulated-GPU runtime: streams, events, simulated
// clocks, the cost model, memory accounting, and the trace.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <sstream>
#include <vector>

#include "sim/cost_model.hpp"
#include "sim/machine.hpp"
#include "sim/profile.hpp"

namespace mggcn::sim {
namespace {

Machine make_machine(int devices = 2,
                     ExecutionMode mode = ExecutionMode::kReal) {
  return Machine(dgx_v100(), devices, mode);
}

TaskDesc cheap_task(std::function<void()> body, double bytes = 9e8) {
  TaskDesc task;
  task.label = "t";
  task.kind = TaskKind::kOther;
  task.cost.stream_bytes = bytes;  // 1 ms at 900 GB/s
  task.body = std::move(body);
  return task;
}

TEST(Stream, ExecutesTasksInOrder) {
  Machine machine = make_machine(1);
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    machine.device(0).compute_stream().enqueue(
        cheap_task([&order, i] { order.push_back(i); }, 1.0));
  }
  machine.synchronize();
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Stream, SimulatedTimeAccumulates) {
  Machine machine = make_machine(1);
  Stream& stream = machine.device(0).compute_stream();
  stream.enqueue(cheap_task(nullptr));  // 1 ms
  stream.enqueue(cheap_task(nullptr));  // 1 ms
  stream.synchronize();
  EXPECT_NEAR(stream.sim_time(), 2e-3 + 2 * 8e-6, 1e-6);
}

TEST(Event, CarriesSimulatedTimestamp) {
  Machine machine = make_machine(1);
  Event e = machine.device(0).compute_stream().enqueue(cheap_task(nullptr));
  EXPECT_NEAR(e.wait(), 1e-3 + 8e-6, 1e-6);
  EXPECT_TRUE(e.is_complete());
}

TEST(Event, PreSignaled) {
  const Event e = Event::signaled(1.5);
  EXPECT_TRUE(e.is_complete());
  EXPECT_DOUBLE_EQ(e.wait(), 1.5);
}

TEST(Event, CrossStreamDependencyPropagatesTime) {
  Machine machine = make_machine(2);
  // Device 0 runs a 1 ms task; device 1's task waits for it, so its start
  // time is max(own stream = 0, dependency = 1 ms).
  Event first =
      machine.device(0).compute_stream().enqueue(cheap_task(nullptr));
  TaskDesc second = cheap_task(nullptr);
  second.waits.push_back(first);
  Event done = machine.device(1).compute_stream().enqueue(std::move(second));
  EXPECT_NEAR(done.wait(), 2e-3 + 2 * 8e-6, 1e-6);
}

TEST(Event, WaitEventOrdersSubsequentTasks) {
  Machine machine = make_machine(1);
  Device& device = machine.device(0);
  std::atomic<bool> comm_done{false};
  Event slow = device.comm_stream().enqueue(
      cheap_task([&] { comm_done = true; }, 9e9));  // 10 ms
  device.compute_stream().wait_event(slow);
  std::atomic<bool> saw_comm_done{false};
  device.compute_stream().enqueue(
      cheap_task([&] { saw_comm_done = comm_done.load(); }, 1.0));
  machine.synchronize();
  EXPECT_TRUE(saw_comm_done);
  EXPECT_GE(device.compute_stream().sim_time(), 10e-3);
}

TEST(Machine, AlignClocksBringsAllStreamsToMax) {
  Machine machine = make_machine(2);
  machine.device(0).compute_stream().enqueue(cheap_task(nullptr, 9e9));
  const double t = machine.align_clocks();
  EXPECT_GT(t, 9.9e-3);
  for (int r = 0; r < 2; ++r) {
    EXPECT_DOUBLE_EQ(machine.device(r).compute_stream().sim_time(), t);
    EXPECT_DOUBLE_EQ(machine.device(r).comm_stream().sim_time(), t);
  }
}

TEST(Machine, PhantomSkipsBodiesButKeepsTiming) {
  Machine machine(dgx_v100(), 1, ExecutionMode::kPhantom);
  bool ran = false;
  Event e = machine.device(0).compute_stream().enqueue(
      cheap_task([&ran] { ran = true; }));
  const double t = e.wait();
  EXPECT_FALSE(ran);
  EXPECT_NEAR(t, 1e-3 + 8e-6, 1e-6);
}

TEST(CostModel, LaunchOverheadFloor) {
  KernelCost cost;
  cost.launches = 3;
  EXPECT_NEAR(CostModel::seconds(cost, dgx_v100().device), 3 * 8e-6, 1e-9);
}

TEST(CostModel, MemoryBoundKernel) {
  KernelCost cost;
  cost.stream_bytes = 900e9;  // exactly one second of HBM traffic
  cost.launches = 0;
  EXPECT_NEAR(CostModel::seconds(cost, dgx_v100().device), 1.0, 1e-9);
}

TEST(CostModel, ComputeBoundKernel) {
  KernelCost cost;
  cost.flops = 14e12;
  cost.stream_bytes = 1.0;
  cost.launches = 0;
  EXPECT_NEAR(CostModel::seconds(cost, dgx_v100().device), 1.0, 1e-9);
}

TEST(CostModel, BandwidthScaleSlowsMemoryTerm) {
  KernelCost cost;
  cost.stream_bytes = 900e9;
  cost.launches = 0;
  const auto dev = dgx_v100().device;
  EXPECT_NEAR(CostModel::seconds(cost, dev, 0.5), 2.0, 1e-9);
}

TEST(CostModel, GatherReuseWithinL2) {
  // Working set well inside L2: reuse traffic nearly free.
  const double eff = CostModel::effective_gather_bytes(
      /*gather=*/1e9, /*working_set=*/1e6, /*l2=*/6e6);
  EXPECT_LT(eff, 1e6 + 1e9 * CostModel::kL2HitCost * 1.01);
  EXPECT_GE(eff, 1e6);
}

TEST(CostModel, GatherNoReuseBeyondL2) {
  // Working set far exceeding L2: almost all traffic reaches HBM.
  const double eff = CostModel::effective_gather_bytes(1e9, 1e9, 6e6);
  EXPECT_GT(eff, 0.9e9);
}

TEST(CostModel, GatherMonotoneInWorkingSet) {
  double prev = 0.0;
  for (double ws = 1e5; ws <= 1e9; ws *= 2) {
    const double eff = CostModel::effective_gather_bytes(2e9, ws, 6e6);
    EXPECT_GE(eff, prev);
    prev = eff;
  }
}

TEST(Memory, AccountingAndPeak) {
  Machine machine = make_machine(1);
  Device& device = machine.device(0);
  device.reserve_memory(1000, "a");
  device.reserve_memory(2000, "b");
  EXPECT_EQ(device.memory_used(), 3000u);
  device.release_memory(1000);
  EXPECT_EQ(device.memory_used(), 2000u);
  EXPECT_EQ(device.memory_peak(), 3000u);
  device.reset_memory_peak();
  EXPECT_EQ(device.memory_peak(), 2000u);
}

TEST(Memory, OutOfMemoryThrows) {
  Machine machine = make_machine(1);
  EXPECT_THROW(
      machine.device(0).reserve_memory(33ULL << 30, "too big"),
      OutOfMemoryError);
}

TEST(Memory, DeviceBufferRaii) {
  Machine machine = make_machine(1);
  Device& device = machine.device(0);
  {
    DeviceBuffer buffer(device, 1024, "buf");
    EXPECT_EQ(device.memory_used(), 4096u);
    EXPECT_EQ(buffer.span().size(), 1024u);
  }
  EXPECT_EQ(device.memory_used(), 0u);
}

TEST(Memory, DeviceBufferMoveTransfersOwnership) {
  Machine machine = make_machine(1);
  Device& device = machine.device(0);
  DeviceBuffer a(device, 256, "a");
  DeviceBuffer b = std::move(a);
  EXPECT_EQ(a.size(), 0u);
  EXPECT_EQ(b.size(), 256u);
  EXPECT_EQ(device.memory_used(), 1024u);
}

TEST(Memory, PhantomBufferAccountsWithoutStorage) {
  Machine machine(dgx_v100(), 1, ExecutionMode::kPhantom);
  DeviceBuffer buffer(machine.device(0), 1 << 20, "big");
  EXPECT_EQ(machine.device(0).memory_used(), (1ULL << 20) * 4);
  EXPECT_TRUE(buffer.span().empty());
  EXPECT_EQ(buffer.data(), nullptr);
}

TEST(Trace, RecordsAndAggregates) {
  Machine machine = make_machine(1);
  TaskDesc task = cheap_task(nullptr);
  task.kind = TaskKind::kSpMM;
  machine.device(0).compute_stream().enqueue(std::move(task));
  machine.synchronize();
  const auto busy = machine.trace().busy_by_kind();
  ASSERT_TRUE(busy.count(TaskKind::kSpMM));
  EXPECT_NEAR(busy.at(TaskKind::kSpMM), 1e-3 + 8e-6, 1e-6);
}

TEST(Trace, BusyByKindSinceMatchesBruteForceOnInterleavedDevices) {
  // Records land in completion order, so t_begin is not sorted across
  // devices: device 0 runs ahead of device 1 here, and a long task on
  // device 2 begins before many records that precede it in the trace.
  Trace trace;
  std::mt19937_64 rng(42);
  std::uniform_real_distribution<double> dur(1e-6, 1e-4);
  double clock[3] = {0.5, 0.0, 0.2};
  for (int i = 0; i < 600; ++i) {
    const int device = static_cast<int>(rng() % 3);
    TraceRecord rec;
    rec.device = device;
    rec.kind = static_cast<TaskKind>(rng() % 4);
    rec.t_begin = clock[device];
    rec.t_end = rec.t_begin + (device == 2 && i % 97 == 0 ? 0.3 : dur(rng));
    clock[device] = rec.t_end;
    trace.record(rec);
  }
  const std::vector<TraceRecord> all = trace.records();
  std::vector<double> marks = {-1.0, 0.0, 0.25, 0.5, 0.75, 1e9};
  for (std::size_t i = 0; i < all.size(); i += 37) {
    marks.push_back(all[i].t_begin);
  }
  for (const double since : marks) {
    std::map<TaskKind, double> want;
    for (const TraceRecord& rec : all) {
      if (rec.t_begin >= since) want[rec.kind] += rec.duration();
    }
    EXPECT_EQ(trace.busy_by_kind(since), want) << "since " << since;
    for (int device = 0; device < 3; ++device) {
      std::size_t want_count = 0;
      for (const TraceRecord& rec : all) {
        want_count += rec.device == device && rec.t_begin >= since;
      }
      EXPECT_EQ(trace.device_records(device, since).size(), want_count)
          << "since " << since << " device " << device;
    }
  }
  trace.clear();
  EXPECT_TRUE(trace.busy_by_kind(0.0).empty());
}

TEST(Trace, TimelineRendering) {
  Machine machine = make_machine(1);
  TaskDesc task = cheap_task(nullptr);
  task.kind = TaskKind::kComm;
  task.stage = 2;
  machine.device(0).comm_stream().enqueue(std::move(task));
  machine.synchronize();
  const std::string gantt =
      machine.trace().render_timeline(0.0, machine.sim_time(), 40);
  EXPECT_NE(gantt.find("GPU 0"), std::string::npos);
  EXPECT_NE(gantt.find('2'), std::string::npos);  // stage digit
  EXPECT_NE(gantt.find('='), std::string::npos);  // comm fill
}

TEST(Trace, ChromeJsonExport) {
  Machine machine = make_machine(1);
  TaskDesc task = cheap_task(nullptr);
  task.kind = TaskKind::kSpMM;
  task.stage = 1;
  task.label = "spmm";
  machine.device(0).compute_stream().enqueue(std::move(task));
  machine.synchronize();

  const auto path =
      (std::filesystem::temp_directory_path() / "mggcn_trace.json").string();
  machine.trace().export_chrome_json(path);
  std::ifstream is(path);
  std::stringstream buffer;
  buffer << is.rdbuf();
  const std::string json = buffer.str();
  std::remove(path.c_str());
  EXPECT_NE(json.find("\"name\": \"spmm\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\": \"SpMM\""), std::string::npos);
  EXPECT_NE(json.find("\"stage\": 1"), std::string::npos);
}

TEST(Trace, JsonEscape) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape("\b\f\r"), "\\b\\f\\r");
  EXPECT_EQ(json_escape(std::string("a\x01z")), "a\\u0001z");
  EXPECT_EQ(json_escape(""), "");
}

namespace json {
// Minimal recursive-descent JSON reader for the round-trip test: validates
// the whole document and collects every string value encountered.
struct Parser {
  const std::string& s;
  std::size_t i = 0;
  std::vector<std::string> strings;

  void ws() {
    while (i < s.size() && (s[i] == ' ' || s[i] == '\n' || s[i] == '\r' ||
                            s[i] == '\t')) {
      ++i;
    }
  }
  bool lit(const char* text) {
    const std::size_t n = std::string(text).size();
    if (s.compare(i, n, text) != 0) return false;
    i += n;
    return true;
  }
  bool string(std::string* out) {
    if (i >= s.size() || s[i] != '"') return false;
    ++i;
    std::string value;
    while (i < s.size() && s[i] != '"') {
      char c = s[i];
      if (static_cast<unsigned char>(c) < 0x20) return false;  // unescaped
      if (c == '\\') {
        if (++i >= s.size()) return false;
        switch (s[i]) {
          case '"': value += '"'; break;
          case '\\': value += '\\'; break;
          case '/': value += '/'; break;
          case 'b': value += '\b'; break;
          case 'f': value += '\f'; break;
          case 'n': value += '\n'; break;
          case 'r': value += '\r'; break;
          case 't': value += '\t'; break;
          case 'u': {
            if (i + 4 >= s.size()) return false;
            const std::string hex = s.substr(i + 1, 4);
            value += static_cast<char>(std::stoi(hex, nullptr, 16));
            i += 4;
            break;
          }
          default:
            return false;
        }
        ++i;
      } else {
        value += c;
        ++i;
      }
    }
    if (i >= s.size()) return false;
    ++i;  // closing quote
    strings.push_back(value);
    if (out != nullptr) *out = value;
    return true;
  }
  bool number() {
    const std::size_t start = i;
    if (i < s.size() && (s[i] == '-' || s[i] == '+')) ++i;
    while (i < s.size() &&
           (std::isdigit(static_cast<unsigned char>(s[i])) != 0 ||
            s[i] == '.' || s[i] == 'e' || s[i] == 'E' || s[i] == '-' ||
            s[i] == '+')) {
      ++i;
    }
    return i > start;
  }
  bool value() {
    ws();
    if (i >= s.size()) return false;
    if (s[i] == '{') return object();
    if (s[i] == '[') return array();
    if (s[i] == '"') return string(nullptr);
    if (lit("true") || lit("false") || lit("null")) return true;
    return number();
  }
  bool object() {
    ++i;  // '{'
    ws();
    if (i < s.size() && s[i] == '}') { ++i; return true; }
    while (true) {
      ws();
      if (!string(nullptr)) return false;
      ws();
      if (i >= s.size() || s[i] != ':') return false;
      ++i;
      if (!value()) return false;
      ws();
      if (i < s.size() && s[i] == ',') { ++i; continue; }
      break;
    }
    ws();
    if (i >= s.size() || s[i] != '}') return false;
    ++i;
    return true;
  }
  bool array() {
    ++i;  // '['
    ws();
    if (i < s.size() && s[i] == ']') { ++i; return true; }
    while (true) {
      if (!value()) return false;
      ws();
      if (i < s.size() && s[i] == ',') { ++i; continue; }
      break;
    }
    ws();
    if (i >= s.size() || s[i] != ']') return false;
    ++i;
    return true;
  }
  bool document() {
    if (!value()) return false;
    ws();
    return i == s.size();
  }
};
}  // namespace json

TEST(Trace, ChromeJsonRoundTripsHostileLabels) {
  Machine machine = make_machine(1);
  const std::vector<std::string> labels = {
      "quote\"inside", "back\\slash", "new\nline", "tab\there",
      std::string("ctrl\x02char"),
  };
  for (const auto& label : labels) {
    TaskDesc task = cheap_task(nullptr, 1.0);
    task.label = label;
    machine.device(0).compute_stream().enqueue(std::move(task));
  }
  machine.synchronize();

  const auto path =
      (std::filesystem::temp_directory_path() / "mggcn_trace_escape.json")
          .string();
  machine.trace().export_chrome_json(path);
  std::ifstream is(path);
  std::stringstream buffer;
  buffer << is.rdbuf();
  const std::string text = buffer.str();
  std::remove(path.c_str());

  json::Parser parser{text, 0, {}};
  ASSERT_TRUE(parser.document()) << "export is not valid JSON near offset "
                                 << parser.i;
  // Every hostile label must survive the escape/parse round trip verbatim.
  for (const auto& label : labels) {
    EXPECT_NE(std::find(parser.strings.begin(), parser.strings.end(), label),
              parser.strings.end())
        << "label lost in round trip: " << json_escape(label);
  }
}

#ifndef NDEBUG
TEST(MemoryDeathTest, ReleaseUnderflowAssertsInDebug) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Machine machine(dgx_v100(), 1);
        Device& device = machine.device(0);
        device.reserve_memory(100, "a");
        device.release_memory(200);
      },
      "underflow");
}
#else
TEST(Memory, ReleaseUnderflowClampsInRelease) {
  Machine machine = make_machine(1);
  Device& device = machine.device(0);
  device.reserve_memory(100, "a");
  device.release_memory(200);  // logs an error, clamps instead of wrapping
  EXPECT_EQ(device.memory_used(), 0u);
}
#endif

TEST(Profiles, TableValues) {
  const auto v100 = dgx_v100();
  EXPECT_EQ(v100.device.memory_bytes, 32ULL << 30);
  EXPECT_EQ(v100.interconnect.links_per_device, 6);
  const auto a100 = dgx_a100();
  EXPECT_EQ(a100.device.memory_bytes, 80ULL << 30);
  EXPECT_EQ(a100.interconnect.links_per_device, 12);
  EXPECT_EQ(machine_by_name("dgx-a100").name, "dgx-a100");
  EXPECT_THROW(machine_by_name("tpu"), InvalidArgumentError);
}

TEST(Profiles, ScaleProfileDividesExtensiveQuantities) {
  const auto scaled = scale_profile(dgx_v100(), 4.0);
  EXPECT_EQ(scaled.device.memory_bytes, 8ULL << 30);
  EXPECT_EQ(scaled.device.l2_bytes, (6ULL << 20) / 4);
  EXPECT_NEAR(scaled.device.kernel_launch_overhead, 2e-6, 1e-12);
  // Interconnect bandwidths are intensive: unchanged.
  EXPECT_EQ(scaled.interconnect.link_bandwidth,
            dgx_v100().interconnect.link_bandwidth);
}

TEST(Profiles, ScaleProfileKeepsInvariantBytes) {
  const std::uint64_t invariant = 1ULL << 30;
  const auto scaled = scale_profile(dgx_v100(), 1e9, invariant);
  EXPECT_GE(scaled.device.memory_bytes, invariant);
}

TEST(Profiles, ScaleInvarianceOfTheCostModel) {
  // The bench methodology's invariant: a workload scaled by 1/k on a
  // profile scaled by 1/k takes exactly 1/k of the full-scale time, for
  // every term of the model (bandwidth, cache, flops, launches).
  KernelCost full;
  full.stream_bytes = 3e9;
  full.gather_bytes = 8e9;
  full.gather_working_set = 48e6;  // 8x the V100 L2
  full.flops = 5e12;
  full.launches = 4;
  for (const double k : {2.0, 16.0, 256.0}) {
    KernelCost scaled = full;
    scaled.stream_bytes /= k;
    scaled.gather_bytes /= k;
    scaled.gather_working_set /= k;
    scaled.flops /= k;
    const auto profile = scale_profile(dgx_v100(), k);
    EXPECT_NEAR(CostModel::seconds(scaled, profile.device) * k,
                CostModel::seconds(full, dgx_v100().device),
                1e-9 * CostModel::seconds(full, dgx_v100().device) * k)
        << "k = " << k;
  }
}

TEST(Collective, RendezvousSynchronizesStartTimes) {
  Machine machine = make_machine(2);
  // Rank 0 is busy for 10 ms before its collective part arrives; the
  // collective cannot begin before then on either rank.
  Event busy =
      machine.device(0).comm_stream().enqueue(cheap_task(nullptr, 9e9));

  auto group = std::make_shared<CollectiveGroup>(2);
  group->duration = 1e-3;

  TaskDesc part0;
  part0.collective = group;
  part0.collective_executor = true;
  part0.waits.push_back(busy);
  TaskDesc part1;
  part1.collective = group;

  Event e1 = machine.device(1).comm_stream().enqueue(std::move(part1));
  Event e0 = machine.device(0).comm_stream().enqueue(std::move(part0));
  EXPECT_NEAR(e0.wait(), e1.wait(), 1e-12);
  EXPECT_GT(e1.wait(), 10e-3);
}

}  // namespace
}  // namespace mggcn::sim
