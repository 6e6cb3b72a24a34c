#include "sim/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "util/format.hpp"

namespace mggcn::sim {

const char* task_kind_name(TaskKind kind) {
  switch (kind) {
    case TaskKind::kSpMM: return "SpMM";
    case TaskKind::kGeMM: return "GeMM";
    case TaskKind::kActivation: return "Activation";
    case TaskKind::kLoss: return "Loss-Layer";
    case TaskKind::kOptimizer: return "Adam";
    case TaskKind::kComm: return "Comm";
    case TaskKind::kMemory: return "Memory";
    case TaskKind::kInspect: return "Inspect";
    case TaskKind::kSample: return "Sample";
    case TaskKind::kOther: return "Other";
  }
  return "?";
}

const char* fault_event_kind_name(FaultEventKind kind) {
  switch (kind) {
    case FaultEventKind::kDeviceFailure: return "device-failure";
    case FaultEventKind::kTransientComm: return "transient-comm";
    case FaultEventKind::kCommRetry: return "comm-retry";
    case FaultEventKind::kLinkDegrade: return "link-degrade";
    case FaultEventKind::kRecovery: return "recovery";
  }
  return "?";
}

const char* hazard_kind_name(HazardKind kind) {
  switch (kind) {
    case HazardKind::kReadAfterWrite: return "read-after-write";
    case HazardKind::kWriteAfterWrite: return "write-after-write";
    case HazardKind::kWriteAfterRead: return "write-after-read";
  }
  return "?";
}

void Trace::record(TraceRecord rec) {
  std::lock_guard lock(mutex_);
  const double begin = rec.t_begin;
  records_.push_back(std::move(rec));
  begin_prefix_max_.push_back(begin_prefix_max_.empty()
                                  ? begin
                                  : std::max(begin_prefix_max_.back(), begin));
}

void Trace::record_fault(FaultRecord rec) {
  std::lock_guard lock(mutex_);
  fault_records_.push_back(std::move(rec));
}

void Trace::record_hazard(HazardRecord rec) {
  std::lock_guard lock(mutex_);
  hazard_records_.push_back(std::move(rec));
}

void Trace::record_comm_volume(const CommVolume& delta) {
  std::lock_guard lock(mutex_);
  comm_volume_ += delta;
}

CommVolume Trace::comm_volume() const {
  std::lock_guard lock(mutex_);
  return comm_volume_;
}

void Trace::record_plan(const PlanCounters& delta) {
  std::lock_guard lock(mutex_);
  plan_counters_ += delta;
}

PlanCounters Trace::plan_counters() const {
  std::lock_guard lock(mutex_);
  return plan_counters_;
}

void Trace::record_pipeline(const PipelineCounters& delta) {
  std::lock_guard lock(mutex_);
  pipeline_counters_ += delta;
}

PipelineCounters Trace::pipeline_counters() const {
  std::lock_guard lock(mutex_);
  return pipeline_counters_;
}

void Trace::record_serve(const ServeCounters& delta) {
  std::lock_guard lock(mutex_);
  serve_counters_ += delta;
}

ServeCounters Trace::serve_counters() const {
  std::lock_guard lock(mutex_);
  return serve_counters_;
}

void Trace::record_pool(const PoolCounters& delta) {
  std::lock_guard lock(mutex_);
  pool_counters_ += delta;
}

PoolCounters Trace::pool_counters() const {
  std::lock_guard lock(mutex_);
  return pool_counters_;
}

void Trace::clear() {
  std::lock_guard lock(mutex_);
  records_.clear();
  begin_prefix_max_.clear();
  fault_records_.clear();
  hazard_records_.clear();
  comm_volume_ = CommVolume{};
  plan_counters_ = PlanCounters{};
  pipeline_counters_ = PipelineCounters{};
  serve_counters_ = ServeCounters{};
  pool_counters_ = PoolCounters{};
}

std::vector<HazardRecord> Trace::hazard_records() const {
  std::lock_guard lock(mutex_);
  return hazard_records_;
}

std::size_t Trace::hazard_count() const {
  std::lock_guard lock(mutex_);
  return hazard_records_.size();
}

std::vector<FaultRecord> Trace::fault_records() const {
  std::lock_guard lock(mutex_);
  return fault_records_;
}

std::size_t Trace::fault_count(FaultEventKind kind, int epoch) const {
  std::lock_guard lock(mutex_);
  std::size_t count = 0;
  for (const auto& rec : fault_records_) {
    if (rec.kind == kind && (epoch < 0 || rec.epoch == epoch)) ++count;
  }
  return count;
}

std::vector<TraceRecord> Trace::records() const {
  std::lock_guard lock(mutex_);
  return records_;
}

std::size_t Trace::first_record_since(double since) const {
  return static_cast<std::size_t>(
      std::lower_bound(begin_prefix_max_.begin(), begin_prefix_max_.end(),
                       since) -
      begin_prefix_max_.begin());
}

std::map<TaskKind, double> Trace::busy_by_kind(double since) const {
  std::lock_guard lock(mutex_);
  std::map<TaskKind, double> out;
  for (std::size_t i = first_record_since(since); i < records_.size(); ++i) {
    const TraceRecord& rec = records_[i];
    if (rec.t_begin < since) continue;
    out[rec.kind] += rec.duration();
  }
  return out;
}

std::vector<TraceRecord> Trace::device_records(int device, double since) const {
  std::lock_guard lock(mutex_);
  std::vector<TraceRecord> out;
  for (std::size_t i = first_record_since(since); i < records_.size(); ++i) {
    const TraceRecord& rec = records_[i];
    if (rec.device == device && rec.t_begin >= since) out.push_back(rec);
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.t_begin < b.t_begin;
  });
  return out;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char ch : s) {
    const auto c = static_cast<unsigned char>(ch);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

void Trace::export_chrome_json(const std::string& path) const {
  std::ofstream os(path, std::ios::trunc);
  if (!os.is_open()) return;
  os << "[\n";
  bool first = true;
  for (const auto& rec : records()) {
    if (!first) os << ",\n";
    first = false;
    os << "  {\"name\": \"" << json_escape(rec.label) << "\", \"cat\": \""
       << json_escape(task_kind_name(rec.kind))
       << "\", \"ph\": \"X\", \"pid\": " << rec.device
       << ", \"tid\": " << rec.stream << ", \"ts\": " << rec.t_begin * 1e6
       << ", \"dur\": " << rec.duration() * 1e6;
    if (rec.stage >= 0) {
      os << ", \"args\": {\"stage\": " << rec.stage << '}';
    }
    os << '}';
  }
  os << "\n]\n";
}

std::string Trace::render_timeline(double t0, double t1, int width) const {
  std::vector<TraceRecord> recs = records();
  std::sort(recs.begin(), recs.end(), [](const auto& a, const auto& b) {
    return std::tie(a.device, a.stream, a.t_begin) <
           std::tie(b.device, b.stream, b.t_begin);
  });

  int max_device = -1;
  int max_stream = 0;
  for (const auto& r : recs) {
    max_device = std::max(max_device, r.device);
    max_stream = std::max(max_stream, r.stream);
  }
  if (max_device < 0 || t1 <= t0) return "(empty trace)\n";

  const double span = t1 - t0;
  std::ostringstream os;
  os << "timeline [" << util::format_seconds(t0) << ", "
     << util::format_seconds(t1) << "], '#'=compute, '='=comm, digits=stage\n";
  for (int dev = 0; dev <= max_device; ++dev) {
    for (int stream = 0; stream <= max_stream; ++stream) {
      std::string row(width, '.');
      bool any = false;
      for (const auto& r : recs) {
        if (r.device != dev || r.stream != stream) continue;
        if (r.t_end <= t0 || r.t_begin >= t1) continue;
        any = true;
        const int b = std::clamp(
            static_cast<int>((r.t_begin - t0) / span * width), 0, width - 1);
        const int e = std::clamp(
            static_cast<int>((r.t_end - t0) / span * width), b + 1, width);
        const char fill = r.kind == TaskKind::kComm ? '=' : '#';
        for (int i = b; i < e; ++i) row[i] = fill;
        if (r.stage >= 0 && r.stage <= 9) {
          row[b] = static_cast<char>('0' + r.stage);
        }
      }
      if (!any && stream > 0) continue;
      os << "GPU " << dev << " s" << stream << " |" << row << "|\n";
    }
  }
  return os.str();
}

}  // namespace mggcn::sim
