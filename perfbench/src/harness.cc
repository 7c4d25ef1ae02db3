#include "harness.h"

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string_view>

namespace perfbench {

std::uint64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

HostTicks ReadHostTicks() {
  HostTicks ticks;
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  // user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8 && in; ++field) {
    std::uint64_t value = 0;
    in >> value;
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

double StealPercent(const HostTicks& begin, const HostTicks& end) {
  const std::uint64_t total = end.total - begin.total;
  return total == 0 ? 0.0
                    : 100.0 * static_cast<double>(end.steal - begin.steal) /
                          static_cast<double>(total);
}

double Samples::Percentile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const auto n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(q / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

std::uint64_t Digest(std::span<const float> values) {
  std::uint64_t hash = 1469598103934665603ULL;
  const auto* bytes = reinterpret_cast<const unsigned char*>(values.data());
  for (std::size_t i = 0; i < values.size_bytes(); ++i) {
    hash = (hash ^ bytes[i]) * 1099511628211ULL;
  }
  return hash;
}

std::string HexDigest(std::uint64_t digest) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(digest));
  return buffer;
}

SpanLog::SpanLog(std::size_t capacity) : spans_(capacity) {
  open_.reserve(16);
}

int SpanLog::Begin(const char* name, std::uint32_t round) {
  if (size_ == spans_.size()) {
    ++dropped_;
    open_.push_back(-1);
    return -1;
  }
  Span& span = spans_[size_];
  span.name = name;
  span.round = round;
  span.tid = 0;
  span.parent = -1;
  for (auto it = open_.rbegin(); it != open_.rend(); ++it) {
    if (*it >= 0) {
      span.parent = *it;
      break;
    }
  }
  const int index = static_cast<int>(size_++);
  open_.push_back(index);
  span.allocs = AllocCount();
  span.start_ns = NowNs();
  return index;
}

void SpanLog::End(int index) {
  const std::uint64_t now = NowNs();
  if (index >= 0) {
    Span& span = spans_[static_cast<std::size_t>(index)];
    span.end_ns = now;
    span.allocs = AllocCount() - span.allocs;
  }
  if (!open_.empty()) open_.pop_back();
}

void SpanLog::Append(const Span& span) {
  if (size_ == spans_.size()) {
    ++dropped_;
    return;
  }
  spans_[size_++] = span;
}

std::uint64_t SpanLog::TotalNs(const char* name) const {
  const std::string_view wanted(name);
  std::uint64_t total = 0;
  for (const Span& span : spans()) {
    if (wanted == span.name) total += span.end_ns - span.start_ns;
  }
  return total;
}

std::uint64_t SpanLog::SelfNs(const char* name) const {
  const std::string_view wanted(name);
  std::vector<std::uint64_t> child_ns(size_, 0);
  for (const Span& span : spans()) {
    if (span.parent >= 0) {
      child_ns[static_cast<std::size_t>(span.parent)] +=
          span.end_ns - span.start_ns;
    }
  }
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < size_; ++i) {
    const Span& span = spans_[i];
    if (wanted == span.name) total += span.end_ns - span.start_ns - child_ns[i];
  }
  return total;
}

std::uint64_t SpanLog::Allocs(const char* name) const {
  const std::string_view wanted(name);
  std::uint64_t total = 0;
  for (const Span& span : spans()) {
    if (wanted == span.name) total += span.allocs;
  }
  return total;
}

bool SpanLog::WriteChromeTrace(const std::string& path,
                               const std::string& extra_events) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  bool first = true;
  char line[512];
  for (const Span& span : spans()) {
    const char* parent =
        span.parent >= 0 ? spans_[static_cast<std::size_t>(span.parent)].name
                         : "";
    // Chrome trace timestamps are microseconds; keep the ns digits.
    std::snprintf(line, sizeof(line),
                  "%s{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                  "\"pid\":2,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"round\":%u,\"parent\":\"%s\","
                  "\"allocs\":%llu}}",
                  first ? "" : ",", span.name, span.tid,
                  static_cast<double>(span.start_ns) * 1e-3,
                  static_cast<double>(span.end_ns - span.start_ns) * 1e-3,
                  span.round, parent,
                  static_cast<unsigned long long>(span.allocs));
    out << line;
    first = false;
  }
  if (!extra_events.empty()) {
    if (!first) out << ',';
    out << extra_events;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

namespace {

constexpr MetricDef kEndToEndDefs[] = {
    {"setup_s", "s"},
    {"round_cpu_ms", "ms"},
    {"peak_heap_mb", "MB"},
};

constexpr MetricDef kPerLayerDefs[] = {
    {"rounds_per_s", "rounds/s"},
    {"round_p50_ms", "ms"},
    {"round_p99_ms", "ms"},
    {"data.generate_s", "s"},
    {"data.split_s", "s"},
    {"data.public_view_s", "s"},
    {"attack.create_s", "s"},
    {"attack.produce_us", "us"},
    {"attack.malicious_uploads", "count/round"},
    {"attack.round_share", "ratio"},
    {"fed.select_us", "us"},
    {"fed.local_train_us", "us"},
    {"fed.benign_uploads", "count/round"},
    {"fed.upload_rows", "rows/upload"},
    {"fed.aggregate_us", "us"},
    {"fed.delta_rows", "rows/round"},
    {"model.apply_us", "us"},
    {"model.eval_us", "us"},
    {"model.evaluator_init_s", "s"},
    {"shard.route_us", "us"},
    {"shard.aggregate_us", "us"},
    {"shard.slowest_aggregate_us", "us"},
    {"shard.aggregate_imbalance", "ratio"},
    {"shard.merge_us", "us"},
    {"shard.wire_bytes", "B/round"},
    {"shard.exec_us", "us"},
    {"shard.exec_sum_us", "us"},
    {"shard.exec_max_us", "us"},
    {"shard.exec_calls", "count/round"},
    {"shard.exec_failures", "count"},
    {"service.route_us", "us"},
    {"service.merge_us", "us"},
    {"service.apply_us", "us"},
    {"service.client_plane_us", "us"},
    {"net.upload_bytes", "B/round"},
    {"service.rejected_uploads", "count"},
    {"service.shed_frames", "count"},
    {"process.allocs_per_round", "count/round"},
    {"process.unattributed_share", "ratio"},
    {"trace.overhead_share", "ratio"},
    {"eval_s", "s"},
    {"upload_ack_p50_ms", "ms"},
    {"upload_ack_p99_ms", "ms"},
    {"upload_fail_ratio", "ratio"},
};

int FindMetric(std::span<const MetricDef> defs, std::string_view name) {
  for (std::size_t i = 0; i < defs.size(); ++i) {
    if (name == defs[i].name) return static_cast<int>(i);
  }
  return -1;
}

void PrintRow(const char* name, double value, const char* unit,
              std::size_t samples, const char* kind) {
  std::printf("%-28s %18.6f  %-12s %8zu  %s\n", name, value, unit, samples,
              kind);
}

void AppendJsonMetrics(std::span<const MetricDef> defs,
                       const std::vector<double>& values, std::string& json) {
  char value[64];
  for (std::size_t i = 0; i < defs.size(); ++i) {
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(values[i]) ? values[i] : 0.0);
    if (i > 0) json += ", ";
    json += "\"";
    json += defs[i].name;
    json += "\": {\"value\": ";
    json += value;
    json += ", \"unit\": \"";
    json += defs[i].unit;
    json += "\"}";
  }
}

}  // namespace

const std::span<const MetricDef> kEndToEnd(kEndToEndDefs);
const std::span<const MetricDef> kPerLayer(kPerLayerDefs);

void Report::Set(const char* name, double value, std::size_t samples) {
  if (const int i = FindMetric(kEndToEnd, name); i >= 0) {
    end_to_end_[static_cast<std::size_t>(i)] = {value, samples};
    return;
  }
  const int i = FindMetric(kPerLayer, name);
  if (i < 0) {
    std::fprintf(stderr, "perfbench: unknown metric %s\n", name);
    std::abort();
  }
  per_layer_[static_cast<std::size_t>(i)] = {value, samples};
}

void Report::Info(const char* name, double value, const char* unit,
                  std::size_t samples) {
  info_.push_back({name, value, unit, samples});
}

void Report::WallClock(const char* name, double value, std::size_t samples) {
  Set(name, value, samples);
  const int i = FindMetric(kPerLayer, name);
  Info(name, value, kPerLayer[static_cast<std::size_t>(i)].unit, samples);
}

void Report::Check(bool ok, const std::string& what) {
  ++checks_;
  if (!ok) failures_.push_back(what);
}

int Report::Emit() const {
  std::printf("%-28s %18s  %-12s %8s  %s\n", "metric", "value", "unit",
              "samples", "kind");
  std::vector<std::string> failures = failures_;
  std::vector<double> values;
  const auto emit = [&](std::span<const MetricDef> defs,
                        const std::vector<Value>& set, const char* kind) {
    values.clear();
    for (std::size_t i = 0; i < defs.size(); ++i) {
      PrintRow(defs[i].name, set[i].value, defs[i].unit, set[i].samples, kind);
      if (!std::isfinite(set[i].value)) {
        failures.push_back(std::string("metric ") + defs[i].name +
                           " is not finite");
      }
      values.push_back(set[i].value);
    }
  };
  emit(kEndToEnd, end_to_end_, "end-to-end");
  std::vector<double> end_to_end_values = values;
  if (options_.trace) emit(kPerLayer, per_layer_, "layer");
  // Info rows are the untraced window's figures; a traced run reports
  // them as per-layer metrics instead.
  if (!options_.trace) {
    for (const InfoEntry& entry : info_) {
      PrintRow(entry.name.c_str(), entry.value, entry.unit, entry.samples,
               "info");
    }
  }
  std::printf("checks: %zu run, %zu failed\n", checks_, failures.size());
  for (const std::string& failure : failures) {
    std::printf("CHECK FAILED: %s\n", failure.c_str());
    std::fprintf(stderr, "CHECK FAILED: %s\n", failure.c_str());
  }
  const bool correct = failures.empty();
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  if (options_.trace) {
    AppendJsonMetrics(kPerLayer, values, json);
  } else {
    AppendJsonMetrics(kEndToEnd, end_to_end_values, json);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t begin = colon + 1;
        while (begin < line.size() && line[begin] == ' ') ++begin;
        return line.substr(begin);
      }
    }
  }
  return "unknown";
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

}  // namespace

void PrintReconciliation(double unattributed_share) {
  std::printf("reconciliation: %.2f%% of round wall time is unattributed "
              "(target <= 10%%): %s\n",
              unattributed_share * 100.0,
              unattributed_share <= 0.10 ? "within target" : "over target");
}

void PrintContext(const Options& options, std::size_t pool_threads) {
  std::printf(
      "context {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"nproc\": %ld, \"pool_threads\": %zu, \"cpu\": \"%s\", "
      "\"compiler\": \"%s\", \"cxx_flags\": \"%s\", \"build_type\": \"%s\", "
      "\"rev\": \"%s\"}\n",
      options.workload.c_str(), static_cast<unsigned long long>(options.seed),
      options.seconds, options.trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN),
      pool_threads, JsonEscape(CpuModel()).c_str(), PERFBENCH_COMPILER,
      JsonEscape(PERFBENCH_CXX_FLAGS).c_str(), PERFBENCH_BUILD_TYPE,
      JsonEscape(options.rev).c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
