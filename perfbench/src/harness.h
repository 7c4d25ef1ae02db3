#ifndef FEDREC_PERFBENCH_HARNESS_H_
#define FEDREC_PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

/// \file
/// Shared pieces of the repo benchmark: run options, the sample buffer that
/// turns per-round timings into medians and tails, the in-memory span log of
/// the traced run, the report that prints every metric by name and unit and
/// ends stdout with the one-line JSON result, and the global allocation
/// counter (alloc_counter.cc). Every timing here is taken from outside the
/// program, around a call into one of its public functions.

namespace perfbench {

/// Worker threads of the program's ThreadPool in every in-process workload.
/// Fixed rather than taken from the host: FedRecAttack splits its poisoned
/// gradient into one partial sum per pool thread, so the pool size is part
/// of the computed result the correctness goldens pin.
inline constexpr std::size_t kPoolThreads = 4;

/// The seed whose outputs are pinned by recorded goldens.
inline constexpr std::uint64_t kDefaultSeed = 1;

/// Set-ups per run before the measured window; set-up time is their median.
inline constexpr int kSetups = 5;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< Chrome trace path (traced runs)
  std::string rev;        ///< source revision, recorded in the context line
};

inline std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double NsToUs(std::uint64_t ns) { return static_cast<double>(ns) * 1e-3; }
inline double NsToMs(std::uint64_t ns) { return static_cast<double>(ns) * 1e-6; }
inline double NsToS(std::uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// CPU time used by all threads of this process, ns. With paravirtual
/// steal accounting the kernel leaves time stolen by the hypervisor out.
std::uint64_t ProcessCpuNs();

/// Global operator new calls since process start (alloc_counter.cc).
std::uint64_t AllocCount();
/// High-water mark of bytes live on the heap through operator new since the
/// last ResetPeakHeap() (or process start), MB.
double PeakHeapMb();
void ResetPeakHeap();

/// Peak resident set of this process, MB.
double PeakRssMb();

/// CPU ticks of the whole host since boot (first line of /proc/stat): the
/// ticks a hypervisor stole from this virtual machine, and all ticks.
struct HostTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
HostTicks ReadHostTicks();
/// Share of the host's CPU time stolen between two readings, percent.
double StealPercent(const HostTicks& begin, const HostTicks& end);

/// Growable sample buffer; percentiles are nearest-rank.
class Samples {
 public:
  void Reserve(std::size_t n) { values_.reserve(n); }
  void Add(double value) { values_.push_back(value); }
  std::size_t size() const { return values_.size(); }
  double Percentile(double q) const;
  double Median() const { return Percentile(50.0); }

 private:
  std::vector<double> values_;
};

/// FNV-1a over the bytes of a float array: the model digest the
/// correctness checks compare.
std::uint64_t Digest(std::span<const float> values);
std::string HexDigest(std::uint64_t digest);

/// One traced span. `name` is a string literal; `parent` indexes the span
/// log (-1 for a root); `round` is the shared id of every span of a round.
struct Span {
  const char* name = nullptr;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int32_t parent = -1;
  std::uint32_t round = 0;
  std::uint32_t tid = 0;
  std::uint64_t allocs = 0;  ///< operator new calls, any thread, in the span
};

/// Preallocated in-memory span log, written by one thread. Spans past the
/// capacity are counted, not stored.
class SpanLog {
 public:
  explicit SpanLog(std::size_t capacity);

  /// Opens a span under the innermost open one; returns its index (-1 when
  /// the log is full).
  int Begin(const char* name, std::uint32_t round);
  void End(int index);
  /// Appends a finished span recorded elsewhere (another thread's buffer).
  void Append(const Span& span);

  std::span<const Span> spans() const { return {spans_.data(), size_}; }
  std::size_t dropped() const { return dropped_; }

  /// Sum of durations of the spans called `name`, ns.
  std::uint64_t TotalNs(const char* name) const;
  /// Sum over spans called `name` of their self time (duration minus the
  /// time their direct children cover), ns.
  std::uint64_t SelfNs(const char* name) const;
  /// Allocations inside the spans called `name`.
  std::uint64_t Allocs(const char* name) const;

  /// Writes the spans as Chrome trace_event JSON (`ph:"X"`, args carry the
  /// round id and the parent's name), followed by `extra_events` — the body
  /// of another traceEvents array (the program's own obs::TraceRing spans).
  bool WriteChromeTrace(const std::string& path,
                        const std::string& extra_events) const;

 private:
  std::vector<Span> spans_;
  std::size_t size_ = 0;
  std::size_t dropped_ = 0;
  std::vector<int> open_;
};

/// RAII span over a SpanLog that may be null (untraced path: no-op).
class Scoped {
 public:
  Scoped(SpanLog* log, const char* name, std::uint32_t round)
      : log_(log), index_(log != nullptr ? log->Begin(name, round) : -1) {}
  ~Scoped() {
    if (log_ != nullptr) log_->End(index_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanLog* log_;
  int index_;
};

/// A named metric and its unit. kEndToEnd and kPerLayer list every metric
/// the benchmark reports, in output order; BENCHMARK.json names the same.
struct MetricDef {
  const char* name;
  const char* unit;
};
extern const std::span<const MetricDef> kEndToEnd;
extern const std::span<const MetricDef> kPerLayer;

/// Metrics of one run. Emit() prints a table (name, value, unit, samples),
/// the failed checks, and as the last line of stdout the JSON result:
/// every kEndToEnd metric in untraced runs, every kPerLayer metric in
/// traced ones. A metric a workload does not exercise reads 0.
class Report {
 public:
  explicit Report(const Options& options) : options_(options) {}

  /// Sets a kEndToEnd or kPerLayer metric by name (aborts on an unknown one).
  void Set(const char* name, double value, std::size_t samples);
  /// Workload-specific figure shown in the table only (not a gated metric).
  void Info(const char* name, double value, const char* unit,
            std::size_t samples);
  /// A kPerLayer metric that untraced runs also show, as an info row.
  void WallClock(const char* name, double value, std::size_t samples);

  /// Records a correctness check; a false `ok` fails the run.
  void Check(bool ok, const std::string& what);
  void CountOps(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  /// Prints everything; returns the process exit code (0 iff every check
  /// passed).
  int Emit() const;

 private:
  struct Value {
    double value = 0.0;
    std::size_t samples = 0;
  };
  struct InfoEntry {
    std::string name;
    double value;
    const char* unit;
    std::size_t samples;
  };
  const Options& options_;
  std::vector<Value> end_to_end_ = std::vector<Value>(kEndToEnd.size());
  std::vector<Value> per_layer_ = std::vector<Value>(kPerLayer.size());
  std::vector<InfoEntry> info_;
  std::vector<std::string> failures_;
  std::size_t checks_ = 0;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Prints the share of round wall time no stage span covers against the
/// ROADMAP's target of at most 10%.
void PrintReconciliation(double unattributed_share);

/// Prints the run-context line (host, build, source revision, seed).
void PrintContext(const Options& options, std::size_t pool_threads);

int RunAttackMl100k(const Options& options);
int RunDefendedCatalogue(const Options& options);
int RunSocketFleet(const Options& options);

}  // namespace perfbench

#endif  // FEDREC_PERFBENCH_HARNESS_H_
