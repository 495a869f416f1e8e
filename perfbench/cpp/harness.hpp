#pragma once
// Shared plumbing of the benchmark binary: options, the result record every
// workload fills, wall-clock spans kept in memory, and the small statistics
// the end-to-end metrics need.

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mvcom::obs {
class MetricsRegistry;
}  // namespace mvcom::obs

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
[[nodiscard]] inline double ms_since(Clock::time_point a) {
  return ms_between(a, Clock::now());
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Small inputs for the self-test: same code paths, a fraction of the work.
  bool tiny = false;
  /// Directory for the run's files (checkpoints, exports, spans).
  std::string out_dir = ".";
};

/// Everything one run reports. Metrics are printed by name with their unit;
/// `info` carries exact counts, digests and the tail percentile used.
class Outcome {
 public:
  void metric(std::string name, double value, std::string unit);
  void info(std::string key, double value);
  void info(std::string key, std::uint64_t value);
  void info(std::string key, std::string_view value);
  void info_hex(std::string key, std::uint64_t value);

  /// An output check: a failure marks the run incorrect and is reported on
  /// stderr and in `info`.
  void check(bool ok, std::string_view what);
  /// Counts one attempted op; `ok == false` counts it failed.
  void op(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }

  [[nodiscard]] bool correct() const noexcept { return correct_; }
  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }

  /// One JSON object: correct, attempted, failed, metrics, info.
  [[nodiscard]] std::string to_json() const;

 private:
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> metrics_;  // rendered "name": {...} members
  std::vector<std::string> info_;     // rendered "key": value members
  std::vector<std::string> failures_;
};

/// Wall-clock spans around calls into the layers, kept in memory and written
/// as Chrome trace-event JSON when the run ends. Thread-safe.
class SpanLog {
 public:
  /// Records [start, end) and returns the span's id. `parent` is the id of
  /// the span that caused it (0 for none); `op` groups the spans of one op.
  std::uint64_t record(std::string_view name, std::uint64_t parent,
                       std::uint64_t op, Clock::time_point start,
                       Clock::time_point end);
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] bool write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::uint64_t op = 0;
    Clock::time_point start;
    Clock::time_point end;
  };
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
  Clock::time_point origin_ = Clock::now();
};

[[nodiscard]] double median(std::vector<double> values);
[[nodiscard]] double mean(const std::vector<double>& values);

/// Writes the run's spans to <out_dir>/spans-<workload>-<seed>.json.
void write_spans(const Options& options, const SpanLog& spans, Outcome& out);

/// Peak resident memory of this process per window of work (a session or
/// an op), in MB. Each window resets the kernel's high-water mark, so one
/// window's transient peak does not hide the others; the metric is the
/// median over windows.
class RssWindows {
 public:
  void begin();
  void end();
  [[nodiscard]] double median_mb() const { return median(peaks_mb_); }

 private:
  std::vector<double> peaks_mb_;
};

/// What the ops delivered to users of the chain, for the quality metrics.
struct Delivered {
  std::uint64_t timed_committed_txs = 0;  // committed by the timed loop
  // Exact functions of the seed, from the reference runs:
  double age_tx_seconds = 0.0;      // Σ over committed TXs of their age
  std::uint64_t committed_txs = 0;  // the TXs that sum is over
  std::uint64_t offered_txs = 0;    // TXs that could have been committed
};

/// Reports every end-to-end metric but setup_s. `op_keys[i]` names the
/// distinct piece of work op i ran; ops that repeat one piece are folded to
/// their median before the tail is taken, so the ten samples beyond it are
/// ten different pieces of work. The tail percentile and sample counts go
/// to `info`.
void add_end_to_end(Outcome& out, const std::vector<double>& op_ms,
                    const std::vector<std::size_t>& op_keys, double wall_s,
                    const RssWindows& rss, const Delivered& delivered);

/// obs.trace_overhead_frac: the share of untraced throughput the traced
/// loop lost.
void add_trace_overhead(Outcome& out, std::size_t untraced_ops,
                        double untraced_wall_s, std::size_t traced_ops,
                        double traced_wall_s);

/// Sum of every series of counter `name` (all label sets).
[[nodiscard]] double counter_total(const mvcom::obs::MetricsRegistry& metrics,
                                   std::string_view name);

/// Set-up repetitions per run; setup_s is their median.
inline constexpr std::size_t kSetupReps = 3;

/// Runs `build` kSetupReps times, reports the median as setup_s (a metric
/// of the untraced run, an info field of the traced one), checks that every
/// repetition produced the same fingerprint, and returns the last
/// repetition's inputs.
template <class Build>
auto repeated_setup(const Options& options, Outcome& out, Build build) {
  std::vector<double> seconds;
  const auto first_t0 = Clock::now();
  auto inputs = build();
  seconds.push_back(ms_since(first_t0) / 1000.0);
  const std::uint64_t fingerprint = inputs.fingerprint;
  for (std::size_t rep = 1; rep < kSetupReps; ++rep) {
    const auto t0 = Clock::now();
    inputs = build();
    seconds.push_back(ms_since(t0) / 1000.0);
    out.check(inputs.fingerprint == fingerprint,
              "set-up is not deterministic across repetitions");
  }
  if (options.trace) {
    out.info("setup_s", median(seconds));
  } else {
    out.metric("setup_s", median(seconds), "s");
  }
  out.info_hex("setup_fingerprint", fingerprint);
  return inputs;
}

// One entry point per workload (see README.md for what each measures).
void run_serve(const Options& options, Outcome& out);
void run_des_faults(const Options& options, Outcome& out);
void run_fabric_faults(const Options& options, Outcome& out);
void run_se_solve(const Options& options, Outcome& out);

}  // namespace perfbench
