#include "harness.hpp"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>

#include "obs/metrics.hpp"

namespace perfbench {
namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string join(const std::vector<std::string>& members) {
  std::string out = "{";
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (i > 0) out += ", ";
    out += members[i];
  }
  return out + "}";
}

/// The highest order statistic with at least ten samples beyond it (the
/// 11th largest), and the percentile it stands for. With ten or fewer
/// samples it falls back to the maximum.
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
};

Tail tail_of(std::vector<double> values) {
  Tail tail;
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n <= 10) {
    tail.value = values.back();
    return tail;
  }
  tail.value = values[n - 11];
  tail.percentile =
      100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  return tail;
}

}  // namespace

void Outcome::metric(std::string name, double value, std::string unit) {
  if (!std::isfinite(value)) {
    check(false, "metric " + name + " is not finite");
    value = 0.0;
  }
  metrics_.push_back(json_string(name) + ": {\"value\": " + json_number(value) +
                     ", \"unit\": " + json_string(unit) + "}");
}

void Outcome::info(std::string key, double value) {
  info_.push_back(json_string(key) + ": " + json_number(value));
}

void Outcome::info(std::string key, std::uint64_t value) {
  info_.push_back(json_string(key) + ": " + std::to_string(value));
}

void Outcome::info(std::string key, std::string_view value) {
  info_.push_back(json_string(key) + ": " + json_string(value));
}

void Outcome::info_hex(std::string key, std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, value);
  info(std::move(key), std::string_view(buf));
}

void Outcome::check(bool ok, std::string_view what) {
  if (ok) return;
  correct_ = false;
  if (failures_.size() < 16) failures_.push_back(json_string(what));
  std::fprintf(stderr, "perfbench: check failed: %.*s\n",
               static_cast<int>(what.size()), what.data());
}

std::string Outcome::to_json() const {
  std::vector<std::string> info = info_;
  std::string failures = "[";
  for (std::size_t i = 0; i < failures_.size(); ++i) {
    if (i > 0) failures += ", ";
    failures += failures_[i];
  }
  info.push_back("\"failed_checks\": " + failures + "]");
  return "{\"correct\": " + std::string(correct_ ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted_) +
         ", \"failed\": " + std::to_string(failed_) +
         ", \"metrics\": " + join(metrics_) + ", \"info\": " + join(info) + "}";
}

std::uint64_t SpanLog::record(std::string_view name, std::uint64_t parent,
                              std::uint64_t op, Clock::time_point start,
                              Clock::time_point end) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t id = spans_.size() + 1;
  spans_.push_back(Span{std::string(name), id, parent, op, start, end});
  return id;
}

std::size_t SpanLog::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

bool SpanLog::write(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path, std::ios::trunc);
  out << "{\"traceEvents\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const auto us = [&](Clock::time_point t) {
      return std::chrono::duration<double, std::micro>(t - origin_).count();
    };
    const std::string layer = s.name.substr(0, s.name.find('.'));
    out << (i > 0 ? ",\n" : "\n") << "{\"name\": " << json_string(s.name)
        << ", \"cat\": " << json_string(layer)
        << ", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.op
        << ", \"ts\": " << json_number(us(s.start))
        << ", \"dur\": " << json_number(us(s.end) - us(s.start))
        << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"op\": " << s.op << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(mid),
                   values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(values.begin(), values.begin() + static_cast<long>(mid));
  return 0.5 * (lower + upper);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

void add_end_to_end(Outcome& out, const std::vector<double>& op_ms,
                    const std::vector<std::size_t>& op_keys, double wall_s,
                    const RssWindows& rss, const Delivered& delivered) {
  std::map<std::size_t, std::vector<double>> by_key;
  for (std::size_t i = 0; i < op_ms.size(); ++i) {
    by_key[op_keys.at(i)].push_back(op_ms[i]);
  }
  std::vector<double> distinct;
  for (auto& [key, times] : by_key) distinct.push_back(median(times));
  const Tail tail = tail_of(distinct);
  out.metric("ops_per_s", static_cast<double>(op_ms.size()) / wall_s, "1/s");
  out.metric("op_ms_p50", median(op_ms), "ms");
  out.metric("op_ms_tail", tail.value, "ms");
  out.info("op_samples", static_cast<std::uint64_t>(op_ms.size()));
  out.info("op_tail_samples", static_cast<std::uint64_t>(distinct.size()));
  out.info("op_ms_tail_percentile", tail.percentile);
  out.info("measured_wall_s", wall_s);

  out.metric("peak_rss_mb", rss.median_mb(), "MB");
  out.metric("ok_frac",
             1.0 - static_cast<double>(out.failed()) /
                       static_cast<double>(std::max<std::uint64_t>(
                           out.attempted(), 1)),
             "frac");
  out.metric("committed_tx_per_s",
             static_cast<double>(delivered.timed_committed_txs) / wall_s,
             "tx/s");
  out.metric("mean_tx_age_s",
             delivered.age_tx_seconds /
                 static_cast<double>(delivered.committed_txs),
             "s");
  out.metric("committed_frac",
             static_cast<double>(delivered.committed_txs) /
                 static_cast<double>(delivered.offered_txs),
             "frac");
}

void add_trace_overhead(Outcome& out, std::size_t untraced_ops,
                        double untraced_wall_s, std::size_t traced_ops,
                        double traced_wall_s) {
  const double untraced = static_cast<double>(untraced_ops) / untraced_wall_s;
  const double traced = static_cast<double>(traced_ops) / traced_wall_s;
  out.metric("obs.trace_overhead_frac", 1.0 - traced / untraced, "frac");
}

void write_spans(const Options& options, const SpanLog& spans, Outcome& out) {
  const std::filesystem::path dir(options.out_dir);
  std::filesystem::create_directories(dir);
  const auto path = dir / ("spans-" + options.workload + "-" +
                           std::to_string(options.seed) + ".json");
  out.check(spans.write(path.string()), "spans could not be written");
  out.info("spans", static_cast<std::uint64_t>(spans.size()));
}

void RssWindows::begin() {
  // Return freed heap pages first, so that what earlier windows left in the
  // allocator's arenas does not count toward this one.
  malloc_trim(0);
  // "5" resets VmHWM (Linux >= 4.0). Where it cannot be written the window
  // simply reports the process peak so far.
  std::ofstream("/proc/self/clear_refs") << "5";
}

void RssWindows::end() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      peaks_mb_.push_back(std::stod(line.substr(6)) / 1024.0);
      return;
    }
  }
  rusage self{};
  getrusage(RUSAGE_SELF, &self);
  peaks_mb_.push_back(static_cast<double>(self.ru_maxrss) / 1024.0);
}

double counter_total(const mvcom::obs::MetricsRegistry& metrics,
                     std::string_view name) {
  double total = 0.0;
  for (const auto& snap : metrics.snapshot()) {
    if (snap.name == name) total += snap.value;
  }
  return total;
}

}  // namespace perfbench
