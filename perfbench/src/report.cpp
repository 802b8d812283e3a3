#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"

namespace fs2::perfbench {

namespace {

double clock_s(clockid_t id) {
  timespec ts{};
  ::clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
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

std::string json_number(double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

}  // namespace

double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }

double thread_cpu_s(pthread_t thread) {
  clockid_t id{};
  if (::pthread_getcpuclockid(thread, &id) != 0) return 0.0;
  return clock_s(id);
}

std::vector<int> last_cpus(std::size_t n) {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) != 0) throw std::runtime_error("sched_getaffinity failed");
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  if (cpus.size() < n) throw std::runtime_error("this workload needs " + std::to_string(n) + " CPUs");
  return {cpus.end() - static_cast<std::ptrdiff_t>(n), cpus.end()};
}

CpuPin::CpuPin() { ::sched_getaffinity(0, sizeof saved_, &saved_); }
CpuPin::~CpuPin() { ::sched_setaffinity(0, sizeof saved_, &saved_); }

void CpuPin::to(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  if (::sched_setaffinity(0, sizeof set, &set) != 0) throw std::runtime_error("sched_setaffinity failed");
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void Report::add(const std::string& name, const std::string& unit, double value) {
  if (!std::isfinite(value)) {
    check(false, "metric " + name + " is not finite");
    return;
  }
  Series& series = series_[name];
  series.unit = unit;
  series.samples.push_back(value);
}

void Report::absorb_probe(const Report& probe) {
  for (const auto& [name, series] : probe.series_) series_.try_emplace(name, series);
  for (const auto& [key, value] : probe.facts_) facts_.try_emplace("probe." + key, value);
  attempted_ += probe.attempted_;
  failed_ += probe.failed_;
  for (const std::string& failure : probe.failures_)
    if (failures_.size() < 8) failures_.push_back(failure);
}

void Report::check(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failures_.size() < 8) failures_.push_back(what);
}

std::string Report::to_json(const std::string& workload) const {
  std::ostringstream out;
  out << "{\"workload\": " << json_string(workload) << ", \"attempted\": " << attempted_
      << ", \"failed\": " << failed_ << ", \"failures\": [";
  for (std::size_t i = 0; i < failures_.size(); ++i)
    out << (i ? ", " : "") << json_string(failures_[i]);
  out << "], \"facts\": {";
  bool first = true;
  for (const auto& [key, value] : facts_) {
    out << (first ? "" : ", ") << json_string(key) << ": " << json_string(value);
    first = false;
  }
  out << "}, \"series\": {";
  first = true;
  for (const auto& [name, series] : series_) {
    out << (first ? "" : ", ") << json_string(name) << ": {\"unit\": "
        << json_string(series.unit) << ", \"samples\": [";
    for (std::size_t i = 0; i < series.samples.size(); ++i)
      out << (i ? ", " : "") << json_number(series.samples[i]);
    out << "]}";
    first = false;
  }
  out << "}}";
  return out.str();
}

SpanLog::Scope::Scope(SpanLog* log, const char* name) : log_(log) {
  if (log_ == nullptr) return;
  index_ = static_cast<int>(log_->spans_.size());
  saved_open_ = log_->open_;
  log_->spans_.push_back(Span{name, log_->open_, seconds_since(log_->t0_), 0.0});
  log_->open_ = index_;
}

SpanLog::Scope::~Scope() {
  if (log_ == nullptr) return;
  log_->spans_[static_cast<std::size_t>(index_)].end_s = seconds_since(log_->t0_);
  log_->open_ = saved_open_;
}

std::vector<double> SpanLog::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_)
    if (span.name == name) out.push_back(span.end_s - span.begin_s);
  return out;
}

std::vector<double> SpanLog::self_times(const std::string& name) const {
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const Span& span : spans_)
    if (span.parent >= 0) child_s[static_cast<std::size_t>(span.parent)] += span.end_s - span.begin_s;
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].name == name) out.push_back(spans_[i].end_s - spans_[i].begin_s - child_s[i]);
  return out;
}

void SpanLog::write_json(const std::string& path) const {
  std::ofstream out(path);
  out << "{\"traceEvents\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << (i ? ",\n" : "\n") << "{\"name\": " << json_string(span.name)
        << ", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": " << json_number(span.begin_s * 1e6)
        << ", \"dur\": " << json_number((span.end_s - span.begin_s) * 1e6)
        << ", \"args\": {\"id\": " << i << ", \"parent\": " << span.parent << "}}";
  }
  out << "\n]}\n";
}

}  // namespace fs2::perfbench
