#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "simd/dispatch.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index =
      static_cast<size_t>(std::clamp(rank, 1.0, double(values.size()))) - 1;
  return values[index];
}

double Sum(const std::vector<double>& values) {
  double total = 0;
  for (double v : values) total += v;
  return total;
}

shadoop::hdfs::HdfsConfig BenchHdfsConfig() {
  shadoop::hdfs::HdfsConfig config;
  config.block_size = 64 * 1024;
  config.num_datanodes = 25;
  return config;
}

shadoop::mapreduce::ClusterConfig BenchClusterConfig() {
  shadoop::mapreduce::ClusterConfig config;
  config.num_slots = 24;
  return config;
}

namespace {

uint64_t Fnv1a(std::string_view bytes) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

void RowDigest::Add(std::string_view row) {
  const uint64_t h = Fnv1a(row);
  ++count;
  sum += h;
  sum_sq += h * (h | 1);
}

std::string RowDigest::ToString() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "rows=%llu sum=%016llx",
                static_cast<unsigned long long>(count),
                static_cast<unsigned long long>(sum));
  return buf;
}

// ---------------------------------------------------------------------
// Tracer

int Tracer::Begin(std::string name, int stmt, int parent) {
  Span span;
  span.name = std::move(name);
  span.id = static_cast<int>(spans_.size());
  span.parent = parent;
  span.stmt = stmt;
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Tracer::End(int id) { spans_[static_cast<size_t>(id)].end_ns = NowNs(); }

int Tracer::AddDerived(std::string name, int stmt, int parent,
                       int64_t start_ns, int64_t end_ns) {
  const int id = Begin(std::move(name), stmt, parent);
  Span& span = spans_[static_cast<size_t>(id)];
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.derived = true;
  return id;
}

double Tracer::SelfMs(int id) const {
  const Span& span = spans_[static_cast<size_t>(id)];
  std::vector<std::pair<int64_t, int64_t>> covered;
  for (const Span& child : spans_) {
    if (child.parent != id) continue;
    covered.emplace_back(std::max(child.start_ns, span.start_ns),
                         std::min(child.end_ns, span.end_ns));
  }
  std::sort(covered.begin(), covered.end());
  int64_t covered_ns = 0;
  int64_t reach = span.start_ns;
  for (const auto& [start, end] : covered) {
    const int64_t from = std::max(start, reach);
    if (end > from) {
      covered_ns += end - from;
      reach = end;
    }
  }
  return NsToMs(span.end_ns - span.start_ns - covered_ns);
}

std::map<std::string, double> Tracer::SelfMsByModule() const {
  std::map<std::string, double> out;
  for (const Span& span : spans_) {
    const std::string module = span.name.substr(0, span.name.find('.'));
    out[module] += SelfMs(span.id);
  }
  return out;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), ec);
  std::ofstream file(path + ".tmp");
  if (!file) return false;
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  file << "{\"spans\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    file << "{\"id\": " << s.id << ", \"parent\": " << s.parent
         << ", \"stmt\": " << s.stmt << ", \"name\": " << JsonString(s.name)
         << ", \"start_us\": " << JsonNumber((s.start_ns - origin) / 1e3)
         << ", \"end_us\": " << JsonNumber((s.end_ns - origin) / 1e3)
         << ", \"self_us\": " << JsonNumber(SelfMs(s.id) * 1e3)
         << (s.derived ? ", \"derived\": true" : "") << "}"
         << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  file << "]}\n";
  file.close();
  std::filesystem::rename(path + ".tmp", path, ec);
  return !ec;
}

// ---------------------------------------------------------------------
// Outcome and output

void Outcome::Problem(const std::string& what) {
  correct = false;
  if (problems.size() < 20) problems.push_back(what);
}

void Outcome::FactNumber(const std::string& name, double value) {
  facts[name] = JsonNumber(value);
}

void Outcome::FactString(const std::string& name, const std::string& value) {
  facts[name] = JsonString(value);
}

void Outcome::Op(bool ok, const std::string& what_if_not) {
  ++attempted;
  if (!ok) {
    ++failed;
    Problem(what_if_not);
  }
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string JsonArray(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    out += (i ? ", " : "") + JsonNumber(values[i]);
  }
  return out + "]";
}

std::string DistributionJson(const std::vector<double>& values) {
  std::string out = "{";
  for (const auto& [name, q] : std::vector<std::pair<const char*, double>>{
           {"min", 0}, {"p25", .25}, {"p50", .5}, {"p75", .75},
           {"p90", .9}, {"p99", .99}, {"max", 1}}) {
    out += JsonString(name) + ": " + JsonNumber(Quantile(values, q)) + ", ";
  }
  return out + "\"n\": " + std::to_string(values.size()) + "}";
}

std::string JsonString(std::string_view value) {
  std::string out = "\"";
  for (char c : value) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

void RecordHostFacts(const Args& args, Outcome* out) {
  out->FactNumber("seed", static_cast<double>(args.seed));
  out->FactNumber("nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)));
  out->FactString("simd_target",
                  shadoop::simd::TargetName(shadoop::simd::ActiveTarget()));
  out->FactString("build_type", PERFBENCH_BUILD_TYPE);
  out->FactString("compiler", PERFBENCH_COMPILER);
  out->FactString("build_id", args.build_id);
}

void CheckDeterminismLedger(const Args& args, Outcome* out) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(args.state_dir) / "ledger" / args.build_id;
  const fs::path file =
      dir / (args.workload + "-seed" + std::to_string(args.seed) +
             (args.trace ? "-trace" : "") + ".txt");
  std::error_code ec;
  if (fs::exists(file, ec)) {
    std::ifstream in(file);
    std::map<std::string, std::string> stored;
    std::string name, value;
    while (in >> name >> value) stored[name] = value;
    int mismatches = 0;
    for (const auto& [key, now] : out->pinned) {
      const auto it = stored.find(key);
      if (it == stored.end()) continue;
      if (it->second != JsonNumber(now)) {
        ++mismatches;
        out->Problem("determinism bug: " + key + " was " + it->second +
                     " in an earlier run of this seed, now " +
                     JsonNumber(now));
      }
    }
    out->FactNumber("ledger_mismatches", mismatches);
    out->FactString("ledger", "compared");
    return;
  }
  fs::create_directories(dir, ec);
  const fs::path tmp = file.string() + ".tmp" + std::to_string(getpid());
  {
    std::ofstream os(tmp);
    for (const auto& [key, value] : out->pinned) {
      os << key << " " << JsonNumber(value) << "\n";
    }
  }
  fs::rename(tmp, file, ec);
  out->FactString("ledger", "recorded");
}

void PrintResult(const Outcome& out) {
  std::ostringstream report;
  report << "{\"report\": {";
  bool first = true;
  for (const auto& [name, json] : out.facts) {
    report << (first ? "" : ", ") << JsonString(name) << ": " << json;
    first = false;
  }
  report << (first ? "" : ", ") << "\"problems\": [";
  for (size_t i = 0; i < out.problems.size(); ++i) {
    report << (i ? ", " : "") << JsonString(out.problems[i]);
  }
  report << "]}}";
  std::cout << report.str() << "\n";

  std::ostringstream result;
  result << "{\"correct\": " << (out.correct ? "true" : "false")
         << ", \"attempted\": " << std::max<int64_t>(out.attempted, 1)
         << ", \"failed\": " << out.failed << ", \"metrics\": {";
  first = true;
  for (const auto& [name, metric] : out.metrics) {
    result << (first ? "" : ", ") << JsonString(name)
           << ": {\"value\": " << JsonNumber(metric.first)
           << ", \"unit\": " << JsonString(metric.second) << "}";
    first = false;
  }
  result << "}}";
  std::cout << result.str() << std::endl;
}

}  // namespace perfbench
