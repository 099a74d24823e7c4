// Shared plumbing of the perfbench program: command-line arguments, the
// simulated cluster every workload runs on, sample statistics, the
// order-free row digest the correctness checks compare, the span tracer
// of traced runs, the determinism ledger, and the one-line JSON result.
//
// Nothing here calls into the code under test except for the cluster
// configuration structs and the read-only host facts (SIMD target).
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "hdfs/hdfs_config.h"
#include "mapreduce/cluster.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory (inside the checkout) for span files and the determinism
  /// ledger.
  std::string state_dir = ".bench_build/state";
  /// Identifies the compiled program; ledger entries are per build, so a
  /// code change never compares against another build's simulated values.
  std::string build_id = "unknown";
};

int64_t NowNs();
inline double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// Nearest-rank quantile (q in [0, 1]) of `values`; 0 for no samples.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
double Sum(const std::vector<double>& values);

/// The simulated cluster of every workload: 64 KiB blocks on 25
/// datanodes, 24 task slots (two tenants split them 12/12 with no
/// remainder).
shadoop::hdfs::HdfsConfig BenchHdfsConfig();
shadoop::mapreduce::ClusterConfig BenchClusterConfig();

/// Gaussian clusters of the generated "clustered" datasets. Enough of them
/// that density, and with it the work per statement, varies little from
/// seed to seed.
constexpr int kDataClusters = 64;

/// Order-free digest of a multiset of rows: equal multisets give equal
/// digests whatever order the rows arrive in.
struct RowDigest {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t sum_sq = 0;
  void Add(std::string_view row);
  bool operator==(const RowDigest& other) const = default;
  std::string ToString() const;
};
template <typename Rows>
RowDigest DigestOf(const Rows& rows) {
  RowDigest d;
  for (const auto& row : rows) d.Add(row);
  return d;
}

/// In-memory span recorder of traced runs. Spans are timed around the
/// benchmark's own calls into the program's public functions; `derived`
/// spans are placed from a duration the program reports itself
/// (OpStats::wall_ms) rather than timed by the benchmark.
class Tracer {
 public:
  struct Span {
    std::string name;  // "<module>.<function>"
    int id = 0;
    int parent = -1;
    int stmt = -1;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    bool derived = false;
  };

  int Begin(std::string name, int stmt, int parent);
  void End(int id);
  int AddDerived(std::string name, int stmt, int parent, int64_t start_ns,
                 int64_t end_ns);
  const std::vector<Span>& spans() const { return spans_; }

  /// Duration of span `id` minus the part of it its children cover.
  double SelfMs(int id) const;
  /// Summed self time per module (the name before the first '.').
  std::map<std::string, double> SelfMsByModule() const;

  bool WriteJson(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// Everything one run reports.
struct Outcome {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> problems;
  std::map<std::string, std::pair<double, std::string>> metrics;
  /// Report facts, each value already JSON-encoded.
  std::map<std::string, std::string> facts;
  /// Values that must repeat exactly for a given seed and build (the
  /// simulated clock, plan choices, deterministic counts).
  std::map<std::string, double> pinned;

  void Problem(const std::string& what);
  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void Fact(const std::string& name, const std::string& json) {
    facts[name] = json;
  }
  void FactNumber(const std::string& name, double value);
  void FactString(const std::string& name, const std::string& value);
  /// Records an operation outcome: a wrong or failed op counts once.
  void Op(bool ok, const std::string& what_if_not);
};

std::string JsonNumber(double value);
std::string JsonString(std::string_view value);
std::string JsonArray(const std::vector<double>& values);
/// {"min", "p25", "p50", "p75", "p90", "p99", "max", "n"} of `values`.
std::string DistributionJson(const std::vector<double>& values);

double PeakRssMb();
/// Seed, nproc, SIMD target, build type and compiler.
void RecordHostFacts(const Args& args, Outcome* out);

/// Compares `out->pinned` against the values an earlier run of the same
/// build, workload, seed and trace mode stored, and stores them when no
/// earlier run exists. A difference is a determinism bug: it fails the
/// run.
void CheckDeterminismLedger(const Args& args, Outcome* out);

/// Prints the report line and, last, the result line.
void PrintResult(const Outcome& out);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
