// Entry point of the perfbench program:
//   perfbench --workload <serve|ingest|join> --seed <n> --seconds <s>
//             --trace <0|1> [--state-dir <dir>] [--build-id <id>]
// Prints a report line, then the result line (correct, attempted,
// failed, metrics) as the last line of standard output.
#include <cstdlib>
#include <iostream>
#include <string>

#include "harness.h"
#include "workloads.h"

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--state-dir") {
      args.state_dir = value;
    } else if (flag == "--build-id") {
      args.build_id = value;
    } else {
      std::cerr << "unknown flag " << flag << "\n";
      return 2;
    }
  }
  perfbench::Outcome out;
  perfbench::RecordHostFacts(args, &out);
  out.FactString("workload", args.workload);
  out.FactNumber("seconds", args.seconds);
  out.FactNumber("trace", args.trace ? 1 : 0);
  if (args.workload == "serve") {
    perfbench::RunServe(args, &out);
  } else if (args.workload == "ingest") {
    perfbench::RunIngest(args, &out);
  } else if (args.workload == "join") {
    perfbench::RunJoin(args, &out);
  } else {
    std::cerr << "unknown workload '" << args.workload
              << "' (serve, ingest, join)\n";
    return 2;
  }
  if (out.attempted == 0) out.Problem("no operation was attempted");
  if (!args.trace) out.Metric("peak_rss_mb", perfbench::PeakRssMb(), "MB");
  out.FactNumber("peak_rss_mb", perfbench::PeakRssMb());
  perfbench::CheckDeterminismLedger(args, &out);
  perfbench::PrintResult(out);
  return 0;
}
