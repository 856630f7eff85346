#ifndef FBSTREAM_BENCH_E2E_BENCH_REPORT_H_
#define FBSTREAM_BENCH_E2E_BENCH_REPORT_H_

// The one JSON result format of bench_e2e. A report records what ran (schema
// version, workload, seed, arguments), where it ran (host fingerprint), the
// validator's verdict, and every metric with its unit. run.py --compare
// reads these files; the last stdout line of a run is the compact form.

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace fbstream::bench::e2e {

inline constexpr int kReportSchemaVersion = 1;

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Report {
  std::string workload;
  uint64_t seed = 0;
  std::vector<std::string> args;
  bool trace = false;
  bool correct = false;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<Metric> metrics;
};

// {"nproc", "cpu_model", "kernel", "compiler", "build_type"} as a JSON
// object.
std::string HostFingerprintJson();

// The full report, pretty-printed.
std::string ReportJson(const Report& report);

// One line: {"correct", "attempted", "failed", "metrics": {name: {value,
// unit}}}.
std::string ResultLine(const Report& report);

Status WriteReport(const std::string& path, const Report& report);

}  // namespace fbstream::bench::e2e

#endif  // FBSTREAM_BENCH_E2E_BENCH_REPORT_H_
