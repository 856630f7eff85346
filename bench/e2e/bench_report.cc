#include "bench/e2e/bench_report.h"

#include <sys/utsname.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/fs.h"

#ifndef BENCH_E2E_BUILD_TYPE
#define BENCH_E2E_BUILD_TYPE "unknown"
#endif

namespace fbstream::bench::e2e {
namespace {

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out + "\"";
}

// Shortest text that reads back as the same double: every digit measured.
std::string Number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  for (int precision = 1; precision <= 17; ++precision) {
    snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics,
                        const std::string& indent) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "" : ",") + indent + Quote(metrics[i].name) +
           ": {\"value\": " + Number(metrics[i].value) +
           ", \"unit\": " + Quote(metrics[i].unit) + "}";
  }
  return out + (indent.empty() ? "}" : "\n  }");
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

}  // namespace

std::string HostFingerprintJson() {
  struct utsname u {};
  const std::string kernel =
      uname(&u) == 0 ? std::string(u.sysname) + " " + u.release : "unknown";
  std::ostringstream out;
  out << "{\"nproc\": " << std::thread::hardware_concurrency()
      << ", \"cpu_model\": " << Quote(CpuModel())
      << ", \"kernel\": " << Quote(kernel)
      << ", \"compiler\": " << Quote("gcc " __VERSION__)
      << ", \"build_type\": " << Quote(BENCH_E2E_BUILD_TYPE) << "}";
  return out.str();
}

std::string ReportJson(const Report& report) {
  std::ostringstream out;
  out << "{\n  \"schema_version\": " << kReportSchemaVersion
      << ",\n  \"bench\": \"bench_e2e\",\n  \"host\": "
      << HostFingerprintJson() << ",\n  \"workload\": "
      << Quote(report.workload) << ",\n  \"seed\": " << report.seed
      << ",\n  \"args\": [";
  for (size_t i = 0; i < report.args.size(); ++i) {
    out << (i == 0 ? "" : ", ") << Quote(report.args[i]);
  }
  out << "],\n  \"trace\": " << (report.trace ? "true" : "false")
      << ",\n  \"correct\": " << (report.correct ? "true" : "false")
      << ",\n  \"attempted\": " << report.attempted
      << ",\n  \"failed\": " << report.failed << ",\n  \"errors\": [";
  for (size_t i = 0; i < report.errors.size(); ++i) {
    out << (i == 0 ? "" : ", ") << Quote(report.errors[i]);
  }
  out << "],\n  \"metrics\": " << MetricsJson(report.metrics, "\n    ")
      << "\n}\n";
  return out.str();
}

std::string ResultLine(const Report& report) {
  std::ostringstream out;
  out << "{\"correct\": " << (report.correct ? "true" : "false")
      << ", \"attempted\": " << report.attempted
      << ", \"failed\": " << report.failed
      << ", \"metrics\": " << MetricsJson(report.metrics, "") << "}";
  return out.str();
}

Status WriteReport(const std::string& path, const Report& report) {
  return WriteFileAtomic(path, ReportJson(report));
}

}  // namespace fbstream::bench::e2e
