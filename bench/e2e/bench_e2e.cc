// bench_e2e: event-to-visible latency and drain throughput of the Chorus DAG
// (paper Fig 3 / §5.1) on four workloads, with per-layer attribution. See
// bench/e2e/README.md for the workloads, every metric, and how to run,
// trace, and compare.
//
//   bench_e2e --workload <name> --seed <n> [--seconds <s>] [--trace]
//             [--out <file>] [--work-dir <dir>]
//   bench_e2e --smoke [--work-dir <dir>]
//
// A run prints every metric with its unit, then one JSON line: the
// end-to-end metrics, or with --trace the per-layer ones (the traced window
// runs after an untraced one, and the spans go to <out>.trace.json). It
// exits 1 when the validator finds a wrong, missing or duplicated result.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "bench/e2e/bench_report.h"
#include "bench/e2e/chorus.h"
#include "common/fs.h"

namespace fbstream::bench::e2e {
namespace {

int Usage(const char* argv0) {
  fprintf(stderr,
          "usage: %s --workload <name> --seed <n> [--seconds <s>] [--trace] "
          "[--out <file>] [--work-dir <dir>]\n"
          "       %s --smoke [--work-dir <dir>]\n"
          "workloads:",
          argv0, argv0);
  for (const WorkloadSpec& w : Workloads()) fprintf(stderr, " %s", w.name.c_str());
  fprintf(stderr, "\n");
  return 2;
}

void PrintMetrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    printf("  %-34s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

// Every metric named once, with a unit and a finite value; end-to-end values
// must also be positive (a zero there means the metric measured nothing).
bool SchemaOk(const std::vector<Metric>& metrics, bool positive,
              std::string* why) {
  std::set<std::string> names;
  for (const Metric& m : metrics) {
    if (m.name.empty() || !names.insert(m.name).second || m.unit.empty() ||
        !std::isfinite(m.value) || (positive && m.value <= 0)) {
      *why = "bad metric " + m.name + " = " + std::to_string(m.value);
      return false;
    }
  }
  if (metrics.empty()) *why = "no metrics";
  return !metrics.empty();
}

int Smoke(const std::string& work_dir) {
  bool ok = true;
  for (const WorkloadSpec& spec : Workloads()) {
    RunOptions opt;
    opt.seed = 1;
    opt.warmup_s = 0.3;
    opt.measured_s = 1.0;
    opt.trace = true;
    opt.setup_reps = 1;
    opt.scale = 0.05;
    opt.work_dir = work_dir + "/" + spec.name;
    const RunResult r = RunWorkload(spec, opt);
    std::string why;
    const bool pass =
        r.correct && SchemaOk(r.end_to_end, true, &why) &&
        SchemaOk(r.per_layer, false, &why);
    if (!r.correct) why = r.errors.empty() ? "validator failed" : r.errors[0];
    printf("smoke %-16s %s%s%s\n", spec.name.c_str(), pass ? "ok" : "FAIL",
           pass ? "" : ": ", why.c_str());
    ok &= pass;
  }
  return ok ? 0 : 1;
}

int Main(int argc, char** argv) {
  std::string workload;
  std::string out;
  std::string work_dir;
  RunOptions opt;
  bool have_seed = false;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds" && has_value) {
      opt.measured_s = std::atof(argv[++i]);
    } else if (arg == "--trace") {
      opt.trace = true;
    } else if (arg == "--out" && has_value) {
      out = argv[++i];
    } else if (arg == "--work-dir" && has_value) {
      work_dir = argv[++i];
    } else if (arg == "--smoke") {
      smoke = true;
    } else {
      return Usage(argv[0]);
    }
  }
  if (work_dir.empty()) work_dir = "bench_e2e_work";
  // A previous run killed mid-way may have left its deployment behind.
  (void)RemoveAll(work_dir);
  if (smoke) return Smoke(work_dir);

  const WorkloadSpec* spec = FindWorkload(workload);
  if (spec == nullptr || !have_seed || !(opt.measured_s > 0)) {
    return Usage(argv[0]);
  }
  opt.work_dir = work_dir;
  if (opt.trace && !out.empty()) opt.trace_path = out + ".trace.json";

  printf("bench_e2e %s seed=%llu measured=%gs%s\n", spec->name.c_str(),
         static_cast<unsigned long long>(opt.seed), opt.measured_s,
         opt.trace ? " traced" : "");
  fflush(stdout);
  const RunResult r = RunWorkload(*spec, opt);

  Report report;
  report.workload = spec->name;
  report.seed = opt.seed;
  report.args.assign(argv + 1, argv + argc);
  report.trace = opt.trace;
  report.correct = r.correct;
  report.attempted = r.attempted;
  report.failed = r.failed;
  report.errors = r.errors;
  report.metrics = opt.trace ? r.per_layer : r.end_to_end;
  if (opt.trace) {
    printf("end-to-end (untraced window):\n");
    PrintMetrics(r.end_to_end);
    printf("per-layer (traced window):\n");
  }
  PrintMetrics(report.metrics);
  for (const std::string& e : r.errors) fprintf(stderr, "validator: %s\n", e.c_str());
  if (!out.empty()) {
    const Status st = WriteReport(out, report);
    if (!st.ok()) fprintf(stderr, "writing %s: %s\n", out.c_str(), st.ToString().c_str());
  }
  printf("%s\n", ResultLine(report).c_str());
  return r.correct ? 0 : 1;
}

}  // namespace
}  // namespace fbstream::bench::e2e

int main(int argc, char** argv) { return fbstream::bench::e2e::Main(argc, argv); }
