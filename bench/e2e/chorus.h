#ifndef FBSTREAM_BENCH_E2E_CHORUS_H_
#define FBSTREAM_BENCH_E2E_CHORUS_H_

// The benchmarked system: the Fig 3 / §5.1 Chorus DAG
//
//   Scribe all_posts -> Puma filter -> filtered_posts -> Stylus annotator
//   (Laser hashtag->topic lookup join) -> annotated_posts -> Laser app
//   posts_by_id + Scuba table chorus
//
// deployed from public APIs only, driven by one open-loop producer, and
// measured from outside: every layer is timed around calls into its public
// functions. RunWorkload runs one workload end to end (set-up, warmup,
// measured window, optional traced window, drain, validation) and returns
// its metrics.

#include <cstdint>
#include <string>
#include <vector>

#include "bench/e2e/bench_report.h"

namespace fbstream::bench::e2e {

enum class Transport {
  kInProcess,  // Every component shares one in-process Scribe.
  kRemote,     // Every component reaches a ScribeServer over localhost TCP.
};

// A workload's shape. The constants live in Workloads(); nothing is derived
// per run except what the seed generates.
struct WorkloadSpec {
  std::string name;
  Transport transport = Transport::kInProcess;
  // Categories persist and fsync every append; the annotator keeps
  // exactly-once per-topic counts on the local LSM backend with HDFS backups.
  bool durable = false;
  double rate = 0;            // Open-loop events/s (warmup and measured).
  int64_t drain_events = 0;   // Backlog appended while consumers pause.
  int64_t history_rows = 0;   // > 0: preload + dashboard storm clients.
};

const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(const std::string& name);

struct RunOptions {
  uint64_t seed = 1;
  double warmup_s = 3;
  double measured_s = 10;
  // Adds a traced window of measured_s after the untraced one and reports
  // the per-layer metrics from it.
  bool trace = false;
  // Deployments set up per run; setup_s is their median. All but the last
  // are torn down again.
  int setup_reps = 9;
  // Scales drain_events and history_rows (smoke runs).
  double scale = 1.0;
  std::string work_dir;    // Must not exist or be empty; removed at the end.
  std::string trace_path;  // Span dump of the traced window ("" = none).
};

struct RunResult {
  bool correct = false;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;  // Empty unless RunOptions::trace.
  std::vector<std::string> errors;  // First validator complaints.
};

RunResult RunWorkload(const WorkloadSpec& spec, const RunOptions& options);

}  // namespace fbstream::bench::e2e

#endif  // FBSTREAM_BENCH_E2E_CHORUS_H_
