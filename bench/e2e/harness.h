#ifndef FBSTREAM_BENCH_E2E_HARNESS_H_
#define FBSTREAM_BENCH_E2E_HARNESS_H_

// Building blocks of the end-to-end Chorus benchmark (bench/e2e/README.md)
// that do not depend on a deployment: the time base, nearest-rank
// percentiles, the seeded post generator, the open-loop producer schedule,
// poll-watermark visibility attribution, and the in-memory span log. The
// unit test (e2e_harness_test.cc) covers each of them.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "common/status.h"

namespace fbstream::bench::e2e {

// --- Time base -------------------------------------------------------------

// Harness timestamps: nanoseconds on the steady clock.
inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The engine clock of every deployment: the same steady clock in
// microseconds, shifted so event times look like unix times (history rows
// sit an hour before the run and must stay positive). Scribe stamps
// Message::write_time with it, so write times and harness nanoseconds share
// one time line.
class SteadyClock : public Clock {
 public:
  static constexpr Micros kOffsetMicros = 1'600'000'000'000'000;

  Micros NowMicros() const override {
    return NowNanos() / 1000 + kOffsetMicros;
  }
  void AdvanceMicros(Micros micros) override;

  static int64_t ToNanos(Micros clock_micros) {
    return (clock_micros - kOffsetMicros) * 1000;
  }
  static Micros FromNanos(int64_t nanos) {
    return nanos / 1000 + kOffsetMicros;
  }
};

// --- Percentiles -----------------------------------------------------------

// Nearest-rank q-quantile (q in [0, 1]) of `values`, which it sorts in
// place: the smallest sample with at least ceil(q * n) samples at or below
// it. Always one of the samples, so never above the observed max. 0 when
// empty.
double Percentile(std::vector<double>* values, double q);

// Percentile of samples truncated to multiples of `bin` (differences of
// microsecond Scribe write times): the nearest-rank sample v, moved into
// [v, v + bin) by the rank's position among the samples equal to v, as if
// the truncated samples were spread evenly over their bin. Without it a
// median of microsecond values repeats to the digit from run to run.
double BinnedPercentile(std::vector<double>* values, double q, double bin);

// Thread-safe sample collector for the traced run's call timings.
class Samples {
 public:
  void Add(double v) {
    std::lock_guard<std::mutex> lock(mu_);
    values_.push_back(v);
  }
  // Moves the samples out (call after the recording threads stopped).
  std::vector<double> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(values_);
  }

 private:
  std::mutex mu_;
  std::vector<double> values_;
};

// --- Input generator -------------------------------------------------------

// One Chorus post. `hashtag` < 0 means an empty hashtag: the Puma filter
// drops the post.
struct Post {
  int64_t id = 0;
  int32_t hashtag = -1;
  int32_t age = 0;
  std::string text;
};

// Deterministic post stream: the same seed gives the same posts. Hashtag
// popularity is zipf(0.99) over kHashtags tags; the first kJoinKeys of them
// are in the Laser join table, the rest join to topic "other".
class PostGenerator {
 public:
  static constexpr int kHashtags = 120'000;
  static constexpr int kJoinKeys = 100'000;
  static constexpr int kTopics = 40;  // Plus "other".
  static constexpr int kAges = 6;
  static constexpr double kEmptyHashtagFraction = 0.1;

  PostGenerator(uint64_t seed, int64_t first_id);

  Post Next();

  static std::string HashtagName(int32_t hashtag);  // "" when < 0.
  static std::string AgeName(int32_t age);
  // Topic index the join yields: [0, kTopics), or kTopics for "other".
  static int TopicOf(int32_t hashtag) {
    return hashtag < kJoinKeys ? hashtag % kTopics : kTopics;
  }
  static std::string TopicName(int topic);

 private:
  Rng rng_;
  Zipf zipf_;
  int64_t next_id_;
};

// --- Open-loop producer ----------------------------------------------------

// Event i of an open loop at `rate` events/s is due at t0 + i / rate. The
// producer never skips or coalesces: when a write stalls, later events go
// out late and their latency, counted from the due time, carries the stall.
inline int64_t DueNanos(int64_t t0_ns, double rate, int64_t i) {
  return t0_ns + static_cast<int64_t>(static_cast<double>(i) * 1e9 / rate);
}

struct ProducerStats {
  uint64_t errors = 0;
  std::vector<double> late_ns;   // Send start minus due time, per event.
  std::vector<double> write_ns;  // Write call duration, per event.
};

// Sends events [begin, end) on the schedule above, calling write(i) for
// each, and records one stats entry per event (failed writes included, so
// entry k is event begin + k).
void RunOpenLoop(int64_t t0_ns, double rate, int64_t begin, int64_t end,
                 const std::function<Status(int64_t)>& write,
                 ProducerStats* stats);

// --- Visibility ------------------------------------------------------------

// When does a message become visible in a poll-driven sink? Before each
// poll the poller snapshots every bucket's NextSequence (the watermark);
// when the poll returns, every message below the watermark has been
// applied, so it is visible from the poll's end time. A message appended
// after the snapshot may be applied by the same poll, but is charged to the
// next poll whose watermark passed it: visibility is late by at most one
// idle sleep plus one poll, never early.
class VisibilityLog {
 public:
  explicit VisibilityLog(int buckets) : buckets_(buckets) {}

  // Poller thread: one poll that started at watermarks `wm` ended at
  // `end_ns`. Stores an entry only when a watermark advanced.
  void Record(int64_t end_ns, const std::vector<uint64_t>& wm);

  // After the run: end time of the first poll whose watermark passed
  // `sequence` in `bucket`, or -1 if no poll did.
  int64_t VisibleAt(int bucket, uint64_t sequence) const;

  size_t entries() const { return end_ns_.size(); }

 private:
  int buckets_;
  std::vector<int64_t> end_ns_;
  std::vector<uint64_t> wm_;  // entries() x buckets_, row-major.
};

// --- Spans -----------------------------------------------------------------

enum class SpanKind : uint8_t {
  kWrite,      // Producer Scribe Write (sampled 1 in kSpanSampleEvery).
  kPumaPoll,   // PumaService::PollAll, non-empty calls.
  kProcess,    // Annotator Process (sampled events); parent of kJoinGet.
  kJoinGet,    // LaserApp::Get on the join table inside Process.
  kEmit,       // OutputSink::Emit of the annotated row (sampled events).
  kSerialize,  // StatefulProcessor::SerializeState.
  kLaserPoll,  // LaserApp::PollOnce on posts_by_id, non-empty calls.
  kScubaPoll,  // Scuba::PollAll, non-empty calls.
  kNumKinds,
};
const char* SpanName(SpanKind kind);

// Events whose id is a multiple of this get per-event spans.
inline constexpr int64_t kSpanSampleEvery = 64;

// In-memory span recorder of the traced run: name, start, end, parent span
// and the event (post id) or batch (rows in the poll) it covers. Disabled,
// a Scope costs one relaxed load.
class SpanLog {
 public:
  struct Span {
    SpanKind kind;
    uint32_t id;
    uint32_t parent;  // 0 = none.
    int64_t start_ns;
    int64_t end_ns;
    int64_t subject;
  };

  static SpanLog* Global();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Records [start, end) directly (for calls timed by the caller).
  void Add(SpanKind kind, int64_t start_ns, int64_t end_ns, int64_t subject);

  // RAII span; nests under the enclosing Scope on the same thread.
  class Scope {
   public:
    Scope(SpanLog* log, SpanKind kind, int64_t subject, bool sampled = true);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;  // Null when not recording.
    Span span_{};
  };

  std::vector<Span> Take();

  // Writes spans plus a per-name summary (count, total and self time, where
  // self = duration minus the time child spans cover) as JSON.
  static Status WriteJson(const std::string& path, std::vector<Span> spans,
                          int64_t origin_ns);

 private:
  uint32_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  std::atomic<bool> enabled_{false};
  std::atomic<uint32_t> next_id_{1};
  std::mutex mu_;
  std::vector<Span> spans_;
};

// --- Process counters ------------------------------------------------------

struct ProcIo {
  uint64_t syscw = 0;       // write(2)-family calls.
  uint64_t write_bytes = 0; // wchar: bytes passed to write calls.
};
ProcIo ReadProcIo();
// Peak resident set (VmHWM) in MB.
double PeakRssMb();

}  // namespace fbstream::bench::e2e

#endif  // FBSTREAM_BENCH_E2E_HARNESS_H_
