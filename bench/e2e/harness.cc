#include "bench/e2e/harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

#include "common/fs.h"

namespace fbstream::bench::e2e {

void SteadyClock::AdvanceMicros(Micros micros) {
  std::this_thread::sleep_for(std::chrono::microseconds(micros));
}

double Percentile(std::vector<double>* values, double q) {
  if (values->empty()) return 0;
  std::sort(values->begin(), values->end());
  const double n = static_cast<double>(values->size());
  size_t rank = static_cast<size_t>(std::ceil(std::clamp(q, 0.0, 1.0) * n));
  if (rank < 1) rank = 1;
  return (*values)[std::min(rank, values->size()) - 1];
}

double BinnedPercentile(std::vector<double>* values, double q, double bin) {
  const double v = Percentile(values, q);  // Sorts.
  if (values->empty()) return 0;
  const size_t n = values->size();
  const size_t rank = std::clamp<size_t>(
      static_cast<size_t>(std::ceil(std::clamp(q, 0.0, 1.0) * n)), 1, n);
  const auto [lo, hi] = std::equal_range(values->begin(), values->end(), v);
  const double ties = static_cast<double>(hi - lo);
  const double below = static_cast<double>(lo - values->begin());
  return v + bin * (static_cast<double>(rank) - below - 0.5) / ties;
}

// --- Generator ---------------------------------------------------------------

PostGenerator::PostGenerator(uint64_t seed, int64_t first_id)
    : rng_(seed), zipf_(kHashtags, 0.99), next_id_(first_id) {}

Post PostGenerator::Next() {
  Post p;
  p.id = next_id_++;
  if (!rng_.Bernoulli(kEmptyHashtagFraction)) {
    // Spread popularity ranks over the tag space (7919 is coprime with
    // kHashtags), so popular tags are not all join-table hits.
    p.hashtag = static_cast<int32_t>((zipf_.Sample(&rng_) * 7919) % kHashtags);
  }
  p.age = static_cast<int32_t>(rng_.Uniform(kAges));
  p.text = rng_.NextString(12 + rng_.Uniform(16));
  return p;
}

std::string PostGenerator::HashtagName(int32_t hashtag) {
  return hashtag < 0 ? std::string() : "#h" + std::to_string(hashtag);
}

std::string PostGenerator::AgeName(int32_t age) {
  static const char* kNames[kAges] = {"13-17", "18-24", "25-34",
                                      "35-44", "45-54", "55+"};
  return kNames[age];
}

std::string PostGenerator::TopicName(int topic) {
  return topic >= kTopics ? "other" : "topic" + std::to_string(topic);
}

// --- Open loop -----------------------------------------------------------------

void RunOpenLoop(int64_t t0_ns, double rate, int64_t begin, int64_t end,
                 const std::function<Status(int64_t)>& write,
                 ProducerStats* stats) {
  for (int64_t i = begin; i < end; ++i) {
    const int64_t due = DueNanos(t0_ns, rate, i);
    int64_t now = NowNanos();
    // Sleep most of the gap, then spin: sleep overshoot would otherwise
    // show up as generator lateness.
    if (due - now > 200'000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now - 100'000));
      now = NowNanos();
    }
    while (now < due) {
      std::this_thread::yield();
      now = NowNanos();
    }
    const Status st = write(i);
    if (!st.ok()) ++stats->errors;
    stats->late_ns.push_back(static_cast<double>(now - due));
    stats->write_ns.push_back(static_cast<double>(NowNanos() - now));
  }
}

// --- Visibility ------------------------------------------------------------------

void VisibilityLog::Record(int64_t end_ns, const std::vector<uint64_t>& wm) {
  bool advanced = end_ns_.empty();
  if (!advanced) {
    const uint64_t* last = &wm_[wm_.size() - static_cast<size_t>(buckets_)];
    for (int b = 0; b < buckets_; ++b) advanced |= wm[b] > last[b];
  }
  if (!advanced) return;
  end_ns_.push_back(end_ns);
  wm_.insert(wm_.end(), wm.begin(), wm.begin() + buckets_);
}

int64_t VisibilityLog::VisibleAt(int bucket, uint64_t sequence) const {
  // Watermarks only grow, so the entries are sorted per bucket.
  size_t lo = 0;
  size_t hi = end_ns_.size();
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    if (wm_[mid * static_cast<size_t>(buckets_) + bucket] > sequence) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo < end_ns_.size() ? end_ns_[lo] : -1;
}

// --- Spans -----------------------------------------------------------------------

namespace {
thread_local uint32_t t_current_span = 0;
}  // namespace

const char* SpanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kWrite: return "scribe.write";
    case SpanKind::kPumaPoll: return "puma.poll_all";
    case SpanKind::kProcess: return "stylus.process";
    case SpanKind::kJoinGet: return "laser.join_get";
    case SpanKind::kEmit: return "stylus.emit";
    case SpanKind::kSerialize: return "stylus.serialize_state";
    case SpanKind::kLaserPoll: return "laser.poll_once";
    case SpanKind::kScubaPoll: return "scuba.poll_all";
    case SpanKind::kNumKinds: break;
  }
  return "?";
}

SpanLog* SpanLog::Global() {
  static SpanLog* log = new SpanLog();
  return log;
}

void SpanLog::Add(SpanKind kind, int64_t start_ns, int64_t end_ns,
                  int64_t subject) {
  if (!enabled()) return;
  const Span span{kind, NextId(), t_current_span, start_ns, end_ns, subject};
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

SpanLog::Scope::Scope(SpanLog* log, SpanKind kind, int64_t subject,
                      bool sampled)
    : log_(sampled && log->enabled() ? log : nullptr) {
  if (log_ == nullptr) return;
  span_.kind = kind;
  span_.id = log_->NextId();
  span_.parent = t_current_span;
  span_.subject = subject;
  t_current_span = span_.id;
  span_.start_ns = NowNanos();
}

SpanLog::Scope::~Scope() {
  if (log_ == nullptr) return;
  span_.end_ns = NowNanos();
  t_current_span = span_.parent;
  std::lock_guard<std::mutex> lock(log_->mu_);
  log_->spans_.push_back(span_);
}

std::vector<SpanLog::Span> SpanLog::Take() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::move(spans_);
}

Status SpanLog::WriteJson(const std::string& path, std::vector<Span> spans,
                          int64_t origin_ns) {
  std::sort(spans.begin(), spans.end(),
            [](const Span& a, const Span& b) { return a.id < b.id; });
  // Child time per parent span, for self time.
  std::map<uint32_t, int64_t> child_ns;
  for (const Span& s : spans) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  struct Summary {
    uint64_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
  };
  Summary summary[static_cast<int>(SpanKind::kNumKinds)];
  for (const Span& s : spans) {
    Summary& sum = summary[static_cast<int>(s.kind)];
    const int64_t dur = s.end_ns - s.start_ns;
    auto it = child_ns.find(s.id);
    ++sum.count;
    sum.total_ns += dur;
    sum.self_ns += dur - (it == child_ns.end() ? 0 : it->second);
  }

  std::ostringstream out;
  out << "{\n  \"schema\": \"bench_e2e.trace/1\",\n"
      << "  \"columns\": [\"name\", \"id\", \"parent\", \"start_us\", "
         "\"dur_us\", \"subject\"],\n  \"summary\": {";
  bool first = true;
  for (int k = 0; k < static_cast<int>(SpanKind::kNumKinds); ++k) {
    if (summary[k].count == 0) continue;
    char buf[256];
    snprintf(buf, sizeof(buf),
             "%s\n    \"%s\": {\"count\": %llu, \"total_ms\": %.3f, "
             "\"self_ms\": %.3f}",
             first ? "" : ",", SpanName(static_cast<SpanKind>(k)),
             static_cast<unsigned long long>(summary[k].count),
             summary[k].total_ns / 1e6, summary[k].self_ns / 1e6);
    out << buf;
    first = false;
  }
  out << "\n  },\n  \"spans\": [";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    char buf[160];
    snprintf(buf, sizeof(buf), "%s\n    [\"%s\", %u, %u, %.3f, %.3f, %lld]",
             i == 0 ? "" : ",", SpanName(s.kind), s.id, s.parent,
             (s.start_ns - origin_ns) / 1e3, (s.end_ns - s.start_ns) / 1e3,
             static_cast<long long>(s.subject));
    out << buf;
  }
  out << "\n  ]\n}\n";
  return WriteFile(path, out.str());
}

// --- /proc -----------------------------------------------------------------------

ProcIo ReadProcIo() {
  ProcIo io;
  std::ifstream in("/proc/self/io");
  std::string key;
  uint64_t value = 0;
  while (in >> key >> value) {
    if (key == "syscw:") io.syscw = value;
    if (key == "wchar:") io.write_bytes = value;
  }
  return io;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB.
    }
  }
  return 0;
}

}  // namespace fbstream::bench::e2e
