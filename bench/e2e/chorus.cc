#include "bench/e2e/chorus.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <thread>

#include "bench/e2e/harness.h"
#include "common/fs.h"
#include "common/metrics.h"
#include "common/serde.h"
#include "core/node.h"
#include "core/pipeline.h"
#include "core/processor.h"
#include "core/sink.h"
#include "puma/app.h"
#include "scribe/remote.h"
#include "scribe/scribe.h"
#include "storage/hdfs/hdfs.h"
#include "storage/laser/laser.h"
#include "storage/scuba/scuba.h"

namespace fbstream::bench::e2e {

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = {
      {.name = "chorus_mem", .rate = 20'000, .drain_events = 200'000},
      {.name = "chorus_remote",
       .transport = Transport::kRemote,
       .rate = 10'000,
       .drain_events = 100'000},
      {.name = "chorus_durable",
       .durable = true,
       .rate = 5'000,
       .drain_events = 40'000},
      {.name = "dashboard_storm",
       .rate = 20'000,
       .drain_events = 200'000,
       .history_rows = 300'000},
  };
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

namespace {

constexpr int kBuckets = 2;
constexpr auto kIdleSleep = std::chrono::microseconds(200);
constexpr int64_t kHistoryIdBase = 1'000'000'000'000;
constexpr uint64_t kHistorySalt = 0x5ca1ab1e;
constexpr Micros kHistorySpan = 60 * kMicrosPerMinute;
constexpr int kReadbackQueries = 48;
constexpr int kDrainRounds = 5;
constexpr int kDashboardClients = 2;
// Storm clients are closed loops with think time: saturating all four cores
// makes ingest latency hinge on scheduling luck rather than on the code.
constexpr auto kDashboardThink = std::chrono::milliseconds(20);
constexpr auto kReaderThink = std::chrono::microseconds(100);
constexpr int kScubaQueryThreads = 2;
// Laser reads are timed in blocks (per-read mean of the block): a single
// read is a few hundred ns, near the clock's own cost.
constexpr int kGetBlock = 16;
constexpr size_t kMaxErrors = 10;

SteadyClock* EngineClock() {
  static SteadyClock* clock = new SteadyClock();
  return clock;
}

SchemaPtr PostsSchema() {
  static const SchemaPtr schema = Schema::Make(
      {{"post_id", ValueType::kInt64}, {"event_time", ValueType::kInt64},
       {"hashtag", ValueType::kString}, {"age_bucket", ValueType::kString},
       {"text", ValueType::kString}});
  return schema;
}

SchemaPtr AnnotatedSchema() {
  static const SchemaPtr schema = Schema::Make(
      {{"post_id", ValueType::kInt64}, {"event_time", ValueType::kInt64},
       {"hashtag", ValueType::kString}, {"topic", ValueType::kString},
       {"age_bucket", ValueType::kString}});
  return schema;
}

SchemaPtr TopicTableSchema() {
  static const SchemaPtr schema = Schema::Make(
      {{"hashtag", ValueType::kString}, {"topic", ValueType::kString}});
  return schema;
}

constexpr char kFilterApp[] = R"(
CREATE APPLICATION chorus_filter;
CREATE INPUT TABLE all_posts (post_id BIGINT, event_time BIGINT, hashtag,
                              age_bucket, text)
  FROM SCRIBE("all_posts") TIME event_time;
CREATE STREAM public_posts AS
  SELECT post_id, event_time, hashtag, age_bucket, text
  FROM all_posts
  WHERE length(hashtag) > 0
  EMIT TO SCRIBE("filtered_posts");
)";

Row PostRow(const Post& p, Micros event_time) {
  return Row(PostsSchema(),
             {Value(p.id), Value(event_time),
              Value(PostGenerator::HashtagName(p.hashtag)),
              Value(PostGenerator::AgeName(p.age)), Value(p.text)});
}

// post_id is the first column of every category's text rows.
int64_t LeadingId(const std::string& payload) {
  int64_t id = -1;
  const char* end = payload.data() + payload.size();
  const char* tab = std::find(payload.data(), end, '\t');
  if (std::from_chars(payload.data(), tab, id).ec != std::errc()) return -1;
  return id;
}

int TopicIndex(const std::string& topic) {
  if (topic.rfind("topic", 0) != 0) return PostGenerator::kTopics;
  return std::clamp(std::atoi(topic.c_str() + 5), 0, PostGenerator::kTopics);
}

void ForEachMessage(
    scribe::Scribe* bus, const std::string& category,
    const std::function<void(int, const scribe::Message&)>& fn) {
  for (int b = 0; b < kBuckets; ++b) {
    uint64_t from = 0;
    while (true) {
      auto messages = bus->Read(category, b, from, 65536);
      if (!messages.ok() || messages->empty()) break;
      for (const scribe::Message& m : *messages) fn(b, m);
      from = messages->back().sequence + 1;
    }
  }
}

std::map<std::string, double> CounterSums() {
  std::map<std::string, double> sums;
  for (const MetricSnapshot& m : MetricsRegistry::Global()->Snapshot()) {
    if (m.kind == MetricKind::kCounter) sums[m.name] += m.value;
  }
  return sums;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (const double x : v) sum += x;
  return Ratio(sum, static_cast<double>(v.size()));
}

// --- Stylus annotator --------------------------------------------------------

// Call timings of the traced window, filled from the shard loop threads.
struct StylusProbes {
  Samples process_ns;
  Samples join_get_ns;
  Samples emit_ns;
  std::atomic<uint64_t> serialize_calls{0};
  std::atomic<uint64_t> serialize_bytes{0};
};

// Joins a filtered post with the hashtag -> topic table and drops its text.
// While tracing, times the call and its join (every post) and records spans
// (sampled posts).
Row Annotate(const laser::LaserApp& join, const Row& post,
             StylusProbes* probes) {
  SpanLog* log = SpanLog::Global();
  const bool traced = log->enabled();
  const int64_t id = post.Get(0).AsInt64();
  const bool sampled = id % kSpanSampleEvery == 0;
  SpanLog::Scope process_span(log, SpanKind::kProcess, id, sampled);
  const int64_t start = traced ? NowNanos() : 0;
  std::string topic = PostGenerator::TopicName(PostGenerator::kTopics);
  {
    SpanLog::Scope get_span(log, SpanKind::kJoinGet, id, sampled);
    const int64_t get_start = traced ? NowNanos() : 0;
    auto looked_up = join.Get(post.Get(2));
    if (traced) {
      probes->join_get_ns.Add(static_cast<double>(NowNanos() - get_start));
    }
    if (looked_up.ok()) topic = looked_up->Get(0).ToString();
  }
  Row row(AnnotatedSchema(), {post.Get(0), post.Get(1), post.Get(2),
                              Value(std::move(topic)), post.Get(3)});
  if (traced) probes->process_ns.Add(static_cast<double>(NowNanos() - start));
  return row;
}

class Annotator : public stylus::StatelessProcessor {
 public:
  Annotator(const laser::LaserApp* join, StylusProbes* probes)
      : join_(join), probes_(probes) {}

  void Process(const stylus::Event& event, std::vector<Row>* out) override {
    out->push_back(Annotate(*join_, event.row, probes_));
  }

 private:
  const laser::LaserApp* join_;
  StylusProbes* probes_;
};

class CountingAnnotator;

// Live CountingAnnotator instances, so the harness can read the state a
// shard restored from its checkpoint.
class AnnotatorSet {
 public:
  void Add(CountingAnnotator* a) {
    std::lock_guard<std::mutex> lock(mu_);
    live_.insert(a);
  }
  void Remove(CountingAnnotator* a) {
    std::lock_guard<std::mutex> lock(mu_);
    live_.erase(a);
  }
  std::vector<CountingAnnotator*> Live() {
    std::lock_guard<std::mutex> lock(mu_);
    return {live_.begin(), live_.end()};
  }

 private:
  std::mutex mu_;
  std::set<CountingAnnotator*> live_;
};

// The durable workload's annotator: the same join, plus per-topic post
// counts kept as exactly-once state.
class CountingAnnotator : public stylus::StatefulProcessor {
 public:
  CountingAnnotator(const laser::LaserApp* join, StylusProbes* probes,
                    AnnotatorSet* set)
      : join_(join), probes_(probes), set_(set) {
    set_->Add(this);
  }
  ~CountingAnnotator() override { set_->Remove(this); }
  CountingAnnotator(const CountingAnnotator&) = delete;
  CountingAnnotator& operator=(const CountingAnnotator&) = delete;

  void Process(const stylus::Event& event, std::vector<Row>* out) override {
    Row row = Annotate(*join_, event.row, probes_);
    ++counts_[TopicIndex(row.Get(3).AsString())];
    out->push_back(std::move(row));
  }

  std::string SerializeState() const override {
    SpanLog* log = SpanLog::Global();
    SpanLog::Scope span(log, SpanKind::kSerialize, 0);
    std::string out;
    for (const uint64_t c : counts_) PutVarint64(&out, c);
    if (log->enabled()) {
      probes_->serialize_calls.fetch_add(1, std::memory_order_relaxed);
      probes_->serialize_bytes.fetch_add(out.size(),
                                         std::memory_order_relaxed);
    }
    return out;
  }

  Status RestoreState(std::string_view data) override {
    for (uint64_t& c : counts_) {
      if (!GetVarint64(&data, &c)) {
        return Status::Corruption("annotator state");
      }
    }
    return Status::OK();
  }

  const std::vector<uint64_t>& counts() const { return counts_; }

 private:
  const laser::LaserApp* join_;
  StylusProbes* probes_;
  AnnotatorSet* set_;
  std::vector<uint64_t> counts_ =
      std::vector<uint64_t>(PostGenerator::kTopics + 1, 0);
};

// Times the annotator's output writes (sampled events also get a span).
class TimingSink : public stylus::OutputSink {
 public:
  TimingSink(std::shared_ptr<stylus::OutputSink> inner, StylusProbes* probes)
      : inner_(std::move(inner)), probes_(probes) {}

  Status Emit(const Row& row) override {
    SpanLog* log = SpanLog::Global();
    if (!log->enabled()) return inner_->Emit(row);
    const int64_t id = row.Get(0).AsInt64();
    SpanLog::Scope span(log, SpanKind::kEmit, id, id % kSpanSampleEvery == 0);
    const int64_t t0 = NowNanos();
    const Status st = inner_->Emit(row);
    probes_->emit_ns.Add(static_cast<double>(NowNanos() - t0));
    return st;
  }
  std::string OutputCategory() const override {
    return inner_->OutputCategory();
  }

 private:
  std::shared_ptr<stylus::OutputSink> inner_;
  StylusProbes* probes_;
};

// --- Pollers ------------------------------------------------------------------

struct PollStats {
  std::atomic<uint64_t> polls{0};
  std::atomic<uint64_t> empty_polls{0};
  std::atomic<uint64_t> rows{0};
  std::atomic<uint64_t> errors{0};
  std::atomic<int64_t> busy_ns{0};
  // Non-empty polls while tracing; poller-thread only until it stops.
  std::vector<double> poll_ns;
  std::vector<double> poll_rows;
};

// One harness thread per poll-driven service: poll, and sleep 200 µs when
// idle (as Pipeline's shard loops do). Sinks also log poll watermarks.
class Poller {
 public:
  using PollFn = std::function<StatusOr<size_t>()>;

  Poller(PollFn poll, SpanKind kind, scribe::Scribe* watch_bus,
         VisibilityLog* visibility)
      : poll_(std::move(poll)),
        kind_(kind),
        watch_bus_(watch_bus),
        visibility_(visibility) {}
  ~Poller() { Stop(); }
  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;

  void Start() { thread_ = std::thread([this] { Loop(); }); }
  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  // Returns once the poller has seen the pause between two polls.
  void Pause() {
    const uint64_t parks = parks_.load();
    pause_.store(true);
    while (parks_.load() == parks) std::this_thread::sleep_for(kIdleSleep);
  }
  void Resume() { pause_.store(false); }

  PollStats& stats() { return stats_; }

 private:
  void Loop() {
    std::vector<uint64_t> wm(kBuckets, 0);
    while (!stop_.load(std::memory_order_relaxed)) {
      if (pause_.load()) {
        parks_.fetch_add(1);
        std::this_thread::sleep_for(kIdleSleep);
        continue;
      }
      if (visibility_ != nullptr) {
        for (int b = 0; b < kBuckets; ++b) {
          auto next = watch_bus_->NextSequence("annotated_posts", b);
          wm[b] = next.ok() ? *next : 0;
        }
      }
      const int64_t start = NowNanos();
      const StatusOr<size_t> n = poll_();
      const int64_t end = NowNanos();
      const size_t rows = n.ok() ? *n : 0;
      if (!n.ok()) stats_.errors.fetch_add(1, std::memory_order_relaxed);
      stats_.polls.fetch_add(1, std::memory_order_relaxed);
      stats_.busy_ns.fetch_add(end - start, std::memory_order_relaxed);
      if (visibility_ != nullptr) visibility_->Record(end, wm);
      if (rows == 0) {
        stats_.empty_polls.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::sleep_for(kIdleSleep);
        continue;
      }
      stats_.rows.fetch_add(rows, std::memory_order_relaxed);
      SpanLog* log = SpanLog::Global();
      if (log->enabled()) {
        log->Add(kind_, start, end, static_cast<int64_t>(rows));
        stats_.poll_ns.push_back(static_cast<double>(end - start));
        stats_.poll_rows.push_back(static_cast<double>(rows));
      }
    }
  }

  PollFn poll_;
  SpanKind kind_;
  scribe::Scribe* watch_bus_;
  VisibilityLog* visibility_;
  PollStats stats_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> pause_{false};
  std::atomic<uint64_t> parks_{0};
  std::thread thread_;
};

// --- Deployment --------------------------------------------------------------

// What the storm preloaded, for validating its queries and reads.
struct History {
  Micros start_us = 0;
  Micros end_us = 0;
  std::vector<int8_t> topic;  // Per history row.
  // Dashboard reference per group column: (bucket, group) -> count, and
  // each group's total over the whole range.
  struct Cells {
    std::map<std::pair<Micros, std::string>, uint64_t> cells;
    std::map<std::string, uint64_t> totals;
  };
  Cells by_topic;
  Cells by_age;
};

class Chorus {
 public:
  static StatusOr<std::unique_ptr<Chorus>> Deploy(const WorkloadSpec& spec,
                                                  uint64_t seed,
                                                  int64_t history_rows,
                                                  const std::string& dir);
  ~Chorus();
  Chorus(const Chorus&) = delete;
  Chorus& operator=(const Chorus&) = delete;

  void StartConsumers();
  void PauseConsumers();
  Status ResumeConsumers();
  void StopConsumers();

  uint64_t laser_rows() { return laser_poller_->stats().rows.load(); }
  uint64_t scuba_rows() { return scuba_poller_->stats().rows.load(); }

  std::string dir_;
  Clock* clock_ = EngineClock();
  std::unique_ptr<scribe::Scribe> bus_;  // The broker's bus in remote mode.
  std::unique_ptr<scribe::ScribeServer> server_;
  std::vector<std::unique_ptr<scribe::RemoteScribe>> clients_;
  scribe::Scribe* producer_bus_ = nullptr;
  scribe::Scribe* puma_bus_ = nullptr;
  scribe::Scribe* stylus_bus_ = nullptr;
  scribe::Scribe* sinks_bus_ = nullptr;

  StylusProbes probes_;
  AnnotatorSet annotators_;
  std::unique_ptr<laser::LaserApp> join_;
  std::unique_ptr<hdfs::HdfsCluster> hdfs_;
  std::unique_ptr<puma::PumaService> puma_;
  std::unique_ptr<stylus::Pipeline> pipeline_;
  std::unique_ptr<laser::LaserApp> posts_by_id_;
  std::unique_ptr<scuba::Scuba> scuba_;
  scuba::ScubaTable* table_ = nullptr;
  History history_;

  VisibilityLog laser_visible_{kBuckets};
  VisibilityLog scuba_visible_{kBuckets};
  std::unique_ptr<Poller> puma_poller_;
  std::unique_ptr<Poller> laser_poller_;
  std::unique_ptr<Poller> scuba_poller_;

 private:
  explicit Chorus(std::string dir) : dir_(std::move(dir)) {}
  Status DeployImpl(const WorkloadSpec& spec, uint64_t seed,
                    int64_t history_rows);
  Status PreloadHistory(uint64_t seed, int64_t rows);
};

StatusOr<std::unique_ptr<Chorus>> Chorus::Deploy(const WorkloadSpec& spec,
                                                 uint64_t seed,
                                                 int64_t history_rows,
                                                 const std::string& dir) {
  std::unique_ptr<Chorus> chorus(new Chorus(dir));
  FBSTREAM_RETURN_IF_ERROR(chorus->DeployImpl(spec, seed, history_rows));
  return chorus;
}

Status Chorus::DeployImpl(const WorkloadSpec& spec, uint64_t seed,
                          int64_t history_rows) {
  FBSTREAM_RETURN_IF_ERROR(CreateDirs(dir_));
  bus_ = std::make_unique<scribe::Scribe>(clock_, dir_ + "/scribe");
  for (const char* name : {"all_posts", "filtered_posts", "annotated_posts"}) {
    scribe::CategoryConfig config;
    config.name = name;
    config.num_buckets = kBuckets;
    config.persist_to_disk = spec.durable;
    config.fsync_appends = spec.durable;
    FBSTREAM_RETURN_IF_ERROR(bus_->CreateCategory(config));
  }
  producer_bus_ = puma_bus_ = stylus_bus_ = sinks_bus_ = bus_.get();
  if (spec.transport == Transport::kRemote) {
    server_ = std::make_unique<scribe::ScribeServer>(bus_.get());
    FBSTREAM_RETURN_IF_ERROR(server_->Start());
    // Four connections: the producer, Puma, Stylus, and both sinks.
    for (const char* name : {"producer", "puma", "stylus", "sinks"}) {
      clients_.push_back(std::make_unique<scribe::RemoteScribe>(
          clock_, "127.0.0.1", server_->port(), name));
    }
    producer_bus_ = clients_[0].get();
    puma_bus_ = clients_[1].get();
    stylus_bus_ = clients_[2].get();
    sinks_bus_ = clients_[3].get();
  }

  // The Laser join table: hashtag -> topic for the first kJoinKeys tags.
  laser::LaserAppConfig topics;
  topics.name = "hashtag_topics";
  topics.input_schema = TopicTableSchema();
  topics.key_columns = {"hashtag"};
  topics.value_columns = {"topic"};
  FBSTREAM_ASSIGN_OR_RETURN(
      join_, laser::LaserApp::Create(topics, nullptr, clock_,
                                     dir_ + "/laser/hashtag_topics"));
  {
    std::vector<Row> rows;
    rows.reserve(PostGenerator::kJoinKeys);
    for (int32_t k = 0; k < PostGenerator::kJoinKeys; ++k) {
      rows.push_back(Row(TopicTableSchema(),
                         {Value(PostGenerator::HashtagName(k)),
                          Value(PostGenerator::TopicName(
                              PostGenerator::TopicOf(k)))}));
    }
    FBSTREAM_RETURN_IF_ERROR(join_->LoadRows(rows));
  }

  puma_ = std::make_unique<puma::PumaService>(puma_bus_, clock_,
                                              puma::PumaAppOptions{});
  FBSTREAM_ASSIGN_OR_RETURN(const int diff, puma_->SubmitApp(kFilterApp));
  FBSTREAM_RETURN_IF_ERROR(puma_->AcceptDiff(diff));

  stylus::Pipeline::Options options;
  options.commit_threads = 1;
  pipeline_ = std::make_unique<stylus::Pipeline>(stylus_bus_, clock_, options);
  stylus::NodeConfig node;
  node.name = "annotator";
  node.input_category = "filtered_posts";
  node.input_schema = PostsSchema();
  node.event_time_column = "event_time";
  node.state_dir = dir_ + "/stylus";
  const laser::LaserApp* join = join_.get();
  StylusProbes* probes = &probes_;
  if (spec.durable) {
    hdfs_ = std::make_unique<hdfs::HdfsCluster>(dir_ + "/hdfs");
    AnnotatorSet* set = &annotators_;
    node.stateful_factory = [join, probes, set] {
      return std::make_unique<CountingAnnotator>(join, probes, set);
    };
    node.state_semantics = stylus::StateSemantics::kExactlyOnce;
    node.backend = stylus::StateBackend::kLocal;
    node.hdfs = hdfs_.get();
    node.backup_every_checkpoints = 256;
  } else {
    node.stateless_factory = [join, probes] {
      return std::make_unique<Annotator>(join, probes);
    };
    node.backend = stylus::StateBackend::kNone;
  }
  node.output_semantics = stylus::OutputSemantics::kAtLeastOnce;
  node.checkpoint_every_events = 256;
  node.sink = std::make_shared<TimingSink>(
      std::make_shared<stylus::ScribeSink>(stylus_bus_, "annotated_posts",
                                           AnnotatedSchema(),
                                           std::vector<std::string>{"post_id"}),
      probes);
  FBSTREAM_RETURN_IF_ERROR(pipeline_->AddNode(node));

  laser::LaserAppConfig posts;
  posts.name = "posts_by_id";
  posts.scribe_category = "annotated_posts";
  posts.input_schema = AnnotatedSchema();
  posts.key_columns = {"post_id"};
  posts.value_columns = {"topic", "hashtag", "age_bucket"};
  FBSTREAM_ASSIGN_OR_RETURN(
      posts_by_id_, laser::LaserApp::Create(posts, sinks_bus_, clock_,
                                            dir_ + "/laser/posts_by_id"));

  scuba_ = std::make_unique<scuba::Scuba>(sinks_bus_, kScubaQueryThreads);
  FBSTREAM_RETURN_IF_ERROR(scuba_->CreateTable("chorus", AnnotatedSchema()));
  FBSTREAM_RETURN_IF_ERROR(scuba_->AttachCategory("chorus", "annotated_posts"));
  table_ = scuba_->GetTable("chorus");

  if (history_rows > 0) {
    FBSTREAM_RETURN_IF_ERROR(PreloadHistory(seed, history_rows));
  }

  puma_poller_ = std::make_unique<Poller>(
      [this] { return puma_->PollAll(); }, SpanKind::kPumaPoll, nullptr,
      nullptr);
  laser_poller_ = std::make_unique<Poller>(
      [this] { return posts_by_id_->PollOnce(); }, SpanKind::kLaserPoll,
      bus_.get(), &laser_visible_);
  scuba_poller_ = std::make_unique<Poller>(
      [this]() -> StatusOr<size_t> { return scuba_->PollAll(); },
      SpanKind::kScubaPoll, bus_.get(), &scuba_visible_);
  return Status::OK();
}

// History rows: an hour of annotated posts ending a minute before now,
// loaded into Scuba (AddRow) and posts_by_id (LoadRows).
Status Chorus::PreloadHistory(uint64_t seed, int64_t rows) {
  History& h = history_;
  h.end_us = clock_->NowMicros() - kMicrosPerMinute;
  h.start_us = h.end_us - kHistorySpan;
  h.topic.resize(static_cast<size_t>(rows));
  PostGenerator gen(seed ^ kHistorySalt, kHistoryIdBase);
  constexpr int64_t kChunk = 10'000;
  std::vector<Row> chunk;
  chunk.reserve(kChunk);
  for (int64_t i = 0; i < rows; ++i) {
    const Post p = gen.Next();
    // History posts all carry a hashtag: they were filtered before.
    const int32_t hashtag = p.hashtag < 0 ? 0 : p.hashtag;
    const int topic = PostGenerator::TopicOf(hashtag);
    const Micros t = h.start_us + i * kHistorySpan / rows;
    const Micros bucket = t - t % kMicrosPerMinute;
    const std::string topic_name = PostGenerator::TopicName(topic);
    const std::string age_name = PostGenerator::AgeName(p.age);
    h.topic[static_cast<size_t>(i)] = static_cast<int8_t>(topic);
    ++h.by_topic.cells[{bucket, topic_name}];
    ++h.by_topic.totals[topic_name];
    ++h.by_age.cells[{bucket, age_name}];
    ++h.by_age.totals[age_name];
    Row row(AnnotatedSchema(),
            {Value(p.id), Value(t), Value(PostGenerator::HashtagName(hashtag)),
             Value(topic_name), Value(age_name)});
    table_->AddRow(row);
    chunk.push_back(std::move(row));
    if (static_cast<int64_t>(chunk.size()) == kChunk || i + 1 == rows) {
      FBSTREAM_RETURN_IF_ERROR(posts_by_id_->LoadRows(chunk));
      chunk.clear();
    }
  }
  return Status::OK();
}

void Chorus::StartConsumers() {
  puma_poller_->Start();
  laser_poller_->Start();
  scuba_poller_->Start();
  (void)pipeline_->Start();
}

void Chorus::PauseConsumers() {
  puma_poller_->Pause();
  (void)pipeline_->Stop();
  laser_poller_->Pause();
  scuba_poller_->Pause();
}

Status Chorus::ResumeConsumers() {
  FBSTREAM_RETURN_IF_ERROR(pipeline_->Start());
  puma_poller_->Resume();
  laser_poller_->Resume();
  scuba_poller_->Resume();
  return Status::OK();
}

void Chorus::StopConsumers() {
  puma_poller_->Stop();
  laser_poller_->Stop();
  scuba_poller_->Stop();
  if (pipeline_->running()) (void)pipeline_->Stop();
}

// Services go down before their directory does: removing it under a live
// LSM fails its background compaction.
Chorus::~Chorus() {
  puma_poller_.reset();
  laser_poller_.reset();
  scuba_poller_.reset();
  pipeline_.reset();
  puma_.reset();
  scuba_.reset();
  posts_by_id_.reset();
  join_.reset();
  hdfs_.reset();
  clients_.clear();
  if (server_ != nullptr) server_->Stop();
  server_.reset();
  bus_.reset();
  (void)RemoveAll(dir_);
}

// --- Dashboard storm clients -------------------------------------------------

struct TimedOp {
  int64_t start_ns = 0;
  double dur_ns = 0;
  double rows_scanned = 0;
};

scuba::Query DashboardQuery(const History& h, const std::string& group) {
  scuba::Query q;
  q.group_by = {group};
  q.time_column = "event_time";
  q.bucket_micros = kMicrosPerMinute;
  q.aggregates.push_back({scuba::AggKind::kCount, "", 0});
  q.min_time = h.start_us;
  q.max_time = h.end_us;
  q.limit = 7;
  return q;
}

// A dashboard answer is right when every returned cell holds the reference
// count, every series of a kept group is complete, and the kept groups are
// the top ones (ties may keep either).
bool DashboardMatches(const scuba::QueryResult& result,
                      const History::Cells& ref, size_t limit) {
  std::map<std::string, size_t> rows_per_group;
  for (const scuba::ResultRow& r : result.rows) {
    if (r.group.size() != 1 || r.aggregates.size() != 1) return false;
    const std::string g = r.group[0].ToString();
    auto it = ref.cells.find({r.bucket, g});
    if (it == ref.cells.end() ||
        static_cast<double>(it->second) != r.aggregates[0]) {
      return false;
    }
    ++rows_per_group[g];
  }
  if (rows_per_group.size() != std::min(limit, ref.totals.size())) {
    return false;
  }
  uint64_t min_kept = std::numeric_limits<uint64_t>::max();
  uint64_t max_dropped = 0;
  for (const auto& [g, total] : ref.totals) {
    if (rows_per_group.count(g) > 0) {
      min_kept = std::min(min_kept, total);
    } else {
      max_dropped = std::max(max_dropped, total);
    }
  }
  if (min_kept < max_dropped) return false;
  for (const auto& [g, n] : rows_per_group) {
    size_t expected = 0;
    for (const auto& [cell, count] : ref.cells) expected += cell.second == g;
    if (n != expected) return false;
  }
  return true;
}

// Closed loops with think time: kDashboardClients Scuba dashboards
// (alternating group by topic and by age bucket) and one zipf Laser reader
// over history ids.
class StormClients {
 public:
  StormClients(Chorus* chorus, uint64_t seed) : chorus_(chorus), seed_(seed) {}
  ~StormClients() { Stop(); }
  StormClients(const StormClients&) = delete;
  StormClients& operator=(const StormClients&) = delete;

  void Start() {
    queries_.resize(kDashboardClients);
    for (int c = 0; c < kDashboardClients; ++c) {
      threads_.emplace_back([this, c] { DashboardLoop(c); });
    }
    threads_.emplace_back([this] { ReaderLoop(); });
  }
  void Stop() {
    stop_.store(true);
    for (std::thread& t : threads_) t.join();
    threads_.clear();
  }

  std::vector<TimedOp> queries() const {
    std::vector<TimedOp> all;
    for (const auto& q : queries_) all.insert(all.end(), q.begin(), q.end());
    return all;
  }
  const std::vector<TimedOp>& gets() const { return gets_; }
  uint64_t attempted() const { return attempted_.load(); }
  uint64_t failed() const { return failed_.load(); }

 private:
  void DashboardLoop(int client) {
    const History& h = chorus_->history_;
    const scuba::Query by_topic = DashboardQuery(h, "topic");
    const scuba::Query by_age = DashboardQuery(h, "age_bucket");
    for (uint64_t i = client; !stop_.load(std::memory_order_relaxed); ++i) {
      const bool topic = i % 2 == 0;
      const int64_t start = NowNanos();
      auto result = chorus_->table_->Run(topic ? by_topic : by_age);
      const int64_t end = NowNanos();
      attempted_.fetch_add(1);
      if (result.ok() &&
          DashboardMatches(*result, topic ? h.by_topic : h.by_age, 7)) {
        queries_[client].push_back(
            {start, static_cast<double>(end - start),
             static_cast<double>(result->rows_scanned)});
      } else {
        failed_.fetch_add(1);
      }
      std::this_thread::sleep_for(kDashboardThink);
    }
  }

  void ReaderLoop() {
    const History& h = chorus_->history_;
    const uint64_t n = h.topic.size();
    Rng rng(seed_ ^ 0x1a5e7);
    Zipf zipf(n, 0.99);
    laser::LaserApp* app = chorus_->posts_by_id_.get();
    uint64_t rows[kGetBlock];
    std::vector<Value> keys(kGetBlock);
    std::vector<StatusOr<Row>> got(kGetBlock, Status::OK());
    while (!stop_.load(std::memory_order_relaxed)) {
      for (int k = 0; k < kGetBlock; ++k) {
        // Scatter popularity ranks over the id space.
        rows[k] = (zipf.Sample(&rng) * 2654435761ULL) % n;
        keys[k] = Value(kHistoryIdBase + static_cast<int64_t>(rows[k]));
      }
      const int64_t start = NowNanos();
      for (int k = 0; k < kGetBlock; ++k) got[k] = app->Get(keys[k]);
      gets_.push_back(
          {start, static_cast<double>(NowNanos() - start) / kGetBlock, 0});
      attempted_.fetch_add(kGetBlock, std::memory_order_relaxed);
      for (int k = 0; k < kGetBlock; ++k) {
        if (!got[k].ok() || got[k]->Get(0).ToString() !=
                                PostGenerator::TopicName(h.topic[rows[k]])) {
          failed_.fetch_add(1, std::memory_order_relaxed);
        }
      }
      std::this_thread::sleep_for(kReaderThink);
    }
  }

  Chorus* chorus_;
  uint64_t seed_;
  std::atomic<bool> stop_{false};
  std::vector<std::vector<TimedOp>> queries_;  // One per dashboard thread.
  std::vector<TimedOp> gets_;                  // Reader thread only.
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
  std::vector<std::thread> threads_;
};

// --- The run -----------------------------------------------------------------

void SleepUntil(int64_t t_ns) {
  const int64_t now = NowNanos();
  if (t_ns > now) std::this_thread::sleep_for(std::chrono::nanoseconds(t_ns - now));
}

bool WaitFor(const std::function<bool()>& done, double timeout_s) {
  const int64_t deadline = NowNanos() + static_cast<int64_t>(timeout_s * 1e9);
  while (!done()) {
    if (NowNanos() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  return true;
}

// Poll-stats counters at a window boundary.
struct PollMark {
  uint64_t polls = 0;
  uint64_t empty = 0;
  int64_t busy_ns = 0;
};
PollMark Mark(const PollStats& s) {
  return {s.polls.load(), s.empty_polls.load(), s.busy_ns.load()};
}

// Everything sampled at the traced window's two edges.
struct WindowMark {
  int64_t t_ns = 0;
  std::map<std::string, double> counters;
  ProcIo io;
  PollMark puma, laser, scuba;
  uint64_t serialize_calls = 0;
  uint64_t serialize_bytes = 0;
};

WindowMark TakeMark(Chorus& c) {
  WindowMark m;
  m.t_ns = NowNanos();
  m.counters = CounterSums();
  m.io = ReadProcIo();
  m.puma = Mark(c.puma_poller_->stats());
  m.laser = Mark(c.laser_poller_->stats());
  m.scuba = Mark(c.scuba_poller_->stats());
  m.serialize_calls = c.probes_.serialize_calls.load();
  m.serialize_bytes = c.probes_.serialize_bytes.load();
  return m;
}

class ErrorLog {
 public:
  explicit ErrorLog(RunResult* result) : result_(result) {}
  void Add(uint64_t n, const std::string& what) {
    if (n == 0) return;
    result_->failed += n;
    if (result_->errors.size() < kMaxErrors) {
      result_->errors.push_back(std::to_string(n) + " " + what);
    }
  }

 private:
  RunResult* result_;
};

double Ms(double ns) { return ns / 1e6; }
double Us(double ns) { return ns / 1e3; }

uint64_t AbsDiff(uint64_t a, uint64_t b) { return a > b ? a - b : b - a; }

// One run of one workload, phase by phase. Post i's hashtag is recorded as
// the generator produces it; everything the validator expects derives from
// that record.
class WorkloadRun {
 public:
  WorkloadRun(const WorkloadSpec& spec, const RunOptions& opt)
      : spec_(spec),
        opt_(opt),
        drain_events_(
            std::max<int64_t>(1, std::llround(spec.drain_events * opt.scale))),
        history_rows_(std::llround(spec.history_rows * opt.scale)),
        n_warm_(std::llround(spec.rate * opt.warmup_s)),
        n_meas_(std::max<int64_t>(1, std::llround(spec.rate * opt.measured_s))),
        n_open_(n_warm_ + n_meas_ * (opt.trace ? 2 : 1)),
        n_total_(n_open_ + drain_events_),
        traced_begin_(n_warm_ + n_meas_),
        hashtag_of_(static_cast<size_t>(n_total_), -1),
        gen_(opt.seed, 0),
        post_codec_(PostsSchema()) {}

  RunResult Run() {
    if (Setup()) {
      OpenLoop();
      Drain();
      ScanAnnotated();
      ReadBack();
      if (spec_.durable) CheckDurableState();
      result_.attempted = static_cast<uint64_t>(n_total_);
      if (clients_ != nullptr) {
        result_.attempted += clients_->attempted();
        errors_.Add(clients_->failed(), "storm queries or reads failed or wrong");
      }
      Report();
    }
    clients_.reset();
    chorus_.reset();
    (void)RemoveAll(opt_.work_dir);
    result_.correct = result_.failed == 0;
    return std::move(result_);
  }

 private:
  // Deploys setup_reps times; setup_s is the median, and the last
  // deployment runs.
  bool Setup() {
    for (int rep = 0; rep < std::max(1, opt_.setup_reps); ++rep) {
      chorus_.reset();
      const int64_t start = NowNanos();
      auto deployed = Chorus::Deploy(spec_, opt_.seed, history_rows_,
                                     opt_.work_dir + "/deploy" +
                                         std::to_string(rep));
      if (!deployed.ok()) {
        errors_.Add(1, "deploy: " + deployed.status().ToString());
        return false;
      }
      setup_s_.push_back((NowNanos() - start) / 1e9);
      chorus_ = std::move(deployed).value();
    }
    return true;
  }

  int64_t Due(int64_t id) const { return DueNanos(t0_, spec_.rate, id); }

  // Posts [0, n) with a hashtag: the rows each sink should end up with.
  uint64_t FilteredBelow(int64_t n) const {
    uint64_t count = 0;
    for (int64_t i = 0; i < n; ++i) count += hashtag_of_[i] >= 0;
    return count;
  }

  // The reference per-topic post counts over every post offered.
  std::vector<uint64_t> PostsPerTopic() const {
    std::vector<uint64_t> counts(PostGenerator::kTopics + 1, 0);
    for (const int32_t hashtag : hashtag_of_) {
      if (hashtag >= 0) ++counts[PostGenerator::TopicOf(hashtag)];
    }
    return counts;
  }

  bool WaitForSinks(uint64_t rows, double timeout_s) {
    Chorus& c = *chorus_;
    return WaitFor([&] { return c.laser_rows() >= rows && c.scuba_rows() >= rows; },
                   timeout_s);
  }

  // Warmup, the measured window and (traced runs) the traced window, with
  // the one load thread: the open-loop producer.
  void OpenLoop() {
    Chorus& c = *chorus_;
    c.StartConsumers();
    if (history_rows_ > 0) {
      clients_ = std::make_unique<StormClients>(&c, opt_.seed);
      clients_->Start();
    }
    t0_ = NowNanos() + 20'000'000;
    t_trace_ = Due(traced_begin_);
    t_end_ = Due(n_open_);
    producer_.late_ns.reserve(static_cast<size_t>(n_open_));
    producer_.write_ns.reserve(static_cast<size_t>(n_open_));
    std::thread producer([&] {
      scribe::Scribe* bus = c.producer_bus_;
      RunOpenLoop(
          t0_, spec_.rate, 0, n_open_,
          [&](int64_t i) {
            const Post p = gen_.Next();
            hashtag_of_[static_cast<size_t>(i)] = p.hashtag;
            const std::string payload = post_codec_.Encode(
                PostRow(p, SteadyClock::FromNanos(Due(i))));
            SpanLog::Scope span(SpanLog::Global(), SpanKind::kWrite, i,
                                i % kSpanSampleEvery == 0);
            return bus->Write("all_posts", static_cast<int>(i % kBuckets),
                              payload);
          },
          &producer_);
    });
    SleepUntil(t_trace_);
    if (opt_.trace) {
      before_ = TakeMark(c);
      SpanLog::Global()->set_enabled(true);
      SleepUntil(t_end_);
      SpanLog::Global()->set_enabled(false);
      after_ = TakeMark(c);
    }
    producer.join();
    if (clients_ != nullptr) clients_->Stop();
    errors_.Add(producer_.errors, "producer appends failed");
    if (!WaitForSinks(FilteredBelow(n_open_), 60)) {
      errors_.Add(1, "sinks did not catch up after the open loop");
    }
  }

  // kDrainRounds rounds: append a share of the backlog while every consumer
  // is paused, restart them, and time until both sinks applied all of it.
  void Drain() {
    Chorus& c = *chorus_;
    uint64_t append_errors = 0;
    for (int round = 0; round < kDrainRounds; ++round) {
      const int64_t begin = n_open_ + drain_events_ * round / kDrainRounds;
      const int64_t end = n_open_ + drain_events_ * (round + 1) / kDrainRounds;
      c.PauseConsumers();
      for (int64_t i = begin; i < end; ++i) {
        const Post p = gen_.Next();
        hashtag_of_[static_cast<size_t>(i)] = p.hashtag;
        append_errors +=
            !c.bus_->Write("all_posts", static_cast<int>(i % kBuckets),
                           post_codec_.Encode(PostRow(p, c.clock_->NowMicros())))
                 .ok();
      }
      const uint64_t expected = FilteredBelow(end);
      const int64_t start = NowNanos();
      if (!c.ResumeConsumers().ok()) errors_.Add(1, "consumers did not restart");
      if (!WaitForSinks(expected, 120)) {
        errors_.Add(1, "drain did not finish");
        break;
      }
      drain_eps_.push_back((end - begin) / ((NowNanos() - start) / 1e9));
    }
    errors_.Add(append_errors, "backlog appends failed");
    c.StopConsumers();
    errors_.Add(c.puma_poller_->stats().errors + c.laser_poller_->stats().errors +
                    c.scuba_poller_->stats().errors,
                "service polls failed");
  }

  // Walks annotated_posts: exactly-once and join checks, visibility per
  // message, and (traced runs) the hop split from the write times of the
  // intermediate categories.
  void ScanAnnotated() {
    Chorus& c = *chorus_;
    std::vector<int64_t> all_posts_wt;
    std::vector<int64_t> filtered_wt;
    if (opt_.trace) {
      all_posts_wt = WriteTimes("all_posts");
      filtered_wt = WriteTimes("filtered_posts");
    }
    std::vector<uint8_t> seen(static_cast<size_t>(n_total_), 0);
    uint64_t wrong = 0;
    uint64_t never_visible = 0;
    const TextRowCodec codec(AnnotatedSchema());
    ForEachMessage(c.bus_.get(), "annotated_posts",
                   [&](int bucket, const scribe::Message& m) {
      auto row = codec.Decode(m.payload);
      const int64_t id = row.ok() ? row->Get(0).CoerceInt64() : -1;
      if (id < 0 || id >= n_total_ || hashtag_of_[id] < 0) {
        ++wrong;
        return;
      }
      const int topic = PostGenerator::TopicOf(hashtag_of_[id]);
      if (row->Get(3).ToString() != PostGenerator::TopicName(topic) ||
          row->Get(2).ToString() != PostGenerator::HashtagName(hashtag_of_[id])) {
        ++wrong;
      }
      ++seen[id];
      const int64_t laser_at = c.laser_visible_.VisibleAt(bucket, m.sequence);
      const int64_t scuba_at = c.scuba_visible_.VisibleAt(bucket, m.sequence);
      if (laser_at < 0 || scuba_at < 0) {
        ++never_visible;
        return;
      }
      if (id < n_warm_ || id >= n_open_) return;
      const double due = static_cast<double>(Due(id));
      if (id < traced_begin_) {
        laser_lat_.push_back(laser_at - due);
        scuba_lat_.push_back(scuba_at - due);
        return;
      }
      laser_lat_traced_.push_back(laser_at - due);
      scuba_lat_traced_.push_back(scuba_at - due);
      const int64_t w2 = SteadyClock::ToNanos(m.write_time);
      const int64_t w1 = filtered_wt[id];
      const int64_t w0 = all_posts_wt[id];
      if (w0 >= 0 && w1 >= 0) {
        hop_puma_.push_back(static_cast<double>(w1 - w0));
        hop_stylus_.push_back(static_cast<double>(w2 - w1));
      }
      hop_laser_.push_back(static_cast<double>(laser_at - w2));
      hop_scuba_.push_back(static_cast<double>(scuba_at - w2));
    });
    uint64_t missing = 0;
    uint64_t duplicated = 0;
    for (int64_t id = 0; id < n_total_; ++id) {
      if (hashtag_of_[id] >= 0 && seen[id] == 0) ++missing;
      if (seen[id] > 1) duplicated += seen[id] - 1;
    }
    errors_.Add(wrong, "annotated rows unexpected or with a wrong join");
    errors_.Add(missing, "filtered posts missing from annotated_posts");
    errors_.Add(duplicated, "duplicate annotated rows");
    errors_.Add(never_visible, "annotated rows never applied by a sink");
  }

  // Write time (harness ns) per post id in a category, -1 where absent.
  std::vector<int64_t> WriteTimes(const std::string& category) {
    std::vector<int64_t> wt(static_cast<size_t>(n_total_), -1);
    ForEachMessage(chorus_->bus_.get(), category,
                   [&](int, const scribe::Message& m) {
      const int64_t id = LeadingId(m.payload);
      if (id >= 0 && id < n_total_) wt[id] = SteadyClock::ToNanos(m.write_time);
    });
    return wt;
  }

  // The validator's reads of both sinks, timed: posts_by_id for every post
  // id, and the Scuba per-topic counts over the live rows.
  void ReadBack() {
    Chorus& c = *chorus_;
    uint64_t laser_wrong = 0;
    std::vector<Value> keys(kGetBlock);
    std::vector<StatusOr<Row>> got(kGetBlock, Status::OK());
    for (int64_t first = 0; first < n_total_; first += kGetBlock) {
      const int n =
          static_cast<int>(std::min<int64_t>(kGetBlock, n_total_ - first));
      for (int k = 0; k < n; ++k) keys[k] = Value(first + k);
      const int64_t start = NowNanos();
      for (int k = 0; k < n; ++k) got[k] = c.posts_by_id_->Get(keys[k]);
      readback_get_ns_.push_back(static_cast<double>(NowNanos() - start) / n);
      for (int k = 0; k < n; ++k) {
        const int32_t hashtag = hashtag_of_[first + k];
        if (hashtag < 0) {
          laser_wrong += !got[k].status().IsNotFound();
        } else {
          laser_wrong += !got[k].ok() ||
                         got[k]->Get(0).ToString() !=
                             PostGenerator::TopicName(
                                 PostGenerator::TopicOf(hashtag));
        }
      }
    }
    errors_.Add(laser_wrong, "posts_by_id lookups wrong");
    const uint64_t expected = FilteredBelow(n_total_);
    errors_.Add(c.laser_rows() > expected ? c.laser_rows() - expected : 0,
                "extra rows applied to posts_by_id");

    scuba::Query per_topic;
    per_topic.group_by = {"topic"};
    per_topic.aggregates.push_back({scuba::AggKind::kCount, "", 0});
    // Live rows only: the storm's history sits before t0.
    per_topic.filters.push_back({"event_time", scuba::FilterOp::kGe,
                                 Value(SteadyClock::FromNanos(t0_))});
    per_topic.limit = PostGenerator::kTopics + 1;
    const std::vector<uint64_t> reference = PostsPerTopic();
    uint64_t scuba_wrong = 0;
    const int64_t queries_start = NowNanos();
    for (int q = 0; q < kReadbackQueries; ++q) {
      const int64_t start = NowNanos();
      auto result = c.table_->Run(per_topic);
      readback_query_ns_.push_back(static_cast<double>(NowNanos() - start));
      if (!result.ok()) {
        ++scuba_wrong;
        continue;
      }
      readback_scanned_.push_back(static_cast<double>(result->rows_scanned));
      std::vector<uint64_t> counts(PostGenerator::kTopics + 1, 0);
      for (const scuba::ResultRow& r : result->rows) {
        counts[TopicIndex(r.group[0].ToString())] +=
            static_cast<uint64_t>(r.aggregates[0]);
      }
      uint64_t diff = 0;
      for (size_t t = 0; t < counts.size(); ++t) {
        diff += AbsDiff(counts[t], reference[t]);
      }
      // Rows missing or extra in the first answer; later ones are repeats
      // of the same query, each wrong answer one failure.
      scuba_wrong += q == 0 ? diff : diff > 0;
    }
    readback_qps_ = kReadbackQueries / ((NowNanos() - queries_start) / 1e9);
    errors_.Add(scuba_wrong, "Scuba per-topic count errors");
  }

  // The exactly-once state: restart every annotator shard from its
  // checkpoint and compare the restored per-topic counts with the reference.
  void CheckDurableState() {
    Chorus& c = *chorus_;
    for (stylus::NodeShard* shard : c.pipeline_->Shards("annotator")) {
      shard->Crash();
      if (!shard->Recover().ok()) errors_.Add(1, "annotator shard recovery");
    }
    std::vector<uint64_t> state(PostGenerator::kTopics + 1, 0);
    for (CountingAnnotator* a : c.annotators_.Live()) {
      for (size_t t = 0; t < state.size(); ++t) state[t] += a->counts()[t];
    }
    const std::vector<uint64_t> reference = PostsPerTopic();
    uint64_t diff = 0;
    for (size_t t = 0; t < state.size(); ++t) {
      diff += AbsDiff(state[t], reference[t]);
    }
    errors_.Add(diff, "exactly-once per-topic state differences");
  }

  void Report() {
    const double laser_p50_ms = Ms(Percentile(&laser_lat_, 0.5));
    result_.end_to_end = {
        {"setup_s", Percentile(&setup_s_, 0.5), "s"},
        {"laser_visible_p50_ms", laser_p50_ms, "ms"},
        {"scuba_visible_p50_ms", Ms(Percentile(&scuba_lat_, 0.5)), "ms"},
        {"rss_peak_mb", PeakRssMb(), "MB"},
    };
    if (!opt_.trace) return;
    ReportPerLayer(laser_p50_ms);
    if (!opt_.trace_path.empty()) {
      const Status st =
          SpanLog::WriteJson(opt_.trace_path, SpanLog::Global()->Take(), t0_);
      if (!st.ok()) errors_.Add(1, "trace dump: " + st.ToString());
    }
  }

  void ReportPerLayer(double untraced_laser_p50_ms) {
    Chorus& c = *chorus_;
    const double window_ns = static_cast<double>(after_.t_ns - before_.t_ns);
    // Read side: the storm's clients in the traced window, otherwise the
    // validator's read-back of the sinks after the run.
    std::vector<double> query_ns = readback_query_ns_;
    std::vector<double> query_scanned = readback_scanned_;
    std::vector<double> get_ns = readback_get_ns_;
    double qps = readback_qps_;
    if (clients_ != nullptr) {
      query_ns.clear();
      query_scanned.clear();
      get_ns.clear();
      for (const TimedOp& op : clients_->queries()) {
        if (op.start_ns < t_trace_ || op.start_ns >= t_end_) continue;
        query_ns.push_back(op.dur_ns);
        query_scanned.push_back(op.rows_scanned);
      }
      for (const TimedOp& op : clients_->gets()) {
        if (op.start_ns >= t_trace_ && op.start_ns < t_end_) {
          get_ns.push_back(op.dur_ns);
        }
      }
      qps = query_ns.size() / (window_ns / 1e9);
    }
    auto delta = [&](const std::string& name) {
      return after_.counters[name] - before_.counters[name];
    };
    auto level_sum = [&](const char* fmt) {
      double sum = 0;
      for (int level = 0; level < 6; ++level) {
        char name[64];
        snprintf(name, sizeof(name), fmt, level);
        sum += delta(name);
      }
      return sum;
    };
    auto traced = [&](const std::vector<double>& v) {
      return std::vector<double>(v.begin() + traced_begin_, v.begin() + n_open_);
    };
    auto busy = [&](const PollMark& a, const PollMark& b) {
      return Ratio(static_cast<double>(b.busy_ns - a.busy_ns), window_ns);
    };
    std::vector<double> write_ns = traced(producer_.write_ns);
    std::vector<double> late_ns = traced(producer_.late_ns);
    PollStats& puma = c.puma_poller_->stats();
    PollStats& laser = c.laser_poller_->stats();
    PollStats& scuba = c.scuba_poller_->stats();
    std::vector<double> process_ns = c.probes_.process_ns.Take();
    std::vector<double> join_get_ns = c.probes_.join_get_ns.Take();
    std::vector<double> emit_ns = c.probes_.emit_ns.Take();
    const double wal_bytes = delta("lsm.wal.bytes");
    const double compaction_written =
        level_sum("lsm.compaction.level%d.bytes_written");
    const double cache_hits = delta("lsm.block_cache.hit");
    const double cache_misses = delta("lsm.block_cache.miss");
    const double events = static_cast<double>(n_meas_);
    result_.per_layer = {
        {"drain_eps", Percentile(&drain_eps_, 0.5), "events/s"},
        {"laser_visible_p99_ms", Ms(Percentile(&laser_lat_traced_, 0.99)),
         "ms"},
        {"scuba_visible_p99_ms", Ms(Percentile(&scuba_lat_traced_, 0.99)),
         "ms"},
        {"hop.puma_p50_ms", Ms(BinnedPercentile(&hop_puma_, 0.5, 1e3)), "ms"},
        {"hop.puma_p99_ms", Ms(BinnedPercentile(&hop_puma_, 0.99, 1e3)), "ms"},
        {"hop.stylus_p50_ms", Ms(BinnedPercentile(&hop_stylus_, 0.5, 1e3)),
         "ms"},
        {"hop.stylus_p99_ms", Ms(BinnedPercentile(&hop_stylus_, 0.99, 1e3)),
         "ms"},
        {"hop.laser_p50_ms", Ms(Percentile(&hop_laser_, 0.5)), "ms"},
        {"hop.laser_p99_ms", Ms(Percentile(&hop_laser_, 0.99)), "ms"},
        {"hop.scuba_p50_ms", Ms(Percentile(&hop_scuba_, 0.5)), "ms"},
        {"hop.scuba_p99_ms", Ms(Percentile(&hop_scuba_, 0.99)), "ms"},
        {"puma.poll_p50_us", Us(Percentile(&puma.poll_ns, 0.5)), "us"},
        {"puma.events_per_poll", Mean(puma.poll_rows), "events"},
        {"puma.busy_frac", busy(before_.puma, after_.puma), "fraction"},
        {"puma.empty_poll_frac",
         Ratio(static_cast<double>(after_.puma.empty - before_.puma.empty),
               static_cast<double>(after_.puma.polls - before_.puma.polls)),
         "fraction"},
        {"stylus.process_p50_us", Us(Percentile(&process_ns, 0.5)), "us"},
        {"stylus.join_get_p99_us", Us(Percentile(&join_get_ns, 0.99)), "us"},
        {"stylus.emit_p50_us", Us(Percentile(&emit_ns, 0.5)), "us"},
        {"stylus.events_per_batch",
         Ratio(delta("stylus.events.processed"),
               delta("stylus.continuous.batches")),
         "events"},
        {"stylus.backpressure_stalls",
         delta("stylus.continuous.backpressure_stalls"), "count"},
        {"stylus.state_bytes",
         Ratio(static_cast<double>(after_.serialize_bytes -
                                   before_.serialize_bytes),
               static_cast<double>(after_.serialize_calls -
                                   before_.serialize_calls)),
         "B"},
        {"stylus.checkpoints_per_s",
         Ratio(delta("stylus.checkpoints.completed"), window_ns / 1e9), "1/s"},
        {"scribe.append_p50_us", Us(Percentile(&write_ns, 0.5)), "us"},
        {"scribe.append_p99_us", Us(Percentile(&write_ns, 0.99)), "us"},
        {"scribe.write_syscalls_per_event",
         Ratio(static_cast<double>(after_.io.syscw - before_.io.syscw), events),
         "count"},
        {"scribe.write_bytes_per_event",
         Ratio(static_cast<double>(after_.io.write_bytes -
                                   before_.io.write_bytes),
               events),
         "B"},
        {"remote.rpcs_per_event", Ratio(delta("scribe.remote.rpcs"), events),
         "count"},
        {"remote.rpc_failures", delta("scribe.remote.rpc_failures"), "count"},
        {"laser.poll_p50_us", Us(Percentile(&laser.poll_ns, 0.5)), "us"},
        {"laser.poll_p99_us", Us(Percentile(&laser.poll_ns, 0.99)), "us"},
        {"laser.rows_per_poll", Mean(laser.poll_rows), "rows"},
        {"laser.busy_frac", busy(before_.laser, after_.laser), "fraction"},
        {"laser.get_p50_us", Us(Percentile(&get_ns, 0.5)), "us"},
        {"laser.get_p99_us", Us(Percentile(&get_ns, 0.99)), "us"},
        {"lsm.write_stalls", delta("lsm.write.stalls"), "count"},
        {"lsm.write_delays", delta("lsm.write.delays"), "count"},
        {"lsm.flushes", delta("lsm.flush.count"), "count"},
        {"lsm.compaction_mb",
         (level_sum("lsm.compaction.level%d.bytes_read") + compaction_written) /
             1e6,
         "MB"},
        {"lsm.write_amp", Ratio(wal_bytes + compaction_written, wal_bytes),
         "ratio"},
        {"lsm.block_cache_hit_ratio",
         Ratio(cache_hits, cache_hits + cache_misses), "ratio"},
        {"scuba.poll_p50_us", Us(Percentile(&scuba.poll_ns, 0.5)), "us"},
        {"scuba.rows_per_poll", Mean(scuba.poll_rows), "rows"},
        {"scuba.busy_frac", busy(before_.scuba, after_.scuba), "fraction"},
        {"scuba.query_p50_ms", Ms(Percentile(&query_ns, 0.5)), "ms"},
        {"scuba.query_p99_ms", Ms(Percentile(&query_ns, 0.99)), "ms"},
        {"scuba.qps", qps, "1/s"},
        {"scuba.rows_scanned_per_query", Mean(query_scanned), "rows"},
        {"hdfs.backups", delta("hdfs.backup.completed"), "count"},
        {"hdfs.backup_mb", delta("hdfs.write.bytes") / 1e6, "MB"},
        {"gen.late_p99_ms", Ms(Percentile(&late_ns, 0.99)), "ms"},
        {"trace.overhead_p50_ms",
         Ms(Percentile(&laser_lat_traced_, 0.5)) - untraced_laser_p50_ms,
         "ms"},
    };
  }

  const WorkloadSpec& spec_;
  const RunOptions& opt_;
  RunResult result_;
  ErrorLog errors_{&result_};
  const int64_t drain_events_;
  const int64_t history_rows_;
  // Post ids: [0, n_warm_) warmup, then the measured window, then (traced
  // runs) the traced window from traced_begin_, then the drain backlog.
  const int64_t n_warm_;
  const int64_t n_meas_;
  const int64_t n_open_;
  const int64_t n_total_;
  const int64_t traced_begin_;
  std::vector<int32_t> hashtag_of_;
  PostGenerator gen_;
  const TextRowCodec post_codec_;

  std::unique_ptr<Chorus> chorus_;
  std::unique_ptr<StormClients> clients_;
  std::vector<double> setup_s_;
  int64_t t0_ = 0;
  int64_t t_trace_ = 0;
  int64_t t_end_ = 0;
  ProducerStats producer_;
  WindowMark before_;
  WindowMark after_;
  std::vector<double> drain_eps_;
  std::vector<double> laser_lat_, scuba_lat_;
  std::vector<double> laser_lat_traced_, scuba_lat_traced_;
  std::vector<double> hop_puma_, hop_stylus_, hop_laser_, hop_scuba_;
  std::vector<double> readback_get_ns_;
  std::vector<double> readback_query_ns_;
  std::vector<double> readback_scanned_;
  double readback_qps_ = 0;
};

}  // namespace

RunResult RunWorkload(const WorkloadSpec& spec, const RunOptions& options) {
  return WorkloadRun(spec, options).Run();
}

}  // namespace fbstream::bench::e2e
