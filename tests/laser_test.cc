// Tests for Laser: app configuration, realtime Scribe ingestion, key/value
// column projection, TTL expiry, Hive bulk loads, deploy/delete, batched
// ingest (one WAL append per poll / per ~1 MiB load chunk, whole-poll retry
// after a failed write, readers racing batch writes).

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "common/fault.h"
#include "common/fs.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/serde.h"
#include "storage/hive/hive.h"
#include "storage/laser/laser.h"

namespace fbstream::laser {
namespace {

class LaserTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = MakeTempDir("laser");
    scribe_ = std::make_unique<scribe::Scribe>(&clock_);
    scribe::CategoryConfig config;
    config.name = "dim_stream";
    config.num_buckets = 2;
    ASSERT_TRUE(scribe_->CreateCategory(config).ok());
    schema_ = Schema::Make({{"dim_id", ValueType::kInt64},
                            {"language", ValueType::kString},
                            {"country", ValueType::kString}});
  }
  void TearDown() override { ASSERT_TRUE(RemoveAll(dir_).ok()); }

  LaserAppConfig BaseConfig() {
    LaserAppConfig config;
    config.name = "dims";
    config.scribe_category = "dim_stream";
    config.input_schema = schema_;
    config.key_columns = {"dim_id"};
    config.value_columns = {"language", "country"};
    return config;
  }

  void WriteDim(int64_t id, const std::string& lang,
                const std::string& country) {
    TextRowCodec codec(schema_);
    Row row(schema_, {Value(id), Value(lang), Value(country)});
    ASSERT_TRUE(
        scribe_->WriteSharded("dim_stream", std::to_string(id),
                              codec.Encode(row))
            .ok());
  }

  std::string dir_;
  SimClock clock_{1'000'000};
  std::unique_ptr<scribe::Scribe> scribe_;
  SchemaPtr schema_;
};

TEST_F(LaserTest, IngestAndGet) {
  auto app = LaserApp::Create(BaseConfig(), scribe_.get(), &clock_,
                              dir_ + "/dims");
  ASSERT_TRUE(app.ok()) << app.status();
  WriteDim(42, "en", "US");
  WriteDim(7, "pt", "BR");
  auto ingested = (*app)->PollOnce();
  ASSERT_TRUE(ingested.ok());
  EXPECT_EQ(*ingested, 2u);

  auto row = (*app)->Get(Value(42));
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row->Get("language").AsString(), "en");
  EXPECT_EQ(row->Get("country").AsString(), "US");

  EXPECT_TRUE((*app)->Get(Value(999)).status().IsNotFound());
}

TEST_F(LaserTest, LatestWriteWinsPerKey) {
  auto app = LaserApp::Create(BaseConfig(), scribe_.get(), &clock_,
                              dir_ + "/dims");
  ASSERT_TRUE(app.ok());
  WriteDim(1, "en", "US");
  WriteDim(1, "fr", "FR");
  ASSERT_TRUE((*app)->PollOnce().ok());
  auto row = (*app)->Get(Value(1));
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row->Get("language").AsString(), "fr");
}

TEST_F(LaserTest, TtlExpiresKeys) {
  LaserAppConfig config = BaseConfig();
  config.ttl_micros = 10 * kMicrosPerSecond;
  auto app = LaserApp::Create(config, scribe_.get(), &clock_, dir_ + "/ttl");
  ASSERT_TRUE(app.ok());
  WriteDim(5, "de", "DE");
  ASSERT_TRUE((*app)->PollOnce().ok());
  EXPECT_TRUE((*app)->Get(Value(5)).ok());
  clock_.AdvanceMicros(11 * kMicrosPerSecond);
  EXPECT_TRUE((*app)->Get(Value(5)).status().IsNotFound());
}

TEST_F(LaserTest, MultiColumnKeys) {
  LaserAppConfig config = BaseConfig();
  config.key_columns = {"language", "country"};
  config.value_columns = {"dim_id"};
  auto app = LaserApp::Create(config, scribe_.get(), &clock_, dir_ + "/mc");
  ASSERT_TRUE(app.ok());
  WriteDim(10, "en", "US");
  WriteDim(11, "en", "GB");
  ASSERT_TRUE((*app)->PollOnce().ok());
  auto us = (*app)->Get({Value("en"), Value("US")});
  ASSERT_TRUE(us.ok());
  EXPECT_EQ(us->Get("dim_id").AsInt64(), 10);
  auto gb = (*app)->Get({Value("en"), Value("GB")});
  ASSERT_TRUE(gb.ok());
  EXPECT_EQ(gb->Get("dim_id").AsInt64(), 11);
}

TEST_F(LaserTest, MultiGet) {
  auto app = LaserApp::Create(BaseConfig(), scribe_.get(), &clock_,
                              dir_ + "/mg");
  ASSERT_TRUE(app.ok());
  WriteDim(1, "en", "US");
  WriteDim(2, "es", "MX");
  ASSERT_TRUE((*app)->PollOnce().ok());
  auto results = (*app)->MultiGet({{Value(1)}, {Value(2)}, {Value(3)}});
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_TRUE(results[1].ok());
  EXPECT_TRUE(results[2].status().IsNotFound());
}

TEST_F(LaserTest, RejectsBadConfigs) {
  LaserAppConfig config = BaseConfig();
  config.key_columns = {"no_such_column"};
  EXPECT_FALSE(
      LaserApp::Create(config, scribe_.get(), &clock_, dir_ + "/bad").ok());

  config = BaseConfig();
  config.key_columns.clear();
  EXPECT_FALSE(
      LaserApp::Create(config, scribe_.get(), &clock_, dir_ + "/bad2").ok());

  config = BaseConfig();
  config.scribe_category = "missing_category";
  EXPECT_FALSE(
      LaserApp::Create(config, scribe_.get(), &clock_, dir_ + "/bad3").ok());
}

TEST_F(LaserTest, LoadFromHiveOnceADay) {
  // §2.5: "Laser can read ... from any Hive table once a day."
  hive::Hive hive(dir_ + "/hive");
  ASSERT_TRUE(hive.CreateTable("dim_daily", schema_).ok());
  std::vector<Row> rows;
  rows.emplace_back(schema_, std::vector<Value>{Value(100), Value("jp"),
                                                Value("JP")});
  rows.emplace_back(schema_, std::vector<Value>{Value(101), Value("ko"),
                                                Value("KR")});
  ASSERT_TRUE(hive.WritePartition("dim_daily", "2016-02-01", rows).ok());
  ASSERT_TRUE(hive.LandPartition("dim_daily", "2016-02-01").ok());

  LaserAppConfig config = BaseConfig();
  config.scribe_category.clear();  // Hive-only app.
  auto app = LaserApp::Create(config, scribe_.get(), &clock_, dir_ + "/hv");
  ASSERT_TRUE(app.ok()) << app.status();
  ASSERT_TRUE((*app)->LoadFromHive(hive, "dim_daily", "2016-02-01").ok());
  auto row = (*app)->Get(Value(100));
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row->Get("language").AsString(), "jp");
}

TEST_F(LaserTest, ServiceDeployAndDelete) {
  Laser service(scribe_.get(), &clock_, dir_ + "/svc");
  ASSERT_TRUE(service.DeployApp(BaseConfig()).ok());
  EXPECT_EQ(service.DeployApp(BaseConfig()).code(),
            StatusCode::kAlreadyExists);
  ASSERT_NE(service.GetApp("dims"), nullptr);
  EXPECT_EQ(service.ListApps(), std::vector<std::string>{"dims"});

  WriteDim(1, "en", "US");
  service.PollAll();
  EXPECT_TRUE(service.GetApp("dims")->Get(Value(1)).ok());

  ASSERT_TRUE(service.DeleteApp("dims").ok());
  EXPECT_EQ(service.GetApp("dims"), nullptr);
  EXPECT_TRUE(service.DeleteApp("dims").IsNotFound());
}

TEST_F(LaserTest, FailedPollWriteAppliesNothingAndRetriesTheWholePoll) {
  FaultRegistry::Global()->Reset();
  auto app = LaserApp::Create(BaseConfig(), scribe_.get(), &clock_,
                              dir_ + "/retry");
  ASSERT_TRUE(app.ok()) << app.status();
  constexpr int kRows = 40;
  for (int64_t id = 0; id < kRows; ++id) WriteDim(id, "en", "US");

  // The first batch write fails before reaching the WAL.
  FaultRegistry::Global()->FailNext("lsm.wal.append", StatusCode::kIoError);
  EXPECT_FALSE((*app)->PollOnce().ok());
  for (int64_t id = 0; id < kRows; ++id) {
    EXPECT_TRUE((*app)->Get(Value(id)).status().IsNotFound()) << id;
  }
  EXPECT_EQ((*app)->rows_ingested(), 0u);

  // The next poll re-reads the failed poll whole: every row exactly once.
  FaultRegistry::Global()->Reset();
  auto applied = (*app)->PollOnce();
  ASSERT_TRUE(applied.ok()) << applied.status();
  EXPECT_EQ(*applied, static_cast<size_t>(kRows));
  EXPECT_EQ((*app)->rows_ingested(), static_cast<uint64_t>(kRows));
  for (int64_t id = 0; id < kRows; ++id) {
    EXPECT_TRUE((*app)->Get(Value(id)).ok()) << id;
  }
  applied = (*app)->PollOnce();
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(*applied, 0u);
  EXPECT_EQ((*app)->rows_ingested(), static_cast<uint64_t>(kRows));
}

TEST_F(LaserTest, LoadRowsWritesOneWalAppendPerMegabyteChunk) {
  LaserAppConfig config = BaseConfig();
  config.scribe_category.clear();
  auto app = LaserApp::Create(config, scribe_.get(), &clock_, dir_ + "/bulk");
  ASSERT_TRUE(app.ok()) << app.status();
  constexpr int64_t kRows = 100'000;
  std::vector<Row> rows;
  rows.reserve(kRows);
  // What Laser stores per row: the key text, and the value row behind a
  // one-byte zero expiry.
  const SchemaPtr value_schema = Schema::Make(
      {{"language", ValueType::kString}, {"country", ValueType::kString}});
  BinaryRowCodec value_codec(value_schema);
  uint64_t encoded_bytes = 0;
  for (int64_t id = 0; id < kRows; ++id) {
    const std::string key = std::to_string(id);
    const Value language("lang-" + key);
    rows.emplace_back(schema_,
                      std::vector<Value>{Value(id), language, Value("XX")});
    encoded_bytes +=
        key.size() + 1 +
        value_codec.Encode(Row(value_schema, {language, Value("XX")})).size();
  }
  Counter* wal_appends =
      MetricsRegistry::Global()->GetCounter("lsm.wal.appends");
  const uint64_t before = wal_appends->value();
  ASSERT_TRUE((*app)->LoadRows(rows).ok());
  const uint64_t appends = wal_appends->value() - before;
  EXPECT_LE(appends, (encoded_bytes + lsm::kMaxGroupBytes - 1) /
                             lsm::kMaxGroupBytes +
                         1);
  EXPECT_GT(appends, 1u);  // The load is chunked, not one giant batch.
  EXPECT_EQ((*app)->rows_ingested(), static_cast<uint64_t>(kRows));
  for (const int64_t id : {int64_t{0}, kRows / 2, kRows - 1}) {
    auto row = (*app)->Get(Value(id));
    ASSERT_TRUE(row.ok()) << id;
    EXPECT_EQ(row->Get("language").AsString(), "lang-" + std::to_string(id));
    EXPECT_EQ(row->Get("country").AsString(), "XX");
  }
}

TEST_F(LaserTest, LoadRowsResolvesColumnsOfOtherSchemasByName) {
  LaserAppConfig config = BaseConfig();
  config.scribe_category.clear();
  auto app = LaserApp::Create(config, scribe_.get(), &clock_, dir_ + "/other");
  ASSERT_TRUE(app.ok()) << app.status();
  // Reordered columns, and no "country" at all (stored as NULL).
  const SchemaPtr other = Schema::Make(
      {{"language", ValueType::kString}, {"dim_id", ValueType::kInt64}});
  ASSERT_TRUE((*app)
                  ->LoadRows({Row(other, {Value("sv"), Value(int64_t{3})}),
                              Row(schema_, {Value(int64_t{4}), Value("fi"),
                                            Value("FI")})})
                  .ok());
  auto sv = (*app)->Get(Value(3));
  ASSERT_TRUE(sv.ok()) << sv.status();
  EXPECT_EQ(sv->Get("language").AsString(), "sv");
  EXPECT_TRUE(sv->Get("country").is_null());
  auto fi = (*app)->Get(Value(4));
  ASSERT_TRUE(fi.ok()) << fi.status();
  EXPECT_EQ(fi->Get("country").AsString(), "FI");
}

// Get readers race PollOnce and LoadRows batches that overwrite the same
// keys: every read sees a row absent or whole, never a mix of versions.
TEST_F(LaserTest, ReadersSeeRowsAbsentOrWholeDuringBatchedIngest) {
  auto app = LaserApp::Create(BaseConfig(), scribe_.get(), &clock_,
                              dir_ + "/race");
  ASSERT_TRUE(app.ok()) << app.status();
  LaserApp* laser = app->get();
  constexpr int64_t kKeys = 500;
  constexpr int kRounds = 20;
  const auto cell = [](int round, int64_t id) {
    return "v" + std::to_string(round) + "-" + std::to_string(id);
  };
  std::atomic<bool> done{false};
  std::atomic<uint64_t> torn{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(static_cast<uint64_t>(r) + 1);
      while (!done.load(std::memory_order_acquire)) {
        const int64_t id = static_cast<int64_t>(rng.Uniform(kKeys));
        auto row = laser->Get(Value(id));
        if (!row.ok()) {
          if (!row.status().IsNotFound()) torn.fetch_add(1);
          continue;
        }
        const std::string lang = row->Get("language").AsString();
        const std::string suffix = "-" + std::to_string(id);
        if (lang != row->Get("country").AsString() ||
            lang.size() < suffix.size() ||
            lang.compare(lang.size() - suffix.size(), suffix.size(),
                         suffix) != 0) {
          torn.fetch_add(1);
        }
      }
    });
  }
  for (int round = 0; round < kRounds; ++round) {
    if (round % 2 == 0) {
      std::vector<Row> rows;
      for (int64_t id = 0; id < kKeys; ++id) {
        rows.emplace_back(schema_, std::vector<Value>{Value(id),
                                                      Value(cell(round, id)),
                                                      Value(cell(round, id))});
      }
      EXPECT_TRUE(laser->LoadRows(rows).ok());
    } else {
      for (int64_t id = 0; id < kKeys; ++id) {
        WriteDim(id, cell(round, id), cell(round, id));
      }
      auto applied = laser->PollOnce();
      EXPECT_TRUE(applied.ok() && *applied == static_cast<size_t>(kKeys));
    }
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(torn.load(), 0u);
  EXPECT_EQ(laser->rows_ingested(), static_cast<uint64_t>(kKeys * kRounds));
}

}  // namespace
}  // namespace fbstream::laser
