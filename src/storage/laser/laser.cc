#include "storage/laser/laser.h"

#include <cstdint>

#include "common/fs.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/serde.h"
#include "storage/hive/hive.h"

namespace fbstream::laser {

namespace {
constexpr char kKeySeparator = '\x01';
// ColumnMap position of a column the row's schema lacks.
constexpr size_t kAbsentColumn = SIZE_MAX;

// The row's value at a ColumnMap position (NULL past the row's width).
const Value& Cell(const Row& row, size_t at) {
  static const Value kNull;
  return at < row.num_columns() ? row.Get(at) : kNull;
}

// One key column's bytes: the value's text form (strings verbatim).
void AppendKeyPart(const Value& v, std::string* out) {
  if (v.type() == ValueType::kString) {
    *out += v.AsString();
  } else {
    *out += v.ToString();
  }
}
}  // namespace

// The lean row encoder: appends rows to one lsm::WriteBatch and commits it
// with a single Db::Write (one writer-queue handoff and one WAL append for
// the whole batch, instead of one per row). Key and value scratch buffers
// are reused row to row, rows of the app's input schema use the column
// positions resolved at Create, and the clock is read once per batch for
// the TTL. A writer lives for one ingest call, so concurrent ingest calls
// share no scratch state.
class LaserApp::BatchWriter {
 public:
  explicit BatchWriter(LaserApp* app) : app_(app) {}

  // Encodes one row into the batch; returns the batch's encoded bytes so
  // far (key plus value, as the LSM's group cap counts them).
  size_t Add(const Row& row) {
    if (batch_.empty() && app_->config_.ttl_micros > 0) {
      expire_at_ = static_cast<uint64_t>(app_->clock_->NowMicros() +
                                         app_->config_.ttl_micros);
    }
    const ColumnMap& columns = ColumnsFor(row.schema());
    key_.clear();
    for (size_t i = 0; i < columns.key.size(); ++i) {
      if (i > 0) key_.push_back(kKeySeparator);
      AppendKeyPart(Cell(row, columns.key[i]), &key_);
    }
    // Stored value = expiry timestamp (0 = never) + encoded value row.
    value_.clear();
    PutVarint64(&value_, expire_at_);
    app_->value_codec_.EncodeColumns(row, columns.value, &value_);
    batch_.Put(key_, value_);
    bytes_ += key_.size() + value_.size();
    return bytes_;
  }

  size_t rows() const { return batch_.size(); }

  // Writes the batch atomically (nothing when empty) and counts its rows
  // as ingested once the write has succeeded.
  Status Commit() {
    FBSTREAM_RETURN_IF_ERROR(app_->db_->Write(batch_));
    app_->rows_ingested_.fetch_add(batch_.size(), std::memory_order_relaxed);
    batch_.Clear();
    bytes_ = 0;
    return Status::OK();
  }

 private:
  // Rows normally carry the input schema; LoadRows may pass rows of another
  // schema (a Hive table, a Presto result), resolved once per schema seen.
  const ColumnMap& ColumnsFor(const SchemaPtr& schema) {
    if (schema == app_->input_columns_.schema) return app_->input_columns_;
    if (schema != other_.schema) other_ = app_->ResolveColumns(schema);
    return other_;
  }

  LaserApp* app_;
  lsm::WriteBatch batch_;
  size_t bytes_ = 0;
  uint64_t expire_at_ = 0;
  std::string key_;
  std::string value_;
  ColumnMap other_;
};

LaserApp::LaserApp(LaserAppConfig config, Clock* clock)
    : config_(std::move(config)),
      clock_(clock),
      value_codec_(nullptr),
      reads_(MetricsRegistry::Global()->GetCounter("laser.read.queries",
                                                   config_.name)),
      read_misses_(MetricsRegistry::Global()->GetCounter("laser.read.misses",
                                                         config_.name)) {
  // Create has checked that every key and value column is in the schema.
  input_columns_ = ResolveColumns(config_.input_schema);
  std::vector<Column> value_columns;
  for (const size_t i : input_columns_.value) {
    value_columns.push_back(config_.input_schema->column(i));
  }
  value_schema_ = Schema::Make(std::move(value_columns));
  value_codec_ = BinaryRowCodec(value_schema_);
}

LaserApp::ColumnMap LaserApp::ResolveColumns(const SchemaPtr& schema) const {
  const auto position = [&schema](const std::string& name) {
    const int i = schema == nullptr ? -1 : schema->IndexOf(name);
    return i < 0 ? kAbsentColumn : static_cast<size_t>(i);
  };
  ColumnMap map;
  map.schema = schema;
  for (const std::string& name : config_.key_columns) {
    map.key.push_back(position(name));
  }
  for (const std::string& name : config_.value_columns) {
    map.value.push_back(position(name));
  }
  return map;
}

StatusOr<std::unique_ptr<LaserApp>> LaserApp::Create(
    const LaserAppConfig& config, scribe::Scribe* scribe, Clock* clock,
    const std::string& dir) {
  if (config.input_schema == nullptr) {
    return Status::InvalidArgument("laser app needs an input schema");
  }
  if (config.key_columns.empty()) {
    return Status::InvalidArgument("laser app needs key columns");
  }
  for (const std::string& col : config.key_columns) {
    if (!config.input_schema->Has(col)) {
      return Status::InvalidArgument("unknown key column " + col);
    }
  }
  for (const std::string& col : config.value_columns) {
    if (!config.input_schema->Has(col)) {
      return Status::InvalidArgument("unknown value column " + col);
    }
  }
  std::unique_ptr<LaserApp> app(new LaserApp(config, clock));
  FBSTREAM_ASSIGN_OR_RETURN(app->db_, lsm::Db::Open(config.db_options, dir));
  if (!config.scribe_category.empty()) {
    if (scribe == nullptr || !scribe->HasCategory(config.scribe_category)) {
      return Status::InvalidArgument("unknown scribe category " +
                                     config.scribe_category);
    }
    const int buckets = scribe->NumBuckets(config.scribe_category);
    for (int b = 0; b < buckets; ++b) {
      app->tailers_.emplace_back(scribe, config.scribe_category, b);
    }
  }
  return app;
}

void LaserApp::EncodeKeyInto(const std::vector<Value>& key,
                             std::string* out) {
  for (size_t i = 0; i < key.size(); ++i) {
    if (i > 0) out->push_back(kKeySeparator);
    AppendKeyPart(key[i], out);
  }
}

StatusOr<size_t> LaserApp::PollOnce() {
  TextRowCodec codec(config_.input_schema);
  BatchWriter writer(this);
  size_t applied = 0;
  for (scribe::Tailer& tailer : tailers_) {
    while (true) {
      const std::vector<scribe::Message> messages = tailer.Poll();
      if (messages.empty()) break;
      for (const scribe::Message& m : messages) {
        auto row = codec.Decode(m.payload);
        if (!row.ok()) {
          FBSTREAM_LOG(Warning) << "laser " << config_.name
                                << ": bad row: " << row.status();
          continue;
        }
        writer.Add(*row);
      }
      const size_t rows = writer.rows();
      const Status st = writer.Commit();
      if (!st.ok()) {
        // Nothing of this poll was applied: rewind so the next PollOnce
        // re-reads all of it instead of skipping the rest of the batch.
        tailer.Seek(messages.front().sequence);
        return st;
      }
      applied += rows;
    }
  }
  return applied;
}

StatusOr<Row> LaserApp::Get(const std::vector<Value>& key) const {
  num_queries_.fetch_add(1, std::memory_order_relaxed);
  reads_->Add(1);
  // Warm thread-local buffers: after the first call on a thread, encoding
  // the key and fetching the stored value allocate nothing.
  thread_local std::string key_buf;
  thread_local std::string value_buf;
  key_buf.clear();
  EncodeKeyInto(key, &key_buf);
  const Status st = db_->GetInto(key_buf, &value_buf);
  if (!st.ok()) {
    if (st.IsNotFound()) read_misses_->Add(1);
    return st;
  }
  std::string_view view(value_buf);
  uint64_t expire_at = 0;
  if (!GetVarint64(&view, &expire_at)) {
    return Status::Corruption("laser value header");
  }
  if (expire_at != 0 &&
      static_cast<Micros>(expire_at) <= clock_->NowMicros()) {
    read_misses_->Add(1);
    return Status::NotFound("expired");
  }
  return value_codec_.Decode(view);
}

StatusOr<Row> LaserApp::Get(const Value& key) const {
  return Get(std::vector<Value>{key});
}

std::vector<StatusOr<Row>> LaserApp::MultiGet(
    const std::vector<std::vector<Value>>& keys) const {
  std::vector<StatusOr<Row>> out;
  out.reserve(keys.size());
  for (const auto& key : keys) out.push_back(Get(key));
  return out;
}

Status LaserApp::LoadFromHive(const hive::Hive& hive, const std::string& table,
                              const std::string& ds) {
  FBSTREAM_ASSIGN_OR_RETURN(std::vector<Row> rows,
                            hive.ReadPartition(table, ds));
  return LoadRows(rows);
}

Status LaserApp::LoadRows(const std::vector<Row>& rows) {
  BatchWriter writer(this);
  for (const Row& row : rows) {
    if (writer.Add(row) >= lsm::kMaxGroupBytes) {
      FBSTREAM_RETURN_IF_ERROR(writer.Commit());
    }
  }
  return writer.Commit();
}

Laser::Laser(scribe::Scribe* scribe, Clock* clock, std::string root_dir)
    : scribe_(scribe), clock_(clock), root_(std::move(root_dir)) {}

Status Laser::DeployApp(const LaserAppConfig& config) {
  if (apps_.count(config.name) > 0) {
    return Status::AlreadyExists("laser app " + config.name);
  }
  FBSTREAM_ASSIGN_OR_RETURN(
      auto app,
      LaserApp::Create(config, scribe_, clock_, root_ + "/" + config.name));
  apps_.emplace(config.name, std::move(app));
  return Status::OK();
}

Status Laser::DeleteApp(const std::string& name) {
  auto it = apps_.find(name);
  if (it == apps_.end()) return Status::NotFound("laser app " + name);
  apps_.erase(it);
  return RemoveAll(root_ + "/" + name);
}

LaserApp* Laser::GetApp(const std::string& name) const {
  auto it = apps_.find(name);
  return it == apps_.end() ? nullptr : it->second.get();
}

std::vector<std::string> Laser::ListApps() const {
  std::vector<std::string> names;
  for (const auto& [name, app] : apps_) names.push_back(name);
  return names;
}

void Laser::PollAll() {
  for (auto& [name, app] : apps_) {
    const auto result = app->PollOnce();
    if (!result.ok()) {
      FBSTREAM_LOG(Warning) << "laser poll " << name << ": "
                            << result.status();
    }
  }
}

}  // namespace fbstream::laser
