#include "puma/app.h"

#include <algorithm>

#include "common/logging.h"
#include "common/serde.h"
#include "puma/expr.h"

namespace fbstream::puma {

PumaApp::PumaApp(AppSpec spec, scribe::Scribe* scribe, Clock* clock,
                 PumaAppOptions options)
    : spec_(std::move(spec)),
      scribe_(scribe),
      clock_(clock),
      options_(options) {}

StatusOr<std::unique_ptr<PumaApp>> PumaApp::Create(AppSpec spec,
                                                   scribe::Scribe* scribe,
                                                   Clock* clock,
                                                   PumaAppOptions options) {
  std::unique_ptr<PumaApp> app(
      new PumaApp(std::move(spec), scribe, clock, options));
  // Validate inputs and build schemas.
  for (const CreateInputTableStmt& input : app->spec_.inputs) {
    if (!scribe->HasCategory(input.scribe_category)) {
      return Status::NotFound("scribe category " + input.scribe_category);
    }
    app->input_schemas_.emplace(input.name, Schema::Make(input.columns));
    app->inputs_.emplace(input.name, &input);
    if (!input.laser_app.empty()) {
      if (options.laser == nullptr) {
        return Status::InvalidArgument(
            "input " + input.name + " declares JOIN LASER(\"" +
            input.laser_app + "\") but no Laser service is configured");
      }
      laser::LaserApp* laser_app = options.laser->GetApp(input.laser_app);
      if (laser_app == nullptr) {
        return Status::NotFound("laser app " + input.laser_app);
      }
      app->lookups_.emplace(input.name, laser_app);
    }
  }
  for (const CreateStreamStmt& stream : app->spec_.streams) {
    if (!scribe->HasCategory(stream.output_category)) {
      return Status::NotFound("output category " + stream.output_category);
    }
    std::vector<Column> columns;
    for (const SelectItem& item : stream.items) {
      Column c;
      c.name = item.alias;
      c.type = ValueType::kString;
      if (item.expr->kind == ExprKind::kColumn) {
        const SchemaPtr& in = app->input_schemas_.at(stream.from);
        const int i = in->IndexOf(item.expr->column);
        if (i >= 0) c.type = in->column(static_cast<size_t>(i)).type;
      }
      columns.push_back(std::move(c));
    }
    app->stream_schemas_.emplace(stream.name,
                                 Schema::Make(std::move(columns)));
  }
  FBSTREAM_RETURN_IF_ERROR(app->Start());
  return app;
}

Status PumaApp::Start() {
  // (Re)build aggregation engines, compiled stream runtimes, and tailers.
  tables_.clear();
  readers_.clear();
  stream_runtimes_.clear();
  for (const CreateTableStmt& table : spec_.tables) {
    const CreateInputTableStmt* input = inputs_.at(table.from);
    tables_.emplace(table.name, std::make_unique<TableAggregation>(
                                    &table, input_schemas_.at(table.from),
                                    input->time_column));
  }
  for (const CreateStreamStmt& stream : spec_.streams) {
    const SchemaPtr& in_schema = input_schemas_.at(stream.from);
    StreamRuntime runtime;
    runtime.stmt = &stream;
    if (stream.where != nullptr) {
      runtime.where = CompiledExpr::Compile(*stream.where, in_schema);
    }
    runtime.items.reserve(stream.items.size());
    for (const SelectItem& item : stream.items) {
      runtime.items.push_back(CompiledExpr::Compile(*item.expr, in_schema));
    }
    runtime.out_schema = stream_schemas_.at(stream.name);
    runtime.codec = std::make_unique<TextRowCodec>(runtime.out_schema);
    stream_runtimes_.emplace(stream.name, std::move(runtime));
  }
  for (const CreateInputTableStmt& input : spec_.inputs) {
    InputTailers reader;
    reader.input = &input;
    const int buckets = scribe_->NumBuckets(input.scribe_category);
    for (int b = 0; b < buckets; ++b) {
      reader.tailers.emplace_back(scribe_, input.scribe_category, b);
    }
    readers_.push_back(std::move(reader));
  }

  // Restore from the HBase checkpoint if present.
  if (options_.hbase != nullptr) {
    auto state = options_.hbase->Get(StateKey());
    if (state.ok()) {
      std::string_view data(state.value());
      uint64_t num_tables = 0;
      if (!GetVarint64(&data, &num_tables)) {
        return Status::Corruption("puma state header");
      }
      for (uint64_t i = 0; i < num_tables; ++i) {
        std::string_view name;
        std::string_view blob;
        if (!GetLengthPrefixed(&data, &name) ||
            !GetLengthPrefixed(&data, &blob)) {
          return Status::Corruption("puma state table");
        }
        auto it = tables_.find(std::string(name));
        if (it != tables_.end()) {
          FBSTREAM_RETURN_IF_ERROR(it->second->Restore(blob));
        }
      }
    } else if (!state.status().IsNotFound()) {
      return state.status();
    }
    for (InputTailers& reader : readers_) {
      for (size_t b = 0; b < reader.tailers.size(); ++b) {
        auto offset = options_.hbase->Get(
            OffsetKey(reader.input->name, static_cast<int>(b)));
        if (offset.ok()) {
          std::string_view view(offset.value());
          uint64_t o = 0;
          if (GetFixed64(&view, &o)) reader.tailers[b].Seek(o);
        } else if (!offset.status().IsNotFound()) {
          return offset.status();
        }
      }
    }
  }
  alive_ = true;
  return Status::OK();
}

void PumaApp::Crash() {
  tables_.clear();
  readers_.clear();
  stream_runtimes_.clear();
  alive_ = false;
}

Status PumaApp::Recover() {
  if (alive_) return Status::OK();
  return Start();
}

Status PumaApp::ProcessInput(const CreateInputTableStmt& input,
                             size_t* processed) {
  const SchemaPtr& schema = input_schemas_.at(input.name);
  TextRowCodec codec(schema);
  laser::LaserApp* lookup = nullptr;
  auto lookup_it = lookups_.find(input.name);
  if (lookup_it != lookups_.end()) lookup = lookup_it->second;

  // Dependent tables and streams.
  std::vector<TableAggregation*> aggs;
  for (const CreateTableStmt& table : spec_.tables) {
    if (table.from == input.name) aggs.push_back(tables_.at(table.name).get());
  }
  std::vector<const StreamRuntime*> streams;
  for (const auto& [name, runtime] : stream_runtimes_) {
    if (runtime.stmt->from == input.name) streams.push_back(&runtime);
  }

  for (InputTailers& reader : readers_) {
    if (reader.input != &input) continue;
    for (scribe::Tailer& tailer : reader.tailers) {
      size_t in_interval = 0;
      while (true) {
        auto messages = tailer.Poll(options_.checkpoint_every_events);
        if (messages.empty()) break;
        for (const scribe::Message& m : messages) {
          auto row = codec.Decode(m.payload);
          if (!row.ok()) {
            FBSTREAM_LOG(Warning) << "puma " << spec_.name
                                  << ": bad row: " << row.status();
            continue;
          }
          if (lookup != nullptr) {
            // Lookup join: fill the Laser app's value columns by name.
            auto joined = lookup->Get(row->Get(input.laser_key));
            if (joined.ok()) {
              for (const std::string& col :
                   lookup->config().value_columns) {
                if (schema->Has(col)) row->Set(col, joined->Get(col));
              }
            }
          }
          for (TableAggregation* agg : aggs) agg->ProcessRow(*row);
          for (const StreamRuntime* stream : streams) {
            if (stream->where.valid() && !stream->where.EvalBool(*row)) {
              continue;
            }
            Row out(stream->out_schema);
            for (size_t i = 0; i < stream->items.size(); ++i) {
              out.Set(i, stream->items[i].Eval(*row));
            }
            const std::string shard_key =
                out.num_columns() > 0 ? out.Get(0).ToString() : "";
            const Status st = scribe_->WriteSharded(
                stream->stmt->output_category, shard_key,
                stream->codec->Encode(out));
            if (!st.ok()) {
              // Rewind to this message so the next poll emits its output
              // and the rest of the batch (at-least-once: its aggregate
              // contribution may count twice, as after a crash replay).
              tailer.Seek(m.sequence);
              return st;
            }
          }
          ++rows_processed_;
          ++*processed;
          ++in_interval;
        }
        if (in_interval >= options_.checkpoint_every_events) {
          FBSTREAM_RETURN_IF_ERROR(CheckpointNow());
          in_interval = 0;
        }
      }
    }
  }
  return Status::OK();
}

StatusOr<size_t> PumaApp::PollOnce() {
  if (!alive_) return Status::FailedPrecondition("app is down");
  size_t processed = 0;
  for (const CreateInputTableStmt& input : spec_.inputs) {
    FBSTREAM_RETURN_IF_ERROR(ProcessInput(input, &processed));
  }
  if (processed > 0) {
    FBSTREAM_RETURN_IF_ERROR(CheckpointNow());
    // Expire old windows.
    for (auto& [name, agg] : tables_) {
      agg->ExpireWindowsBefore(agg->max_event_time() -
                               options_.window_retention);
    }
  }
  return processed;
}

Status PumaApp::CheckpointNow() {
  if (options_.hbase == nullptr) return Status::OK();
  // At-least-once: state blob first, then the offsets.
  std::string blob;
  PutVarint64(&blob, tables_.size());
  for (const auto& [name, agg] : tables_) {
    PutLengthPrefixed(&blob, name);
    std::string table_blob;
    agg->Serialize(&table_blob);
    PutLengthPrefixed(&blob, table_blob);
  }
  FBSTREAM_RETURN_IF_ERROR(options_.hbase->Put(StateKey(), blob));
  for (InputTailers& reader : readers_) {
    for (size_t b = 0; b < reader.tailers.size(); ++b) {
      std::string offset;
      PutFixed64(&offset, reader.tailers[b].offset());
      FBSTREAM_RETURN_IF_ERROR(options_.hbase->Put(
          OffsetKey(reader.input->name, static_cast<int>(b)), offset));
    }
  }
  ++checkpoints_;
  return Status::OK();
}

StatusOr<std::vector<PumaResultRow>> PumaApp::QueryWindow(
    const std::string& table, Micros window_start) const {
  auto it = tables_.find(table);
  if (it == tables_.end()) return Status::NotFound("table " + table);
  ++queries_served_;
  return it->second->QueryWindow(window_start);
}

StatusOr<std::vector<PumaResultRow>> PumaApp::QueryTopK(
    const std::string& table, Micros window_start, size_t k) const {
  auto it = tables_.find(table);
  if (it == tables_.end()) return Status::NotFound("table " + table);
  ++queries_served_;
  return it->second->QueryTopK(window_start, k);
}

StatusOr<std::vector<PumaResultRow>> PumaApp::QueryTopK(
    const std::string& table, Micros window_start) const {
  auto it = tables_.find(table);
  if (it == tables_.end()) return Status::NotFound("table " + table);
  size_t k = 10;
  for (const SelectItem& item : it->second->stmt().items) {
    if (item.is_aggregate && item.agg == AggFunction::kTopK) {
      k = static_cast<size_t>(std::max<int64_t>(1, item.topk_k));
      break;
    }
  }
  ++queries_served_;
  return it->second->QueryTopK(window_start, k);
}

StatusOr<std::vector<Micros>> PumaApp::Windows(const std::string& table) const {
  auto it = tables_.find(table);
  if (it == tables_.end()) return Status::NotFound("table " + table);
  return it->second->Windows();
}

StatusOr<bool> PumaApp::IsWindowFinal(const std::string& table,
                                      Micros window_start) const {
  auto it = tables_.find(table);
  if (it == tables_.end()) return Status::NotFound("table " + table);
  return it->second->IsWindowFinal(window_start);
}

StatusOr<SchemaPtr> PumaApp::StreamOutputSchema(
    const std::string& stream) const {
  auto it = stream_schemas_.find(stream);
  if (it == stream_schemas_.end()) return Status::NotFound("stream " + stream);
  return it->second;
}

const TableAggregation* PumaApp::aggregation(const std::string& table) const {
  auto it = tables_.find(table);
  return it == tables_.end() ? nullptr : it->second.get();
}

StatusOr<int> PumaService::SubmitApp(const std::string& source) {
  FBSTREAM_ASSIGN_OR_RETURN(AppSpec spec, ParseApp(source));
  if (apps_.count(spec.name) > 0) {
    return Status::AlreadyExists("app " + spec.name);
  }
  const int id = next_diff_id_++;
  pending_.emplace(id, std::move(spec));
  return id;
}

Status PumaService::AcceptDiff(int diff_id) {
  auto it = pending_.find(diff_id);
  if (it == pending_.end()) return Status::NotFound("diff");
  FBSTREAM_ASSIGN_OR_RETURN(
      auto app, PumaApp::Create(std::move(it->second), scribe_, clock_,
                                options_));
  pending_.erase(it);
  const std::string name = app->name();
  apps_.emplace(name, std::move(app));
  return Status::OK();
}

Status PumaService::RejectDiff(int diff_id) {
  if (pending_.erase(diff_id) == 0) return Status::NotFound("diff");
  return Status::OK();
}

PumaApp* PumaService::GetApp(const std::string& name) const {
  auto it = apps_.find(name);
  return it == apps_.end() ? nullptr : it->second.get();
}

Status PumaService::DeleteApp(const std::string& name) {
  if (apps_.erase(name) == 0) return Status::NotFound("app " + name);
  return Status::OK();
}

std::vector<std::string> PumaService::ListApps() const {
  std::vector<std::string> names;
  for (const auto& [name, app] : apps_) names.push_back(name);
  return names;
}

StatusOr<size_t> PumaService::PollAll() {
  size_t total = 0;
  for (auto& [name, app] : apps_) {
    FBSTREAM_ASSIGN_OR_RETURN(size_t n, app->PollOnce());
    total += n;
  }
  return total;
}

}  // namespace fbstream::puma
