#include "core/checkpoint.h"

#include "common/fault.h"
#include "common/fs.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/serde.h"

namespace fbstream::stylus {

namespace {
constexpr char kStateKey[] = "__state__";
constexpr char kOffsetKey[] = "__offset__";

Status InjectedCrash() { return Status::Aborted("injected crash"); }

std::string EncodeOffset(uint64_t offset) {
  std::string s;
  PutFixed64(&s, offset);
  return s;
}

StatusOr<uint64_t> DecodeOffset(const std::string& s) {
  std::string_view view(s);
  uint64_t offset = 0;
  if (!GetFixed64(&view, &offset)) {
    return Status::Corruption("bad offset record");
  }
  return offset;
}

// Kill-mode crash points bracketing the two checkpoint writes (both
// backends). A kill at "checkpoint.write.state" dies before the state
// record lands; at "checkpoint.write.offset", between the two records —
// the exact gap whose write ORDER realizes the state semantics. A
// status-fault armed here instead surfaces as a retryable error to the
// shard's checkpoint RetryPolicy.
Status HitStateWrite() {
  return FaultRegistry::Global()->Hit("checkpoint.write.state");
}
Status HitOffsetWrite() {
  return FaultRegistry::Global()->Hit("checkpoint.write.offset");
}
}  // namespace

LocalStateStore::LocalStateStore(hdfs::HdfsCluster* hdfs,
                                 std::string backup_prefix, Clock* clock)
    : hdfs_(hdfs), backup_prefix_(std::move(backup_prefix)) {
  // Short budget: a backup that cannot land after a couple of tries means a
  // real outage, and the shard's degraded mode takes over from there.
  RetryOptions retry;
  retry.max_attempts = 2;
  retry.initial_backoff_micros = 2000;
  retry.max_backoff_micros = 100'000;
  backup_retry_ = std::make_unique<RetryPolicy>(clock, retry);
}

StatusOr<std::unique_ptr<LocalStateStore>> LocalStateStore::Open(
    const std::string& dir, hdfs::HdfsCluster* hdfs,
    const std::string& backup_prefix, Clock* clock) {
  std::unique_ptr<LocalStateStore> store(
      new LocalStateStore(hdfs, backup_prefix, clock));
  FBSTREAM_ASSIGN_OR_RETURN(store->db_, lsm::Db::Open({}, dir));
  return store;
}

Status LocalStateStore::SaveCheckpoint(StateSemantics semantics,
                                       const std::string& state,
                                       uint64_t offset,
                                       const FailureInjector& crash) {
  const std::string offset_value = EncodeOffset(offset);
  switch (semantics) {
    case StateSemantics::kAtLeastOnce:
      // State first, offset second: a crash in between leaves the offset
      // behind the state, so events since the previous checkpoint replay.
      FBSTREAM_RETURN_IF_ERROR(HitStateWrite());
      FBSTREAM_RETURN_IF_ERROR(db_->Put(kStateKey, state));
      if (crash != nullptr && crash(FailurePoint::kBetweenCheckpointWrites)) {
        return InjectedCrash();
      }
      FBSTREAM_RETURN_IF_ERROR(HitOffsetWrite());
      return db_->Put(kOffsetKey, offset_value);
    case StateSemantics::kAtMostOnce:
      // Offset first, state second: a crash in between skips those events.
      FBSTREAM_RETURN_IF_ERROR(HitOffsetWrite());
      FBSTREAM_RETURN_IF_ERROR(db_->Put(kOffsetKey, offset_value));
      if (crash != nullptr && crash(FailurePoint::kBetweenCheckpointWrites)) {
        return InjectedCrash();
      }
      FBSTREAM_RETURN_IF_ERROR(HitStateWrite());
      return db_->Put(kStateKey, state);
    case StateSemantics::kExactlyOnce: {
      // One atomic WriteBatch: the WAL makes both records land or neither.
      FBSTREAM_RETURN_IF_ERROR(HitStateWrite());
      lsm::WriteBatch batch;
      batch.Put(kStateKey, state);
      batch.Put(kOffsetKey, offset_value);
      return db_->Write(batch);
    }
  }
  return Status::Internal("unknown semantics");
}

StatusOr<Checkpoint> LocalStateStore::Load() {
  Checkpoint cp;
  auto state = db_->Get(kStateKey);
  if (state.ok()) {
    cp.has_state = true;
    cp.state = std::move(state).value();
  } else if (!state.status().IsNotFound()) {
    return state.status();
  }
  auto offset = db_->Get(kOffsetKey);
  if (offset.ok()) {
    FBSTREAM_ASSIGN_OR_RETURN(cp.offset, DecodeOffset(offset.value()));
    cp.has_offset = true;
  } else if (!offset.status().IsNotFound()) {
    return offset.status();
  }
  return cp;
}

Status LocalStateStore::SaveCheckpointWithOutput(const std::string& state,
                                                 uint64_t offset,
                                                 const lsm::WriteBatch& output) {
  // Local DB supports transactions (atomic WriteBatch): commit state,
  // offset, and output rows together. Output keys share the DB with the
  // checkpoint records, namespaced by the caller.
  FBSTREAM_RETURN_IF_ERROR(HitStateWrite());
  lsm::WriteBatch batch;
  batch.Put(kStateKey, state);
  batch.Put(kOffsetKey, EncodeOffset(offset));
  for (const lsm::WriteBatch::Op& op : output.ops()) {
    switch (op.type) {
      case lsm::EntryType::kPut:
        batch.Put(op.key, op.value);
        break;
      case lsm::EntryType::kDelete:
        batch.Delete(op.key);
        break;
      case lsm::EntryType::kMerge:
        batch.Merge(op.key, op.value);
        break;
    }
  }
  return db_->Write(batch);
}

Status LocalStateStore::BackupToHdfs() {
  if (hdfs_ == nullptr) {
    return Status::FailedPrecondition("no HDFS configured");
  }
  static Histogram* backup_latency =
      MetricsRegistry::Global()->GetHistogram("hdfs.backup.latency_us");
  static Counter* backup_completed =
      MetricsRegistry::Global()->GetCounter("hdfs.backup.completed");
  static Counter* backup_failed =
      MetricsRegistry::Global()->GetCounter("hdfs.backup.failed");
  // Latency covers the whole multi-file upload including per-file retries —
  // the figure that matters for how long a shard's backup lags its state.
  ScopedLatencyTimer timer(backup_latency);
  std::set<std::string> uploaded;
  const Status st = db_->CreateBackup(
      [this, &uploaded](const std::string& name, const std::string& contents) {
        uploaded.insert(name);
        // Re-uploading the same file is idempotent, so per-file retry is
        // safe even when the backup dies halfway through.
        return backup_retry_->Run("hdfs.backup", [&] {
          return hdfs_->WriteFile(backup_prefix_ + "/" + name, contents);
        });
      });
  (st.ok() ? backup_completed : backup_failed)->Add();
  if (st.ok()) DeleteStaleBackupFiles(uploaded);
  return st;
}

void LocalStateStore::DeleteStaleBackupFiles(
    const std::set<std::string>& live) {
  // The MANIFEST went up last, so the backup now references only `live`:
  // anything else under the prefix is an SST compacted away since an
  // earlier backup. A failure here only leaves garbage that the next
  // successful backup retries.
  auto listing = hdfs_->ListFiles(backup_prefix_);
  if (!listing.ok()) {
    FBSTREAM_LOG(Warning) << "hdfs backup cleanup: " << listing.status();
    return;
  }
  std::vector<std::string> stale;
  for (const std::string& name : *listing) {
    if (live.count(name) == 0) stale.push_back(backup_prefix_ + "/" + name);
  }
  if (stale.empty()) return;
  const Status st = hdfs_->DeleteFiles(stale);
  if (!st.ok()) FBSTREAM_LOG(Warning) << "hdfs backup cleanup: " << st;
}

Status LocalStateStore::RestoreFromHdfs(hdfs::HdfsCluster* hdfs,
                                        const std::string& backup_prefix,
                                        const std::string& dir) {
  return lsm::Db::RestoreBackup(
      [hdfs, &backup_prefix]() { return hdfs->ListFiles(backup_prefix); },
      [hdfs, &backup_prefix](const std::string& name) {
        return hdfs->ReadFile(backup_prefix + "/" + name);
      },
      dir);
}

RemoteStateStore::RemoteStateStore(zippydb::Cluster* cluster,
                                   std::string key_prefix)
    : cluster_(cluster), key_prefix_(std::move(key_prefix)) {}

Status RemoteStateStore::SaveCheckpoint(StateSemantics semantics,
                                        const std::string& state,
                                        uint64_t offset,
                                        const FailureInjector& crash) {
  const std::string offset_value = EncodeOffset(offset);
  switch (semantics) {
    case StateSemantics::kAtLeastOnce:
      FBSTREAM_RETURN_IF_ERROR(HitStateWrite());
      FBSTREAM_RETURN_IF_ERROR(cluster_->Put(StateKey(), state));
      if (crash != nullptr && crash(FailurePoint::kBetweenCheckpointWrites)) {
        return InjectedCrash();
      }
      FBSTREAM_RETURN_IF_ERROR(HitOffsetWrite());
      return cluster_->Put(OffsetKey(), offset_value);
    case StateSemantics::kAtMostOnce:
      FBSTREAM_RETURN_IF_ERROR(HitOffsetWrite());
      FBSTREAM_RETURN_IF_ERROR(cluster_->Put(OffsetKey(), offset_value));
      if (crash != nullptr && crash(FailurePoint::kBetweenCheckpointWrites)) {
        return InjectedCrash();
      }
      FBSTREAM_RETURN_IF_ERROR(HitStateWrite());
      return cluster_->Put(StateKey(), state);
    case StateSemantics::kExactlyOnce: {
      // State and offset generally live on different shards: this is the
      // "high-latency distributed transaction" of §4.3.2.
      FBSTREAM_RETURN_IF_ERROR(HitStateWrite());
      lsm::WriteBatch batch;
      batch.Put(StateKey(), state);
      batch.Put(OffsetKey(), offset_value);
      return cluster_->CommitTransaction(batch);
    }
  }
  return Status::Internal("unknown semantics");
}

StatusOr<Checkpoint> RemoteStateStore::Load() {
  Checkpoint cp;
  auto state = cluster_->Get(StateKey());
  if (state.ok()) {
    cp.has_state = true;
    cp.state = std::move(state).value();
  } else if (!state.status().IsNotFound()) {
    return state.status();
  }
  auto offset = cluster_->Get(OffsetKey());
  if (offset.ok()) {
    FBSTREAM_ASSIGN_OR_RETURN(cp.offset, DecodeOffset(offset.value()));
    cp.has_offset = true;
  } else if (!offset.status().IsNotFound()) {
    return offset.status();
  }
  return cp;
}

Status RemoteStateStore::SaveCheckpointWithOutput(const std::string& state,
                                                  uint64_t offset,
                                                  const lsm::WriteBatch& output) {
  FBSTREAM_RETURN_IF_ERROR(HitStateWrite());
  lsm::WriteBatch batch;
  batch.Put(StateKey(), state);
  batch.Put(OffsetKey(), EncodeOffset(offset));
  for (const lsm::WriteBatch::Op& op : output.ops()) {
    switch (op.type) {
      case lsm::EntryType::kPut:
        batch.Put(op.key, op.value);
        break;
      case lsm::EntryType::kDelete:
        batch.Delete(op.key);
        break;
      case lsm::EntryType::kMerge:
        batch.Merge(op.key, op.value);
        break;
    }
  }
  return cluster_->CommitTransaction(batch);
}

}  // namespace fbstream::stylus
