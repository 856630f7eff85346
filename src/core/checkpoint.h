#ifndef FBSTREAM_CORE_CHECKPOINT_H_
#define FBSTREAM_CORE_CHECKPOINT_H_

#include <memory>
#include <set>
#include <string>

#include "common/clock.h"
#include "common/retry.h"
#include "common/status.h"
#include "core/failure.h"
#include "core/semantics.h"
#include "storage/hdfs/hdfs.h"
#include "storage/lsm/db.h"
#include "storage/zippydb/zippydb.h"

namespace fbstream::stylus {

// What a checkpoint holds (§4.3.1): "(a) the in-memory state of the
// processing node, (b) the current offset in the input stream, (c) the
// output value(s)" — (c) only for exactly-once output.
struct Checkpoint {
  bool has_state = false;
  std::string state;
  bool has_offset = false;
  uint64_t offset = 0;
};

// Persistence for a node shard's checkpoints. Implementations realize the
// state semantics through write ordering; SaveCheckpoint consults the
// failure injector between the two non-atomic writes and returns Aborted if
// a crash is injected (everything written before the crash stays durable —
// exactly what a real crash leaves behind).
class StateStore {
 public:
  virtual ~StateStore() = default;

  virtual Status SaveCheckpoint(StateSemantics semantics,
                                const std::string& state, uint64_t offset,
                                const FailureInjector& crash) = 0;
  virtual StatusOr<Checkpoint> Load() = 0;

  // Exactly-once output (§4.3.1): atomically commit state, offset, and the
  // output values in one transaction. Only stores with transaction support
  // implement this — "the receiver must be a data store, rather than a data
  // transport mechanism like Scribe".
  virtual Status SaveCheckpointWithOutput(const std::string& state,
                                          uint64_t offset,
                                          const lsm::WriteBatch& output) {
    (void)state;
    (void)offset;
    (void)output;
    return Status::Unimplemented("store does not support transactions");
  }
};

// Local-database model (§4.4.2, Figure 10): state in an embedded RocksDB
// with the WAL as the durability point, copied asynchronously to HDFS at a
// larger interval via the backup engine. Restart on the same machine uses
// the local DB; machine loss restores from HDFS.
class LocalStateStore : public StateStore {
 public:
  // `hdfs` may be null (no remote backup). `backup_prefix` namespaces this
  // shard's files inside HDFS. `clock` paces backup retry backoff (null =
  // system clock; tests pass a SimClock so backoffs are instant).
  static StatusOr<std::unique_ptr<LocalStateStore>> Open(
      const std::string& dir, hdfs::HdfsCluster* hdfs,
      const std::string& backup_prefix, Clock* clock = nullptr);

  Status SaveCheckpoint(StateSemantics semantics, const std::string& state,
                        uint64_t offset, const FailureInjector& crash) override;
  StatusOr<Checkpoint> Load() override;
  Status SaveCheckpointWithOutput(const std::string& state, uint64_t offset,
                                  const lsm::WriteBatch& output) override;

  // Copies the local DB to HDFS ("copied asynchronously to HDFS at a larger
  // interval using RocksDB's backup engine"). Each file upload runs under a
  // short RetryPolicy to ride out blips; if HDFS stays unavailable, returns
  // Unavailable and processing continues without remote copies — the owning
  // shard queues the missed backup for resync (§4.4.2 degradation).
  Status BackupToHdfs();

  // Retries spent on backup uploads (monitoring).
  RetryPolicy::StatsSnapshot backup_retry_stats() const {
    return backup_retry_->stats();
  }

  // Machine-loss recovery: rebuilds `dir` from the HDFS backup. Use when
  // the local directory is gone.
  static Status RestoreFromHdfs(hdfs::HdfsCluster* hdfs,
                                const std::string& backup_prefix,
                                const std::string& dir);

  lsm::Db* db() { return db_.get(); }

 private:
  LocalStateStore(hdfs::HdfsCluster* hdfs, std::string backup_prefix,
                  Clock* clock);

  // Deletes every file under the backup prefix not named in `live` (the
  // files the backup that just succeeded uploaded).
  void DeleteStaleBackupFiles(const std::set<std::string>& live);

  hdfs::HdfsCluster* hdfs_;
  std::string backup_prefix_;
  std::unique_ptr<RetryPolicy> backup_retry_;
  std::unique_ptr<lsm::Db> db_;
};

// Remote-database model (§4.4.2, Figure 11): checkpoints live in ZippyDB.
// "A remote database solution also provides faster machine failover time
// since we do not need to load the complete state to the machine upon
// restart." Exactly-once uses the cluster's cross-shard transactions.
class RemoteStateStore : public StateStore {
 public:
  RemoteStateStore(zippydb::Cluster* cluster, std::string key_prefix);

  Status SaveCheckpoint(StateSemantics semantics, const std::string& state,
                        uint64_t offset, const FailureInjector& crash) override;
  StatusOr<Checkpoint> Load() override;
  Status SaveCheckpointWithOutput(const std::string& state, uint64_t offset,
                                  const lsm::WriteBatch& output) override;

 private:
  std::string StateKey() const { return key_prefix_ + "/__state__"; }
  std::string OffsetKey() const { return key_prefix_ + "/__offset__"; }

  zippydb::Cluster* cluster_;
  std::string key_prefix_;
};

}  // namespace fbstream::stylus

#endif  // FBSTREAM_CORE_CHECKPOINT_H_
