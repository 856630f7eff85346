#ifndef FBSTREAM_STORAGE_HDFS_HDFS_H_
#define FBSTREAM_STORAGE_HDFS_HDFS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace fbstream::hdfs {

// Simulated HDFS cluster (paper §2.1: Scribe stores data in HDFS; §4.4.2:
// Stylus local state is backed up to HDFS).
//
// Substitution note (see DESIGN.md): the real system is a distributed block
// store; the behaviors the paper depends on are (a) a file namespace with
// whole-file write/read, (b) block-based replicated storage, and (c) the
// possibility of being *unavailable* — "HDFS is designed for batch workloads
// and is not intended to be an always-available system. If HDFS is not
// available for writes, processing continues without remote backup copies."
// We implement a namenode-style namespace over fixed-size blocks on local
// disk and expose availability injection so that failure-handling paths can
// be exercised deterministically.
struct HdfsOptions {
  size_t block_bytes = 1u << 20;
  int replication = 3;  // Accounted, not physically duplicated.
};

class HdfsCluster {
 public:
  explicit HdfsCluster(std::string root_dir, HdfsOptions options = {});

  // Availability injection. While unavailable, every operation returns
  // Status::Unavailable.
  void SetAvailable(bool available);
  bool available() const;

  Status WriteFile(const std::string& path, const std::string& data);
  StatusOr<std::string> ReadFile(const std::string& path) const;
  Status DeleteFile(const std::string& path);
  // Deletes every path under one namespace commit (one fsimage write).
  // NotFound, deleting nothing, if any path is absent.
  Status DeleteFiles(const std::vector<std::string>& paths);
  bool Exists(const std::string& path) const;
  // Lists immediate children (files whose path starts with `dir` + "/").
  StatusOr<std::vector<std::string>> ListFiles(const std::string& dir) const;

  struct FileInfo {
    uint64_t length = 0;
    int num_blocks = 0;
  };
  StatusOr<FileInfo> Stat(const std::string& path) const;

  // Total bytes stored (pre-replication), for capacity monitoring.
  uint64_t UsedBytes() const;

 private:
  struct INode {
    std::vector<uint64_t> block_ids;
    uint64_t length = 0;
  };

  std::string BlockPath(uint64_t id) const;
  Status PersistNamespaceLocked() const;
  Status RecoverNamespace();

  std::string root_;
  HdfsOptions options_;
  mutable std::mutex mu_;
  bool available_ = true;
  uint64_t next_block_id_ = 1;
  std::map<std::string, INode> namespace_;
};

}  // namespace fbstream::hdfs

#endif  // FBSTREAM_STORAGE_HDFS_HDFS_H_
