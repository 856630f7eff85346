#include "storage/hdfs/hdfs.h"

#include "common/fault.h"
#include "common/fs.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/serde.h"

namespace fbstream::hdfs {

namespace {
constexpr char kNamespaceImage[] = "fsimage";
}  // namespace

HdfsCluster::HdfsCluster(std::string root_dir, HdfsOptions options)
    : root_(std::move(root_dir)), options_(options) {
  const Status st = CreateDirs(root_ + "/blocks");
  if (!st.ok()) FBSTREAM_LOG(Warning) << "hdfs root: " << st;
  const Status rec = RecoverNamespace();
  if (!rec.ok()) FBSTREAM_LOG(Warning) << "hdfs recover: " << rec;
}

void HdfsCluster::SetAvailable(bool available) {
  std::lock_guard<std::mutex> lock(mu_);
  available_ = available;
}

bool HdfsCluster::available() const {
  std::lock_guard<std::mutex> lock(mu_);
  return available_;
}

std::string HdfsCluster::BlockPath(uint64_t id) const {
  return root_ + "/blocks/blk_" + std::to_string(id);
}

Status HdfsCluster::WriteFile(const std::string& path,
                              const std::string& data) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!available_) return Status::Unavailable("hdfs down");
  FBSTREAM_RETURN_IF_ERROR(FaultRegistry::Global()->Hit("hdfs.write"));
  INode inode;
  inode.length = data.size();
  size_t offset = 0;
  do {
    const size_t n = std::min(options_.block_bytes, data.size() - offset);
    const uint64_t id = next_block_id_++;
    // Kill-mode crash point: a block can be half-written when the process
    // dies. Because the fsimage (the commit point) is only persisted after
    // every block, recovery never references the torn block.
    FBSTREAM_RETURN_IF_ERROR(
        FaultRegistry::Global()->Hit("hdfs.block.write"));
    // Blocks must be durable before the fsimage referencing them is: a
    // buffered write could be reordered after the atomic image rename.
    FBSTREAM_RETURN_IF_ERROR(
        WriteFileDurable(BlockPath(id), data.substr(offset, n)));
    inode.block_ids.push_back(id);
    offset += n;
  } while (offset < data.size());
  SyncDir(root_ + "/blocks");
  // Replace any previous version; old blocks are garbage collected.
  auto it = namespace_.find(path);
  std::vector<uint64_t> old_blocks;
  if (it != namespace_.end()) old_blocks = it->second.block_ids;
  namespace_[path] = std::move(inode);
  FBSTREAM_RETURN_IF_ERROR(PersistNamespaceLocked());
  for (const uint64_t id : old_blocks) {
    const Status st = RemoveFile(BlockPath(id));
    if (!st.ok()) FBSTREAM_LOG(Warning) << "hdfs gc: " << st;
  }
  static Counter* write_files =
      MetricsRegistry::Global()->GetCounter("hdfs.write.files");
  static Counter* write_bytes =
      MetricsRegistry::Global()->GetCounter("hdfs.write.bytes");
  write_files->Add();
  write_bytes->Add(data.size());
  return Status::OK();
}

StatusOr<std::string> HdfsCluster::ReadFile(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (!available_) return Status::Unavailable("hdfs down");
  FBSTREAM_RETURN_IF_ERROR(FaultRegistry::Global()->Hit("hdfs.read"));
  auto it = namespace_.find(path);
  if (it == namespace_.end()) return Status::NotFound(path);
  std::string data;
  data.reserve(it->second.length);
  for (const uint64_t id : it->second.block_ids) {
    FBSTREAM_ASSIGN_OR_RETURN(std::string block,
                              ReadFileToString(BlockPath(id)));
    data += block;
  }
  static Counter* read_files =
      MetricsRegistry::Global()->GetCounter("hdfs.read.files");
  read_files->Add();
  return data;
}

Status HdfsCluster::DeleteFile(const std::string& path) {
  return DeleteFiles({path});
}

Status HdfsCluster::DeleteFiles(const std::vector<std::string>& paths) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!available_) return Status::Unavailable("hdfs down");
  for (const std::string& path : paths) {
    if (namespace_.count(path) == 0) return Status::NotFound(path);
  }
  std::vector<uint64_t> blocks;
  for (const std::string& path : paths) {
    auto it = namespace_.find(path);
    if (it == namespace_.end()) continue;  // Listed twice.
    blocks.insert(blocks.end(), it->second.block_ids.begin(),
                  it->second.block_ids.end());
    namespace_.erase(it);
  }
  FBSTREAM_RETURN_IF_ERROR(PersistNamespaceLocked());
  for (const uint64_t id : blocks) {
    const Status st = RemoveFile(BlockPath(id));
    if (!st.ok()) FBSTREAM_LOG(Warning) << "hdfs gc: " << st;
  }
  return Status::OK();
}

bool HdfsCluster::Exists(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  return available_ && namespace_.count(path) > 0;
}

StatusOr<std::vector<std::string>> HdfsCluster::ListFiles(
    const std::string& dir) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (!available_) return Status::Unavailable("hdfs down");
  const std::string prefix = dir.empty() || dir.back() == '/' ? dir : dir + "/";
  std::vector<std::string> names;
  for (const auto& [path, inode] : namespace_) {
    if (path.size() > prefix.size() && path.compare(0, prefix.size(), prefix) == 0) {
      names.push_back(path.substr(prefix.size()));
    }
  }
  return names;
}

StatusOr<HdfsCluster::FileInfo> HdfsCluster::Stat(
    const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (!available_) return Status::Unavailable("hdfs down");
  auto it = namespace_.find(path);
  if (it == namespace_.end()) return Status::NotFound(path);
  FileInfo info;
  info.length = it->second.length;
  info.num_blocks = static_cast<int>(it->second.block_ids.size());
  return info;
}

uint64_t HdfsCluster::UsedBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& [path, inode] : namespace_) total += inode.length;
  return total;
}

Status HdfsCluster::PersistNamespaceLocked() const {
  // Kill-mode crash point: dying here (or inside the atomic write below)
  // leaves the previous fsimage intact — the new file version was never
  // committed, its blocks are orphans.
  FBSTREAM_RETURN_IF_ERROR(FaultRegistry::Global()->Hit("hdfs.fsimage.write"));
  std::string image;
  PutVarint64(&image, next_block_id_);
  PutVarint64(&image, namespace_.size());
  for (const auto& [path, inode] : namespace_) {
    PutLengthPrefixed(&image, path);
    PutVarint64(&image, inode.length);
    PutVarint64(&image, inode.block_ids.size());
    for (const uint64_t id : inode.block_ids) PutVarint64(&image, id);
  }
  return WriteFileAtomic(root_ + "/" + kNamespaceImage, image);
}

Status HdfsCluster::RecoverNamespace() {
  const std::string path = root_ + "/" + kNamespaceImage;
  // A crash between the temp write and the rename leaves `fsimage.tmp`
  // behind; it is at best a duplicate of the real image and at worst torn,
  // so it must never be consulted. Drop it.
  if (FileExists(path + ".tmp")) {
    const Status st = RemoveFile(path + ".tmp");
    if (!st.ok()) FBSTREAM_LOG(Warning) << "hdfs stale fsimage.tmp: " << st;
  }
  if (!FileExists(path)) return Status::OK();
  FBSTREAM_ASSIGN_OR_RETURN(std::string image, ReadFileToString(path));
  std::string_view view(image);
  uint64_t count = 0;
  if (!GetVarint64(&view, &next_block_id_) || !GetVarint64(&view, &count)) {
    return Status::Corruption("hdfs fsimage header");
  }
  for (uint64_t i = 0; i < count; ++i) {
    std::string_view p;
    INode inode;
    uint64_t nblocks = 0;
    if (!GetLengthPrefixed(&view, &p) ||
        !GetVarint64(&view, &inode.length) ||
        !GetVarint64(&view, &nblocks)) {
      return Status::Corruption("hdfs fsimage inode");
    }
    for (uint64_t b = 0; b < nblocks; ++b) {
      uint64_t id = 0;
      if (!GetVarint64(&view, &id)) {
        return Status::Corruption("hdfs fsimage block");
      }
      inode.block_ids.push_back(id);
    }
    namespace_.emplace(std::string(p), std::move(inode));
  }
  return Status::OK();
}

}  // namespace fbstream::hdfs
