#include "mdwf/fs/local_fs.hpp"

#include <new>

#include "mdwf/common/assert.hpp"

namespace mdwf::fs {

LocalFs::LocalFs(sim::Simulation& sim, const LocalFsParams& params,
                 storage::BlockDevice& device, storage::PageCache& cache)
    : sim_(&sim),
      params_(params),
      device_(&device),
      cache_(&cache),
      free_(device.params().capacity) {}

LocalFs::Inode& LocalFs::inode(InodeId ino) {
  auto it = inodes_.find(ino);
  if (it == inodes_.end()) throw FsError("bad inode " + std::to_string(ino));
  return it->second;
}

const LocalFs::Inode& LocalFs::inode(InodeId ino) const {
  auto it = inodes_.find(ino);
  if (it == inodes_.end()) throw FsError("bad inode " + std::to_string(ino));
  return it->second;
}

Bytes LocalFs::round_up_alloc(Bytes n) const {
  const std::uint64_t unit = params_.allocation_unit.count();
  return Bytes((n.count() + unit - 1) / unit * unit);
}

sim::Task<void> LocalFs::metadata_op() {
  co_await sim_->delay(params_.metadata_cpu);
}

sim::Task<void> LocalFs::journal_commit() {
  ++journal_commits_;
  co_await device_->write(params_.journal_record);
}

sim::Task<InodeId> LocalFs::create(std::string path, bool exclusive_lock) {
  co_await metadata_op();
  if (by_path_.contains(path)) throw FsError("create: exists: " + path);
  const InodeId id = next_inode_++;
  Inode node;
  node.id = id;
  node.lock = std::make_unique<FileLock>(*sim_);
  if (exclusive_lock) {
    const bool locked = node.lock->try_lock_exclusive();
    MDWF_ASSERT(locked);
  }
  inodes_.emplace(id, std::move(node));
  by_path_.emplace(std::move(path), id);
  co_await journal_commit();
  co_return id;
}

sim::Task<InodeId> LocalFs::open(const std::string& path) {
  co_await metadata_op();
  const auto it = by_path_.find(path);
  if (it == by_path_.end()) throw FsError("open: no such file: " + path);
  co_return it->second;
}

sim::Task<void> LocalFs::unlink(const std::string& path) {
  co_await metadata_op();
  const auto it = by_path_.find(path);
  if (it == by_path_.end()) throw FsError("unlink: no such file: " + path);
  Inode& node = inode(it->second);
  free_ += node.allocated;
  cache_->drop(node.id);
  inodes_.erase(node.id);
  by_path_.erase(it);
  co_await journal_commit();
}

bool LocalFs::exists(const std::string& path) const {
  return by_path_.contains(path);
}

std::optional<Bytes> LocalFs::stat(const std::string& path) const {
  const auto it = by_path_.find(path);
  if (it == by_path_.end()) return std::nullopt;
  return inode(it->second).size;
}

sim::Task<void> LocalFs::write(InodeId ino, Bytes offset, Bytes len) {
  Inode& node = inode(ino);
  if (len.is_zero()) co_return;
  const Bytes end = offset + len;
  if (end > node.allocated) {
    // Extending write: allocate and journal the size update.
    const Bytes grow = round_up_alloc(end - node.allocated);
    if (grow > free_) throw std::bad_alloc();
    free_ -= grow;
    node.allocated += grow;
    co_await metadata_op();
    co_await journal_commit();
  }
  if (end > node.size) node.size = end;
  if (params_.direct_io) {
    co_await device_->write(len);
    // O_DIRECT bypasses the cache: the bytes are on the device already.
    Inode& post = inode(ino);
    if (end > post.durable) post.durable = end;
  } else {
    co_await cache_->write(ino, offset, len);
  }
}

sim::Task<void> LocalFs::read(InodeId ino, Bytes offset, Bytes len) {
  Inode& node = inode(ino);
  if (offset + len > node.size) {
    throw FsError("read past EOF on inode " + std::to_string(ino));
  }
  if (params_.direct_io) {
    co_await device_->read(len);
  } else {
    co_await cache_->read(ino, offset, len);
  }
}

sim::Task<void> LocalFs::fsync(InodeId ino) {
  inode(ino);  // validate
  co_await cache_->flush(ino);
  co_await journal_commit();
  // Only now — after the data write-back and the journal commit — are the
  // bytes power-loss safe.
  Inode& node = inode(ino);
  if (node.size > node.durable) node.durable = node.size;
}

std::size_t LocalFs::crash() {
  std::size_t torn = 0;
  for (auto& [id, node] : inodes_) {
    if (node.size > node.durable) {
      node.size = node.durable;
      ++torn;
    }
  }
  torn_files_ += torn;
  return torn;
}

Bytes LocalFs::size(InodeId ino) const { return inode(ino).size; }

Bytes LocalFs::durable_size(InodeId ino) const { return inode(ino).durable; }

FileLock& LocalFs::lock(InodeId ino) { return *inode(ino).lock; }

}  // namespace mdwf::fs
