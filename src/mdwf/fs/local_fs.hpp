// Node-local journaling filesystem model (XFS class).
//
// Sits on a BlockDevice through a PageCache.  Costs modelled:
//   - metadata CPU per namespace operation (inode/dentry update),
//   - journal commits (log-record device writes) for create/extend/unlink,
//   - buffered data I/O through the page cache (memcpy; device on miss,
//     eviction, or fsync).
// Space is one free-byte total: an extending write takes its growth,
// rounded up to the allocation unit, and unlink gives the file's back.
// Contents are not stored — files are byte ranges with sizes; payload
// integrity is modelled above this layer (`integrity::Ledger`).
//
// XFS cannot span nodes: a LocalFs instance belongs to exactly one node, and
// only processes on that node may reach it (enforced by the workflow layer).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "mdwf/common/bytes.hpp"
#include "mdwf/fs/file_lock.hpp"
#include "mdwf/storage/block_device.hpp"
#include "mdwf/storage/page_cache.hpp"

namespace mdwf::fs {

class FsError : public std::runtime_error {
 public:
  explicit FsError(const std::string& what) : std::runtime_error(what) {}
};

struct LocalFsParams {
  // CPU charged per namespace operation.
  Duration metadata_cpu = Duration::microseconds(3);
  // Journal log record size; every journaled transaction writes one record
  // to the device synchronously.
  Bytes journal_record = Bytes::kib(4);
  // Allocation granularity: an extending write reserves whole units.
  Bytes allocation_unit = Bytes::kib(64);
  // O_DIRECT-style I/O: bypass the page cache, every read/write hits the
  // device (ablation: node-local staging without buffered-I/O benefits).
  bool direct_io = false;
};

// Stable file identifier (inode number).
using InodeId = std::uint64_t;

class LocalFs {
 public:
  LocalFs(sim::Simulation& sim, const LocalFsParams& params,
          storage::BlockDevice& device, storage::PageCache& cache);

  const LocalFsParams& params() const { return params_; }

  // --- Namespace -----------------------------------------------------------

  // Creates an empty file; throws FsError if it already exists.  With
  // `exclusive_lock`, the new inode's flock is held exclusively by the
  // caller *atomically with the file becoming visible*, so a concurrent
  // opener can never observe the file unlocked before its first write
  // (O_CREAT|O_WRONLY + flock semantics).
  sim::Task<InodeId> create(std::string path, bool exclusive_lock = false);
  // Opens an existing file; throws FsError if absent.
  sim::Task<InodeId> open(const std::string& path);
  sim::Task<void> unlink(const std::string& path);

  bool exists(const std::string& path) const;
  std::optional<Bytes> stat(const std::string& path) const;

  // --- Data ------------------------------------------------------------------

  // Appends/overwrites [offset, offset+len); an extending write allocates
  // space (journaled) and throws std::bad_alloc, changing nothing, when the
  // device is full.
  sim::Task<void> write(InodeId ino, Bytes offset, Bytes len);
  // Reads [offset, offset+len); throws FsError past EOF.
  sim::Task<void> read(InodeId ino, Bytes offset, Bytes len);
  sim::Task<void> fsync(InodeId ino);

  Bytes size(InodeId ino) const;
  // Bytes guaranteed to survive a power loss: advanced to `size` by fsync
  // (and by direct-I/O writes, which bypass the cache entirely).
  Bytes durable_size(InodeId ino) const;
  FileLock& lock(InodeId ino);

  // --- Crash consistency ---------------------------------------------------

  // Power loss: every file is torn back to its last durable size (data that
  // only reached the page cache is gone).  Namespace operations are journaled
  // and survive.  The caller is responsible for also dropping the page cache
  // (PageCache::crash_drop_dirty).  Returns the number of files torn.
  std::size_t crash();

  // --- Introspection -----------------------------------------------------------

  Bytes free_bytes() const { return free_; }
  std::uint64_t journal_commits() const { return journal_commits_; }
  std::uint64_t torn_files() const { return torn_files_; }

 private:
  struct Inode {
    InodeId id = 0;
    Bytes size = Bytes::zero();
    // High-water mark of fsync'd (power-loss-safe) bytes.
    Bytes durable = Bytes::zero();
    Bytes allocated = Bytes::zero();
    std::unique_ptr<FileLock> lock;
  };

  Inode& inode(InodeId ino);
  const Inode& inode(InodeId ino) const;
  sim::Task<void> journal_commit();
  sim::Task<void> metadata_op();
  Bytes round_up_alloc(Bytes n) const;

  sim::Simulation* sim_;
  LocalFsParams params_;
  storage::BlockDevice* device_;
  storage::PageCache* cache_;
  Bytes free_;
  std::map<std::string, InodeId> by_path_;
  std::map<InodeId, Inode> inodes_;
  InodeId next_inode_ = 1;
  std::uint64_t journal_commits_ = 0;
  std::uint64_t torn_files_ = 0;
};

}  // namespace mdwf::fs
