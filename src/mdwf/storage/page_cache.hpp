// OS page-cache model.
//
// Buffered file I/O hits memory at memcpy speed; misses and evictions of
// dirty pages touch the backing device.  The cache is an LRU over fixed-size
// pages keyed by (file id, page index).  Only timing and residency are
// modelled — file *contents* live in the filesystem layer (or nowhere, for
// byte-count workloads).
//
// Layout: each resident page is one slot in a pooled array, linked into the
// LRU by 32-bit slot indices; a freed slot is chained onto a free list
// through the same link and reused before the pool grows.  The pool grows on
// demand and is never reserved to capacity (a 48 GiB cache is 196,608
// pages).  A per-file index maps a file id to its slot indices by page
// number, so a call hashes its file id once, and flush() and drop() cost
// O(the file's pages), not O(every resident page).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "mdwf/common/bytes.hpp"
#include "mdwf/obs/trace.hpp"
#include "mdwf/storage/block_device.hpp"

namespace mdwf::storage {

struct PageCacheParams {
  Bytes capacity = Bytes::gib(8);
  Bytes page_size = Bytes::kib(256);
  // Sustained single-stream memcpy bandwidth.
  double memcpy_bps = 8.0e9;
};

class PageCache {
 public:
  PageCache(sim::Simulation& sim, const PageCacheParams& params,
            BlockDevice& device);

  const PageCacheParams& params() const { return params_; }

  // Buffered write of [offset, offset+len) in file `file_id`: memcpy into
  // cache pages, marking them dirty; evictions may write back to the device.
  sim::Task<void> write(std::uint64_t file_id, Bytes offset, Bytes len);

  // Buffered read: memcpy from resident pages; missing ranges are read from
  // the device first (read-ahead = exactly the requested pages).
  sim::Task<void> read(std::uint64_t file_id, Bytes offset, Bytes len);

  // Writes back all dirty pages of the file (fsync).
  sim::Task<void> flush(std::uint64_t file_id);

  // Drops every page of the file without writeback (unlink).
  void drop(std::uint64_t file_id);

  // Power-loss: every dirty page vanishes without writeback (clean pages
  // survive only as far as the model cares — they are dropped too, as a
  // rebooted node starts cold).  Returns the number of dirty pages lost.
  std::size_t crash_drop_dirty();

  // True when the whole byte range is resident.
  bool resident(std::uint64_t file_id, Bytes offset, Bytes len) const;

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t evictions() const { return evictions_; }
  std::uint64_t dirty_dropped() const { return dirty_dropped_; }
  std::uint64_t failed_writebacks() const { return failed_writebacks_; }
  std::size_t resident_pages() const { return resident_; }
  std::size_t dirty_pages() const { return dirty_count_; }

  // Samples residency/dirty state ("<prefix>.resident_pages",
  // "<prefix>.dirty_pages") onto `track` after each cache operation that
  // changed them (mdwf::obs).
  void set_trace(obs::TraceSink* sink, obs::TrackId track,
                 const std::string& prefix);

 private:
  // Slot index meaning "no slot": an absent page, or either end of a list.
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

  struct Slot {
    std::uint32_t prev;  // towards the MRU end
    std::uint32_t next;  // towards the LRU end; the free-list link when free
    std::uint32_t file;
    std::uint32_t page;
    bool dirty;
  };

  // What one read or write did to the cache.
  struct Access {
    Bytes writeback = Bytes::zero();  // dirty bytes evicted
    std::uint64_t missed = 0;         // pages inserted
  };

  std::uint64_t first_page(Bytes offset) const {
    return offset.count() / params_.page_size.count();
  }
  std::uint64_t last_page(Bytes offset, Bytes len) const {
    return (offset.count() + len.count() - 1) / params_.page_size.count();
  }

  // Moves pages lo..hi of [offset, offset+len) to the MRU end one at a time,
  // in page order, inserting each missing page (dirty for a write) and
  // evicting as needed.  A read hit counts as a hit; a write hit only
  // dirties the page.
  Access access(std::uint64_t file_id, Bytes offset, Bytes len, bool write);
  void unlink(std::uint32_t s);
  void link_front(std::uint32_t s);
  // Unlinks the slot and puts it on the free list.
  void release(std::uint32_t s);
  // Makes room for one page.  Clean pages are preferred victims; evicting a
  // dirty page returns its size so the caller can launch the write-back.
  Bytes evict_one();
  // Asynchronous write-back of evicted dirty bytes: the device sees the
  // traffic, the foreground operation does not wait (kernel flusher
  // behaviour).
  void writeback_async(Bytes n);
  sim::Task<void> writeback_guarded(Bytes n);
  sim::Task<void> memcpy_cost(Bytes n);
  void trace_state();

  sim::Simulation* sim_;
  PageCacheParams params_;
  BlockDevice* device_;
  std::size_t max_pages_;
  std::vector<Slot> slots_;
  std::uint32_t free_ = kNone;
  std::uint32_t mru_ = kNone;
  std::uint32_t lru_ = kNone;
  std::size_t resident_ = 0;
  // file id -> slot index by page number (kNone where not resident).
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> files_;
  std::size_t dirty_count_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t dirty_dropped_ = 0;
  std::uint64_t failed_writebacks_ = 0;
  obs::TraceSink* trace_ = nullptr;
  obs::CounterId trace_resident_{};
  obs::CounterId trace_dirty_{};
  std::int64_t traced_resident_ = -1;
  std::int64_t traced_dirty_ = -1;
};

}  // namespace mdwf::storage
