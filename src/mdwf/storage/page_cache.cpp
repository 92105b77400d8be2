#include "mdwf/storage/page_cache.hpp"

#include "mdwf/common/assert.hpp"

namespace mdwf::storage {

PageCache::PageCache(sim::Simulation& sim, const PageCacheParams& params,
                     BlockDevice& device)
    : sim_(&sim), params_(params), device_(&device) {
  MDWF_ASSERT(params.page_size.count() > 0);
  max_pages_ = static_cast<std::size_t>(params.capacity / params.page_size);
  MDWF_ASSERT_MSG(max_pages_ >= 1, "cache smaller than one page");
}

PageCache::Access PageCache::access(std::uint64_t file_id, Bytes offset,
                                    Bytes len, bool write) {
  const std::uint64_t lo = first_page(offset);
  const std::uint64_t hi = last_page(offset, len);
  MDWF_ASSERT(file_id < (1ull << 32) && hi < (1ull << 32));
  // Eviction only clears entries of this vector, so the reference stays
  // valid for the whole loop.
  std::vector<std::uint32_t>& index = files_[file_id];
  if (index.size() <= hi) index.resize(hi + 1, kNone);
  Access a;
  for (std::uint64_t p = lo; p <= hi; ++p) {
    std::uint32_t s = index[p];
    if (s != kNone) {
      if (!write) {
        ++hits_;
      } else if (!slots_[s].dirty) {
        slots_[s].dirty = true;
        ++dirty_count_;
      }
      unlink(s);
      link_front(s);
      continue;
    }
    ++misses_;
    ++a.missed;
    while (resident_ >= max_pages_) a.writeback += evict_one();
    if (free_ != kNone) {
      s = free_;
      free_ = slots_[s].next;
    } else {
      MDWF_ASSERT_MSG(slots_.size() < kNone, "page-cache slot index overflow");
      s = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    slots_[s] = Slot{kNone, kNone, static_cast<std::uint32_t>(file_id),
                     static_cast<std::uint32_t>(p), write};
    link_front(s);
    index[p] = s;
    ++resident_;
    if (write) ++dirty_count_;
  }
  return a;
}

void PageCache::unlink(std::uint32_t s) {
  const Slot& slot = slots_[s];
  (slot.prev == kNone ? mru_ : slots_[slot.prev].next) = slot.next;
  (slot.next == kNone ? lru_ : slots_[slot.next].prev) = slot.prev;
}

void PageCache::link_front(std::uint32_t s) {
  slots_[s].prev = kNone;
  slots_[s].next = mru_;
  (mru_ == kNone ? lru_ : slots_[mru_].prev) = s;
  mru_ = s;
}

void PageCache::release(std::uint32_t s) {
  unlink(s);
  slots_[s].next = free_;
  free_ = s;
  --resident_;
}

Bytes PageCache::evict_one() {
  MDWF_ASSERT(lru_ != kNone);
  // Prefer a clean victim near the LRU end (bounded scan); fall back to the
  // true LRU page when everything old is dirty.
  constexpr int kScanLimit = 128;
  std::uint32_t victim = lru_;
  int scanned = 0;
  for (std::uint32_t s = lru_;; s = slots_[s].prev) {
    if (!slots_[s].dirty) {
      victim = s;
      break;
    }
    if (++scanned >= kScanLimit || slots_[s].prev == kNone) break;
  }
  const Slot& v = slots_[victim];
  const auto file = files_.find(v.file);
  MDWF_ASSERT(file != files_.end() && file->second[v.page] == victim);
  file->second[v.page] = kNone;
  Bytes writeback = Bytes::zero();
  if (v.dirty) {
    writeback = params_.page_size;
    --dirty_count_;
  }
  release(victim);
  ++evictions_;
  return writeback;
}

void PageCache::writeback_async(Bytes n) {
  if (n.is_zero()) return;
  sim_->spawn(writeback_guarded(n));
}

sim::Task<void> PageCache::writeback_guarded(Bytes n) {
  // Background flusher traffic must never abort the run: a write that fails
  // (injected I/O error) or never completes before a crash just means the
  // page content is lost — exactly what the durability model expects.
  try {
    co_await device_->write(n);
  } catch (const IoError&) {
    ++failed_writebacks_;
  }
}

sim::Task<void> PageCache::memcpy_cost(Bytes n) {
  if (n.is_zero()) co_return;
  const double secs = static_cast<double>(n.count()) / params_.memcpy_bps;
  co_await sim_->delay(Duration::seconds(secs));
}

void PageCache::set_trace(obs::TraceSink* sink, obs::TrackId track,
                          const std::string& prefix) {
  trace_ = sink;
  trace_resident_ = sink->counter_id(track, prefix + ".resident_pages");
  trace_dirty_ = sink->counter_id(track, prefix + ".dirty_pages");
  traced_resident_ = -1;
  traced_dirty_ = -1;
}

void PageCache::trace_state() {
  if (trace_ == nullptr) return;
  const auto resident = static_cast<std::int64_t>(resident_);
  const auto dirty = static_cast<std::int64_t>(dirty_count_);
  if (resident != traced_resident_) {
    traced_resident_ = resident;
    trace_->counter(trace_resident_, sim_->now(), resident);
  }
  if (dirty != traced_dirty_) {
    traced_dirty_ = dirty;
    trace_->counter(trace_dirty_, sim_->now(), dirty);
  }
}

sim::Task<void> PageCache::write(std::uint64_t file_id, Bytes offset,
                                 Bytes len) {
  if (len.is_zero()) co_return;
  const Bytes writeback = access(file_id, offset, len, true).writeback;
  trace_state();
  // Evicted dirty victims flush in the background; the buffered write only
  // pays the memory copy.
  writeback_async(writeback);
  co_await memcpy_cost(len);
}

sim::Task<void> PageCache::read(std::uint64_t file_id, Bytes offset,
                                Bytes len) {
  if (len.is_zero()) co_return;
  const Access a = access(file_id, offset, len, false);
  trace_state();
  writeback_async(a.writeback);
  if (a.missed > 0) co_await device_->read(params_.page_size * a.missed);
  co_await memcpy_cost(len);
}

sim::Task<void> PageCache::flush(std::uint64_t file_id) {
  Bytes writeback = Bytes::zero();
  if (const auto file = files_.find(file_id); file != files_.end()) {
    for (const std::uint32_t s : file->second) {
      if (s != kNone && slots_[s].dirty) {
        slots_[s].dirty = false;
        --dirty_count_;
        writeback += params_.page_size;
      }
    }
  }
  trace_state();
  if (!writeback.is_zero()) co_await device_->write(writeback);
}

void PageCache::drop(std::uint64_t file_id) {
  if (const auto file = files_.find(file_id); file != files_.end()) {
    for (const std::uint32_t s : file->second) {
      if (s == kNone) continue;
      if (slots_[s].dirty) --dirty_count_;
      release(s);
    }
    files_.erase(file);
  }
  trace_state();
}

std::size_t PageCache::crash_drop_dirty() {
  const std::size_t lost = dirty_count_;
  dirty_dropped_ += lost;
  slots_.clear();
  files_.clear();
  free_ = mru_ = lru_ = kNone;
  resident_ = 0;
  dirty_count_ = 0;
  trace_state();
  return lost;
}

bool PageCache::resident(std::uint64_t file_id, Bytes offset, Bytes len) const {
  if (len.is_zero()) return true;
  const std::uint64_t lo = first_page(offset);
  const std::uint64_t hi = last_page(offset, len);
  MDWF_ASSERT(file_id < (1ull << 32) && hi < (1ull << 32));
  const auto file = files_.find(file_id);
  if (file == files_.end() || file->second.size() <= hi) return false;
  for (std::uint64_t p = lo; p <= hi; ++p) {
    if (file->second[p] == kNone) return false;
  }
  return true;
}

}  // namespace mdwf::storage
