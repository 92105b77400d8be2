// Byte-level writer/reader shared by the frame codecs (frame.cpp and
// compress.cpp); internal to mdwf::md.  Values are copied in host byte
// order, every frame ends in a CRC32C trailer, and every read is
// bounds-checked: running off the end of the buffer throws FrameError.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "mdwf/common/crc32c.hpp"
#include "mdwf/md/frame.hpp"

namespace mdwf::md {

inline void put_raw(std::vector<std::byte>& out, const void* p,
                    std::size_t n) {
  const auto* b = static_cast<const std::byte*>(p);
  out.insert(out.end(), b, b + n);
}

template <typename T>
void put(std::vector<std::byte>& out, T v) {
  put_raw(out, &v, sizeof(v));
}

// Appends the CRC32C of everything written so far: the codecs' trailer.
inline void put_crc(std::vector<std::byte>& out) {
  put(out, crc32c(out.data(), out.size()));
}

// True when the trailer (the last four bytes of `buf`, which must exist)
// matches the CRC32C of everything before it.
inline bool crc_trailer_ok(const std::vector<std::byte>& buf) {
  std::uint32_t stored;
  std::memcpy(&stored, buf.data() + buf.size() - 4, 4);
  return stored == crc32c(buf.data(), buf.size() - 4);
}

class ByteReader {
 public:
  explicit ByteReader(const std::vector<std::byte>& buf) : buf_(buf) {}

  template <typename T>
  T get() {
    T v;
    raw(&v, sizeof(v));
    return v;
  }

  void raw(void* p, std::size_t n) {
    if (n > buf_.size() - pos_) throw FrameError("frame buffer truncated");
    std::memcpy(p, buf_.data() + pos_, n);
    pos_ += n;
  }

  std::size_t pos() const { return pos_; }

 private:
  const std::vector<std::byte>& buf_;
  std::size_t pos_ = 0;
};

}  // namespace mdwf::md
