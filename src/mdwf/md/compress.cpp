#include "mdwf/md/compress.hpp"

#include <cmath>

#include "mdwf/common/assert.hpp"
#include "mdwf/md/byte_io.hpp"

namespace mdwf::md {
namespace {

constexpr std::uint32_t kMagic = 0x4D44575A;  // "MDWZ"

// Zig-zag maps signed deltas to unsigned for varint encoding.
std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

void put_varint(std::vector<std::byte>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::byte>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<std::byte>(v));
}

std::uint64_t get_varint(ByteReader& r) {
  std::uint64_t v = 0;
  for (int shift = 0;; shift += 7) {
    const auto b = r.get<std::uint8_t>();
    v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) return v;
    if (shift + 7 > 63) throw FrameError("varint overflow");
  }
}

std::int64_t quantize(double x, double precision) {
  return static_cast<std::int64_t>(std::llround(x / precision));
}

}  // namespace

CompressionResult compress_frame(const Frame& frame, double precision) {
  MDWF_ASSERT(precision > 0.0);
  if (frame.model.size() > 255) throw FrameError("model name too long");
  std::vector<std::byte> out;
  out.reserve(frame.atoms.size() * 6 + 64);
  put(out, kMagic);
  put(out, precision);
  put(out, static_cast<std::uint64_t>(frame.atoms.size()));
  put(out, frame.index);
  put(out, static_cast<std::uint8_t>(frame.model.size()));
  put_raw(out, frame.model.data(), frame.model.size());

  std::int64_t px = 0, py = 0, pz = 0;
  for (const Atom& a : frame.atoms) {
    const std::int64_t qx = quantize(a.x, precision);
    const std::int64_t qy = quantize(a.y, precision);
    const std::int64_t qz = quantize(a.z, precision);
    put_varint(out, zigzag(qx - px));
    put_varint(out, zigzag(qy - py));
    put_varint(out, zigzag(qz - pz));
    px = qx;
    py = qy;
    pz = qz;
  }
  put_crc(out);

  CompressionResult result;
  result.raw_size = frame.serialized_size();
  result.compressed_size = Bytes(out.size());
  result.data = std::move(out);
  return result;
}

Frame decompress_frame(const std::vector<std::byte>& data) {
  if (data.size() < 8) throw FrameError("compressed frame too small");
  if (!crc_trailer_ok(data)) {
    throw FrameError("compressed frame checksum mismatch");
  }

  ByteReader r(data);
  if (r.get<std::uint32_t>() != kMagic) {
    throw FrameError("bad compressed frame magic");
  }
  const double precision = r.get<double>();
  if (!(precision > 0.0)) throw FrameError("bad precision");
  const auto count = r.get<std::uint64_t>();
  Frame f;
  f.index = r.get<std::uint64_t>();
  const auto name_len = r.get<std::uint8_t>();
  f.model.resize(name_len);
  r.raw(f.model.data(), name_len);
  if (count > data.size()) {
    throw FrameError("atom count inconsistent with buffer");
  }
  f.atoms.resize(count);
  std::int64_t px = 0, py = 0, pz = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    px += unzigzag(get_varint(r));
    py += unzigzag(get_varint(r));
    pz += unzigzag(get_varint(r));
    f.atoms[i] = Atom{static_cast<std::uint32_t>(i),
                      static_cast<double>(px) * precision,
                      static_cast<double>(py) * precision,
                      static_cast<double>(pz) * precision};
  }
  if (r.pos() + 4 != data.size()) {
    throw FrameError("trailing bytes in compressed frame");
  }
  return f;
}

}  // namespace mdwf::md
