#include "mdwf/md/frame.hpp"

#include "mdwf/common/rng.hpp"
#include "mdwf/md/byte_io.hpp"
#include "mdwf/md/models.hpp"

namespace mdwf::md {
namespace {

constexpr std::uint32_t kMagic = 0x4D445746;  // "MDWF"
constexpr std::uint16_t kVersion = 1;

}  // namespace

Bytes Frame::serialized_size() const {
  // header: magic(4) + version(2) + reserved(2) + name len(1) + name +
  //         index(8) + count(8); trailer: crc(4)
  return Bytes(4 + 2 + 2 + 1 + model.size() + 8 + 8 +
               atoms.size() * sizeof(std::uint32_t) +
               atoms.size() * 3 * sizeof(double) + 4);
}

std::vector<std::byte> Frame::serialize() const {
  if (model.size() > 255) throw FrameError("model name too long");
  std::vector<std::byte> out;
  out.reserve(serialized_size().count());
  put(out, kMagic);
  put(out, kVersion);
  put(out, std::uint16_t{0});
  put(out, static_cast<std::uint8_t>(model.size()));
  put_raw(out, model.data(), model.size());
  put(out, index);
  put(out, static_cast<std::uint64_t>(atoms.size()));
  for (const Atom& a : atoms) {
    put(out, a.id);
    put(out, a.x);
    put(out, a.y);
    put(out, a.z);
  }
  put_crc(out);
  return out;
}

Frame Frame::deserialize(const std::vector<std::byte>& buf) {
  if (buf.size() < 4) throw FrameError("frame buffer too small");
  if (!crc_trailer_ok(buf)) throw FrameError("frame checksum mismatch");

  ByteReader r(buf);
  if (r.get<std::uint32_t>() != kMagic) throw FrameError("bad frame magic");
  const auto version = r.get<std::uint16_t>();
  if (version != kVersion) {
    throw FrameError("unsupported frame version " + std::to_string(version));
  }
  (void)r.get<std::uint16_t>();  // reserved
  Frame f;
  const auto name_len = r.get<std::uint8_t>();
  f.model.resize(name_len);
  r.raw(f.model.data(), name_len);
  f.index = r.get<std::uint64_t>();
  const auto count = r.get<std::uint64_t>();
  // Guard against absurd counts before allocating.
  if (count * kBytesPerAtom > buf.size()) {
    throw FrameError("frame atom count inconsistent with buffer size");
  }
  f.atoms.resize(count);
  for (auto& a : f.atoms) {
    a.id = r.get<std::uint32_t>();
    a.x = r.get<double>();
    a.y = r.get<double>();
    a.z = r.get<double>();
  }
  if (r.pos() + 4 != buf.size()) throw FrameError("trailing bytes in frame");
  return f;
}

Frame synthesize_frame(std::string model, std::uint64_t atom_count,
                       std::uint64_t index, std::uint64_t seed) {
  Rng rng(seed ^ (index * 0x9E3779B97F4A7C15ull) ^ 0x5851F42D4C957F2Dull);
  Frame f;
  f.model = std::move(model);
  f.index = index;
  f.atoms.resize(atom_count);
  const double box = 100.0;  // Angstrom-scale box
  for (std::uint64_t i = 0; i < atom_count; ++i) {
    f.atoms[i].id = static_cast<std::uint32_t>(i);
    f.atoms[i].x = rng.uniform(0.0, box);
    f.atoms[i].y = rng.uniform(0.0, box);
    f.atoms[i].z = rng.uniform(0.0, box);
  }
  return f;
}

}  // namespace mdwf::md
