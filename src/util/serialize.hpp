// Tagged binary serialization for model checkpoints and latent buffers.
//
// Format: little-endian, each section opened by a <u32 tag>.  Tags make a
// checkpoint self-describing enough to fail loudly on format drift instead
// of silently mis-reading it.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace r4ncl {

/// Sequential binary writer.  All write_* members throw r4ncl::Error on I/O
/// failure so callers never proceed with a truncated checkpoint.
class BinaryWriter {
 public:
  explicit BinaryWriter(const std::string& path);

  void write_u32(std::uint32_t v);
  void write_u64(std::uint64_t v);
  void write_i64(std::int64_t v);
  void write_f32(float v);
  void write_f64(double v);
  void write_string(const std::string& s);
  void write_f32_vector(const std::vector<float>& v);
  void write_u8_vector(const std::vector<std::uint8_t>& v);

  /// Writes a tag marking the start of a named section.
  void write_tag(std::uint32_t tag);

  /// Flushes and closes; throws on failure.  Also called by the destructor
  /// (which swallows errors — call close() explicitly for checked shutdown).
  void close();

  ~BinaryWriter();
  BinaryWriter(const BinaryWriter&) = delete;
  BinaryWriter& operator=(const BinaryWriter&) = delete;

 private:
  void write_raw(const void* data, std::size_t bytes);
  std::ofstream out_;
  std::string path_;
};

/// Sequential binary reader mirroring BinaryWriter.  Throws r4ncl::Error on
/// short reads or tag mismatches.  Length-prefixed reads (strings, vectors)
/// validate the on-disk length against the bytes actually remaining in the
/// file *before* allocating, so a corrupt or truncated checkpoint fails with
/// the pinned Error instead of a multi-GB allocation (OOM / bad_alloc).
class BinaryReader {
 public:
  explicit BinaryReader(const std::string& path);

  std::uint32_t read_u32();
  std::uint64_t read_u64();
  std::int64_t read_i64();
  float read_f32();
  double read_f64();
  std::string read_string();
  std::vector<float> read_f32_vector();
  std::vector<std::uint8_t> read_u8_vector();

  /// Reads a tag and checks it equals `expected`.  Mismatches report both
  /// tags by their four-char names ("expected 'SNET', got 'LRBF'"), not raw
  /// decimal u32s, so format-drift failures are readable.
  void expect_tag(std::uint32_t expected);

  /// Bytes between the read cursor and the end of the file.
  [[nodiscard]] std::uint64_t remaining();

  BinaryReader(const BinaryReader&) = delete;
  BinaryReader& operator=(const BinaryReader&) = delete;

 private:
  void read_raw(void* data, std::size_t bytes);
  /// Validates a length prefix of `n` elements of `elem_size` bytes against
  /// remaining(); the division form also guards the n * elem_size multiply
  /// from wrapping.  Throws the pinned Error on overrun.
  void check_length(std::uint64_t n, std::size_t elem_size, const char* what);
  std::ifstream in_;
  std::string path_;
  std::uint64_t file_size_ = 0;
};

/// The one Rng::State codec of a checkpoint: SplitMix64 state, spare-normal
/// flag (u32) and spare value.  A flag other than 0 or 1 reads as
/// "corrupt rng snapshot: spare-normal flag is <n>".
void write_rng_state(BinaryWriter& out, const Rng::State& s);
[[nodiscard]] Rng::State read_rng_state(BinaryReader& in);

/// Builds a four-character tag, e.g. make_tag("WGHT").
constexpr std::uint32_t make_tag(const char (&s)[5]) {
  return static_cast<std::uint32_t>(s[0]) | (static_cast<std::uint32_t>(s[1]) << 8) |
         (static_cast<std::uint32_t>(s[2]) << 16) | (static_cast<std::uint32_t>(s[3]) << 24);
}

/// Inverse of make_tag() for diagnostics: decodes a tag to its four-char name
/// quoted ("'SNET'"); non-printable bytes render as \xNN so a bit-flipped tag
/// still prints safely.
[[nodiscard]] std::string tag_name(std::uint32_t tag);

}  // namespace r4ncl
