#include "util/serialize.hpp"

#include <cstdio>

namespace r4ncl {

BinaryWriter::BinaryWriter(const std::string& path)
    : out_(path, std::ios::binary | std::ios::trunc), path_(path) {
  R4NCL_CHECK(out_.good(), "cannot open for writing: " << path);
}

void BinaryWriter::write_raw(const void* data, std::size_t bytes) {
  out_.write(static_cast<const char*>(data), static_cast<std::streamsize>(bytes));
  R4NCL_CHECK(out_.good(), "write failed: " << path_);
}

void BinaryWriter::write_u32(std::uint32_t v) { write_raw(&v, sizeof v); }
void BinaryWriter::write_u64(std::uint64_t v) { write_raw(&v, sizeof v); }
void BinaryWriter::write_i64(std::int64_t v) { write_raw(&v, sizeof v); }
void BinaryWriter::write_f32(float v) { write_raw(&v, sizeof v); }
void BinaryWriter::write_f64(double v) { write_raw(&v, sizeof v); }

void BinaryWriter::write_string(const std::string& s) {
  write_u64(s.size());
  if (!s.empty()) write_raw(s.data(), s.size());
}

void BinaryWriter::write_f32_vector(const std::vector<float>& v) {
  write_u64(v.size());
  if (!v.empty()) write_raw(v.data(), v.size() * sizeof(float));
}

void BinaryWriter::write_u8_vector(const std::vector<std::uint8_t>& v) {
  write_u64(v.size());
  if (!v.empty()) write_raw(v.data(), v.size());
}

void BinaryWriter::write_tag(std::uint32_t tag) { write_u32(tag); }

void BinaryWriter::close() {
  if (!out_.is_open()) return;
  out_.flush();
  R4NCL_CHECK(out_.good(), "flush failed: " << path_);
  out_.close();
}

BinaryWriter::~BinaryWriter() {
  try {
    close();
  } catch (...) {
    // Destructors must not throw; explicit close() reports errors.
  }
}

BinaryReader::BinaryReader(const std::string& path)
    : in_(path, std::ios::binary), path_(path) {
  R4NCL_CHECK(in_.good(), "cannot open for reading: " << path);
  // Cache the file size so length-prefixed reads can reject a corrupt prefix
  // before allocating (see check_length).
  in_.seekg(0, std::ios::end);
  const std::streamoff end = in_.tellg();
  in_.seekg(0, std::ios::beg);
  R4NCL_CHECK(end >= 0 && in_.good(), "cannot size: " << path);
  file_size_ = static_cast<std::uint64_t>(end);
}

std::uint64_t BinaryReader::remaining() {
  const std::streamoff pos = in_.tellg();
  R4NCL_CHECK(pos >= 0, "cannot tell position in: " << path_);
  const auto upos = static_cast<std::uint64_t>(pos);
  return upos >= file_size_ ? 0 : file_size_ - upos;
}

void BinaryReader::check_length(std::uint64_t n, std::size_t elem_size, const char* what) {
  // Division form: n * elem_size could wrap std::uint64_t for a hostile
  // prefix (e.g. n = 2^62 floats), silently passing a <= comparison on the
  // product.  n <= remaining / elem_size cannot.
  const std::uint64_t rem = remaining();
  R4NCL_CHECK(n <= rem / elem_size,
              "corrupt " << what << " length in " << path_ << ": " << n << " element(s) of "
                         << elem_size << " byte(s) exceeds the " << rem
                         << " byte(s) remaining");
}

void BinaryReader::read_raw(void* data, std::size_t bytes) {
  in_.read(static_cast<char*>(data), static_cast<std::streamsize>(bytes));
  R4NCL_CHECK(in_.gcount() == static_cast<std::streamsize>(bytes),
              "short read from: " << path_);
}

std::uint32_t BinaryReader::read_u32() {
  std::uint32_t v = 0;
  read_raw(&v, sizeof v);
  return v;
}

std::uint64_t BinaryReader::read_u64() {
  std::uint64_t v = 0;
  read_raw(&v, sizeof v);
  return v;
}

std::int64_t BinaryReader::read_i64() {
  std::int64_t v = 0;
  read_raw(&v, sizeof v);
  return v;
}

float BinaryReader::read_f32() {
  float v = 0;
  read_raw(&v, sizeof v);
  return v;
}

double BinaryReader::read_f64() {
  double v = 0;
  read_raw(&v, sizeof v);
  return v;
}

std::string BinaryReader::read_string() {
  const std::uint64_t n = read_u64();
  check_length(n, 1, "string");
  std::string s(n, '\0');
  if (n > 0) read_raw(s.data(), n);
  return s;
}

std::vector<float> BinaryReader::read_f32_vector() {
  const std::uint64_t n = read_u64();
  check_length(n, sizeof(float), "f32 vector");
  std::vector<float> v(n);
  if (n > 0) read_raw(v.data(), n * sizeof(float));
  return v;
}

std::vector<std::uint8_t> BinaryReader::read_u8_vector() {
  const std::uint64_t n = read_u64();
  check_length(n, 1, "u8 vector");
  std::vector<std::uint8_t> v(n);
  if (n > 0) read_raw(v.data(), n);
  return v;
}

void BinaryReader::expect_tag(std::uint32_t expected) {
  const std::uint32_t got = read_u32();
  R4NCL_CHECK(got == expected, "tag mismatch in " << path_ << ": expected "
                                                  << tag_name(expected) << ", got "
                                                  << tag_name(got));
}

void write_rng_state(BinaryWriter& out, const Rng::State& s) {
  out.write_u64(s.state);
  out.write_u32(s.have_spare_normal ? 1u : 0u);
  out.write_f64(s.spare_normal);
}

Rng::State read_rng_state(BinaryReader& in) {
  Rng::State s;
  s.state = in.read_u64();
  const std::uint32_t have_spare = in.read_u32();
  R4NCL_CHECK(have_spare <= 1, "corrupt rng snapshot: spare-normal flag is " << have_spare);
  s.have_spare_normal = have_spare != 0;
  s.spare_normal = in.read_f64();
  return s;
}

std::string tag_name(std::uint32_t tag) {
  std::string out = "'";
  for (int shift = 0; shift < 32; shift += 8) {
    const auto c = static_cast<unsigned char>((tag >> shift) & 0xffu);
    if (c >= 0x20 && c < 0x7f) {
      out.push_back(static_cast<char>(c));
    } else {
      char hex[5];
      std::snprintf(hex, sizeof hex, "\\x%02X", c);
      out += hex;
    }
  }
  out.push_back('\'');
  return out;
}

}  // namespace r4ncl
