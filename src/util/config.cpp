#include "util/config.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdlib>
#include <system_error>
#include <vector>

#include "util/error.hpp"

namespace r4ncl {

Config Config::from_args(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string tok = argv[i];
    const std::size_t eq = tok.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw Error("argument '" + tok + "' is not a key=value token");
    }
    cfg.set(tok.substr(0, eq), tok.substr(eq + 1));
  }
  return cfg;
}

void Config::set(const std::string& key, const std::string& value) { values_[key] = value; }

std::optional<std::string> Config::get(const std::string& key) const {
  if (auto it = values_.find(key); it != values_.end()) return it->second;
  if (const char* env = std::getenv(env_key_for(key).c_str())) return std::string(env);
  return std::nullopt;
}

std::string Config::get_string(const std::string& key, const std::string& fallback) const {
  return get(key).value_or(fallback);
}

namespace {

/// Parses all of `text` as a Number; a value that is not entirely one
/// ("64k", "1e3" for an integer, "0.5x", "") throws, naming where it came
/// from and what it was.
template <typename Number>
Number parse_whole(const std::string& name, const std::string& text, const char* kind) {
  Number value{};
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  R4NCL_CHECK(ec == std::errc() && stop == end, name << "=" << text << " must be " << kind);
  return value;
}

}  // namespace

std::string Config::source_name(const std::string& key) const {
  return values_.contains(key) ? key : env_key_for(key);
}

long long Config::get_int(const std::string& key, long long fallback) const {
  const auto v = get(key);
  return v ? parse_whole<long long>(source_name(key), *v, "an integer") : fallback;
}

double Config::get_double(const std::string& key, double fallback) const {
  const auto v = get(key);
  return v ? parse_whole<double>(source_name(key), *v, "a number") : fallback;
}

bool Config::get_bool(const std::string& key, bool fallback) const {
  const auto v = get(key);
  if (!v) return fallback;
  const bool yes = *v == "1" || *v == "true" || *v == "yes" || *v == "on";
  const bool no = *v == "0" || *v == "false" || *v == "no" || *v == "off";
  R4NCL_CHECK(yes || no, source_name(key)
                             << "=" << *v
                             << " must be a boolean (1/true/yes/on or 0/false/no/off)");
  return yes;
}

void Config::validate_keys(std::span<const std::string_view> known) const {
  for (const auto& [key, value] : values_) {
    if (std::find(known.begin(), known.end(), key) != known.end()) continue;
    std::vector<std::string_view> sorted(known.begin(), known.end());
    std::sort(sorted.begin(), sorted.end());
    std::string msg = "unknown config key '" + key + "' (valid keys: ";
    for (std::size_t i = 0; i < sorted.size(); ++i) {
      if (i > 0) msg += ", ";
      msg.append(sorted[i]);
    }
    msg += ")";
    throw Error(msg);
  }
}

std::string env_key_for(const std::string& key) {
  std::string out = "R4NCL_";
  for (char c : key) {
    out.push_back(c == '-' || c == '.'
                      ? '_'
                      : static_cast<char>(std::toupper(static_cast<unsigned char>(c))));
  }
  return out;
}


bool parse_unsigned_decimal(std::string_view text, std::uint64_t& value) noexcept {
  if (text.empty()) return false;
  std::uint64_t parsed = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (parsed > (~std::uint64_t{0} - digit) / 10) return false;  // would wrap
    parsed = parsed * 10 + digit;
  }
  value = parsed;
  return true;
}

}  // namespace r4ncl
