// Lightweight experiment configuration: key=value overrides from the
// environment (R4NCL_<KEY>) or from "key=value" command-line tokens.
//
// Benches and examples use this to stay runnable on small machines
// (R4NCL_SCALE, R4NCL_EPOCHS, ...) while keeping paper-faithful defaults in
// code rather than in external files.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>

namespace r4ncl {

/// String-keyed option bag with typed getters.  Lookup order:
/// explicit set() / parsed CLI > environment (R4NCL_<UPPERCASED KEY>) > fallback.
class Config {
 public:
  Config() = default;

  /// Parses "key=value" tokens.  Any other token (`drill`, `=5`) throws an
  /// Error naming it, so a positional argument cannot be dropped silently.
  static Config from_args(int argc, char** argv);

  void set(const std::string& key, const std::string& value);

  [[nodiscard]] std::optional<std::string> get(const std::string& key) const;
  [[nodiscard]] std::string get_string(const std::string& key, const std::string& fallback) const;
  /// Numeric getters: `fallback` when the key is absent; a value that is not
  /// entirely a number (decimal for get_int, "1e3" and "0.5" included for
  /// get_double; no whitespace or '+') throws Error naming the key — or its
  /// R4NCL_<KEY> variable — and the value, so `budget=64k` cannot run as 64.
  [[nodiscard]] long long get_int(const std::string& key, long long fallback) const;
  [[nodiscard]] double get_double(const std::string& key, double fallback) const;
  /// `fallback` when the key is absent; 1/true/yes/on and 0/false/no/off
  /// parse, and any other value throws the same way (`verbose=flase`).
  [[nodiscard]] bool get_bool(const std::string& key, bool fallback) const;

  /// Throws Error when any explicitly-set key (a parsed CLI token or set()
  /// call) is not in `known`; the message names the first offending key and
  /// lists the valid ones sorted, so a typo like `latentbits=4` fails loudly
  /// instead of silently running the defaults.  Environment variables are
  /// not validated — they are read on demand through the known keys only.
  void validate_keys(std::span<const std::string_view> known) const;

 private:
  /// `key` for an explicit value, R4NCL_<KEY> for an environment one.
  [[nodiscard]] std::string source_name(const std::string& key) const;

  std::map<std::string, std::string> values_;
};

/// "epochs" → "R4NCL_EPOCHS".
std::string env_key_for(const std::string& key);

/// Strict non-negative decimal parse: digits only (no sign, hex prefix,
/// whitespace or empty string), overflow-checked over the full uint64
/// range.  Returns false instead of guessing — the CLI surfaces use this
/// for values such as seeds that need the uint64 range get_int() (int64,
/// signed) cannot hold.
[[nodiscard]] bool parse_unsigned_decimal(std::string_view text,
                                          std::uint64_t& value) noexcept;

}  // namespace r4ncl
