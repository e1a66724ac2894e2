// Config parsing: CLI tokens, env fallback, typed getters, key validation.
#include <cstdlib>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "util/config.hpp"
#include "util/error.hpp"

namespace r4ncl {
namespace {

Config parse(std::initializer_list<const char*> tokens) {
  std::vector<char*> argv;
  static char prog[] = "prog";
  argv.push_back(prog);
  std::vector<std::string> storage(tokens.begin(), tokens.end());
  for (auto& s : storage) argv.push_back(s.data());
  return Config::from_args(static_cast<int>(argv.size()), argv.data());
}

TEST(Config, ParsesKeyValueTokens) {
  const Config cfg = parse({"epochs=5", "lr=0.01", "name=test"});
  EXPECT_EQ(cfg.get_int("epochs", 0), 5);
  EXPECT_DOUBLE_EQ(cfg.get_double("lr", 0.0), 0.01);
  EXPECT_EQ(cfg.get_string("name", ""), "test");
}

TEST(Config, FallbacksWhenMissing) {
  const Config cfg = parse({});
  EXPECT_EQ(cfg.get_int("missing", 42), 42);
  EXPECT_DOUBLE_EQ(cfg.get_double("missing", 1.5), 1.5);
  EXPECT_EQ(cfg.get_string("missing", "dflt"), "dflt");
  EXPECT_TRUE(cfg.get_bool("missing", true));
}

/// The Error message get(cfg) throws, or "" when it does not throw.
template <typename Get>
std::string error_of(Get get) {
  try {
    (void)get();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(Config, BoolParsing) {
  const Config cfg = parse({"a=1", "b=true", "c=0", "d=off", "e=yes", "f=no", "g=on",
                            "h=false", "bogus=bogus", "typo=flase", "tail=yes2", "empty="});
  for (const char* key : {"a", "b", "e", "g"}) EXPECT_TRUE(cfg.get_bool(key, false)) << key;
  for (const char* key : {"c", "d", "f", "h"}) EXPECT_FALSE(cfg.get_bool(key, true)) << key;
  // The name is kept from when this test pinned the fallback for "e=bogus";
  // that fallback was the bug: `cache=flase` ran silently with the default.
  for (const char* key : {"bogus", "typo", "tail", "empty"}) {
    const std::string what = error_of([&] { return cfg.get_bool(key, true); });
    const std::string expected = std::string(key) + "=" + *cfg.get(key) + " must be a boolean";
    EXPECT_NE(what.find(expected), std::string::npos) << key << ": " << what;
  }
  ::setenv("R4NCL_BOOL_UNIQUE", "flase", 1);
  const std::string env = error_of([&] { return cfg.get_bool("bool_unique", false); });
  ::unsetenv("R4NCL_BOOL_UNIQUE");
  EXPECT_NE(env.find("R4NCL_BOOL_UNIQUE=flase must be a boolean"), std::string::npos) << env;
}

TEST(Config, MalformedNumberFallsBack) {
  // The name is kept from when this test pinned the silent fallback for
  // "epochs=abc"; that fallback was the bug.  A parse that stops at the
  // first non-digit would run each of these silently as a wrong value:
  // "64k" as 64, "1e3" as 1, "2.5" as 2, "0.5x" as 0.5, "abc" and "" as the
  // fallback.  Each must throw instead.
  const Config cfg = parse({"epochs=abc", "budget=64k", "samples=1e3", "shards=2.5",
                            "empty=", "scale=0.5x", "lr=."});
  for (const char* key : {"epochs", "budget", "samples", "shards", "empty"}) {
    const std::string what = error_of([&] { return cfg.get_int(key, 7); });
    const std::string expected =
        std::string(key) + "=" + *cfg.get(key) + " must be an integer";
    EXPECT_NE(what.find(expected), std::string::npos) << key << ": " << what;
  }
  for (const char* key : {"scale", "lr", "empty"}) {
    const std::string what = error_of([&] { return cfg.get_double(key, 1.0); });
    const std::string expected = std::string(key) + "=" + *cfg.get(key) + " must be a number";
    EXPECT_NE(what.find(expected), std::string::npos) << key << ": " << what;
  }
  // Whole numbers still parse, including the forms get_double admits.
  const Config ok = parse({"n=-12", "x=1e3", "y=-0.25"});
  EXPECT_EQ(ok.get_int("n", 0), -12);
  EXPECT_DOUBLE_EQ(ok.get_double("x", 0.0), 1000.0);
  EXPECT_DOUBLE_EQ(ok.get_double("y", 0.0), -0.25);
  // An environment value is named by its variable.
  ::setenv("R4NCL_MALFORMED_UNIQUE", "64k", 1);
  const std::string env = error_of([&] { return cfg.get_int("malformed_unique", 0); });
  ::unsetenv("R4NCL_MALFORMED_UNIQUE");
  EXPECT_NE(env.find("R4NCL_MALFORMED_UNIQUE=64k must be an integer"), std::string::npos)
      << env;
}

TEST(Config, EnvKeyMapping) {
  EXPECT_EQ(env_key_for("epochs"), "R4NCL_EPOCHS");
  EXPECT_EQ(env_key_for("cache-dir"), "R4NCL_CACHE_DIR");
  EXPECT_EQ(env_key_for("a.b"), "R4NCL_A_B");
}

TEST(Config, EnvironmentFallback) {
  ::setenv("R4NCL_TESTKEY_UNIQUE", "123", 1);
  const Config cfg = parse({});
  EXPECT_EQ(cfg.get_int("testkey_unique", 0), 123);
  ::unsetenv("R4NCL_TESTKEY_UNIQUE");
}

TEST(Config, ExplicitValueBeatsEnvironment) {
  ::setenv("R4NCL_PRIORITY_KEY", "1", 1);
  const Config cfg = parse({"priority_key=2"});
  EXPECT_EQ(cfg.get_int("priority_key", 0), 2);
  ::unsetenv("R4NCL_PRIORITY_KEY");
}

TEST(Config, RejectsPositionalTokens) {
  // A token without a key must not be dropped: `deployment_report drill 0`
  // would run the drill and `budget_stream budget 4096` the default budget.
  for (const char* token : {"drill", "0", "=5", "budget"}) {
    const std::string what = error_of([&] { return parse({"epochs=3", token}); });
    EXPECT_NE(what.find(std::string("argument '") + token + "' is not a key=value token"),
              std::string::npos)
        << token << ": " << what;
  }
}

TEST(Config, ValidateKeysAcceptsKnown) {
  const Config cfg = parse({"alpha=1", "beta=x", "empty="});
  const std::string_view known[] = {"alpha", "beta", "empty", "gamma"};
  EXPECT_NO_THROW(cfg.validate_keys(known));
}

TEST(Config, ValidateKeysRejectsUnknownListingValidSorted) {
  const Config cfg = parse({"beta=x", "zeta=1"});
  const std::string_view known[] = {"gamma", "beta", "alpha"};
  try {
    cfg.validate_keys(known);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "unknown config key 'zeta' (valid keys: alpha, beta, gamma)");
  }
}

TEST(Config, ValidateKeysIgnoresEnvironmentVariables) {
  ::setenv("R4NCL_NOT_A_KNOWN_KEY", "1", 1);
  const Config cfg = parse({});
  const std::string_view known[] = {"alpha"};
  EXPECT_NO_THROW(cfg.validate_keys(known));
  ::unsetenv("R4NCL_NOT_A_KNOWN_KEY");
}

}  // namespace
}  // namespace r4ncl
