// Tests for the key=value configuration parser.
#include <gtest/gtest.h>

#include <sstream>

#include "mdwf/common/keyval.hpp"

namespace mdwf {
namespace {

TEST(KeyValTest, ParsesArgs) {
  const char* argv[] = {"prog", "pairs=4", "--model=STMV", "positional",
                        "frames = 12"};
  KeyValueConfig cfg;
  const auto positional = cfg.parse_args(5, argv);
  EXPECT_EQ(positional, (std::vector<std::string>{"positional"}));
  EXPECT_EQ(cfg.get_uint("pairs", 0), 4u);
  EXPECT_EQ(cfg.get_string("model", ""), "STMV");
  EXPECT_EQ(cfg.get_uint("frames", 0), 12u);
}

TEST(KeyValTest, EmptyKeyInArgsThrows) {
  for (const char* arg : {"=3", " =3", "--=3"}) {
    const char* argv[] = {"prog", "pairs=4", arg};
    KeyValueConfig cfg;
    try {
      cfg.parse_args(3, argv);
      FAIL() << "expected ConfigError for '" << arg << "'";
    } catch (const ConfigError& e) {
      EXPECT_EQ(std::string(e.what()),
                "empty key in argument '" + std::string(arg) + "'");
    }
  }
}

TEST(KeyValTest, ParsesStreamWithCommentsAndBlanks) {
  std::istringstream in(R"(
# experiment config
solution = lustre
pairs = 16   # inline comment
jitter = 0.02
push = yes
)");
  KeyValueConfig cfg;
  cfg.parse_stream(in);
  EXPECT_EQ(cfg.get_string("solution", ""), "lustre");
  EXPECT_EQ(cfg.get_int("pairs", 0), 16);
  EXPECT_DOUBLE_EQ(cfg.get_double("jitter", 0), 0.02);
  EXPECT_TRUE(cfg.get_bool("push", false));
}

TEST(KeyValTest, MalformedLineReportsNumber) {
  std::istringstream in("a = 1\nnot a pair\n");
  KeyValueConfig cfg;
  try {
    cfg.parse_stream(in);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(KeyValTest, LaterAssignmentsOverride) {
  const char* argv[] = {"prog", "x=1", "x=2"};
  KeyValueConfig cfg;
  (void)cfg.parse_args(3, argv);
  EXPECT_EQ(cfg.get_int("x", 0), 2);
}

TEST(KeyValTest, FallbacksWhenAbsent) {
  KeyValueConfig cfg;
  EXPECT_EQ(cfg.get_string("missing", "dflt"), "dflt");
  EXPECT_EQ(cfg.get_int("missing", -3), -3);
  EXPECT_DOUBLE_EQ(cfg.get_double("missing", 1.5), 1.5);
  EXPECT_TRUE(cfg.get_bool("missing", true));
}

TEST(KeyValTest, TypeErrorsThrow) {
  KeyValueConfig cfg;
  cfg.set("n", "abc");
  cfg.set("b", "maybe");
  cfg.set("d", "1.2.3");
  cfg.set("neg", "-4");
  EXPECT_THROW((void)cfg.get_int("n", 0), ConfigError);
  EXPECT_THROW((void)cfg.get_bool("b", false), ConfigError);
  EXPECT_THROW((void)cfg.get_double("d", 0), ConfigError);
  EXPECT_THROW((void)cfg.get_uint("neg", 0), ConfigError);
  EXPECT_EQ(cfg.get_int("neg", 0), -4);
}

TEST(KeyValTest, NonFiniteDoublesThrow) {
  // std::stod parses these, and every downstream range check such as
  // `analytics <= 0.0` is false for NaN.
  KeyValueConfig cfg;
  for (const std::string v : {"nan", "inf", "-inf"}) {
    cfg.set("analytics", v);
    try {
      (void)cfg.get_double("analytics", 1.0);
      ADD_FAILURE() << v << " was accepted";
    } catch (const ConfigError& e) {
      EXPECT_EQ(std::string(e.what()),
                "key 'analytics': '" + v + "' is not a finite number");
    }
  }
}

TEST(KeyValTest, BooleanSpellings) {
  KeyValueConfig cfg;
  for (const char* t : {"1", "true", "YES", "On"}) {
    cfg.set("k", t);
    EXPECT_TRUE(cfg.get_bool("k", false)) << t;
  }
  for (const char* f : {"0", "False", "no", "OFF"}) {
    cfg.set("k", f);
    EXPECT_FALSE(cfg.get_bool("k", true)) << f;
  }
}

TEST(KeyValTest, UnknownKeysTracksUnaccessed) {
  KeyValueConfig cfg;
  cfg.set("used", "1");
  cfg.set("typo", "2");
  (void)cfg.get_int("used", 0);
  const auto unknown = cfg.unknown_keys();
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "typo");
}

}  // namespace
}  // namespace mdwf
