// Unit tests for the util substrate: deterministic RNG, CLI parsing,
// tables, formatting, the blocking queue the stream workers use, and the
// mode tables of every configuration enum.
#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <set>
#include <string>
#include <thread>

#include "comm/comm_mode.hpp"
#include "core/cache_mode.hpp"
#include "core/inference_server.hpp"
#include "core/part_mode.hpp"
#include "core/plan_mode.hpp"
#include "core/serve_mode.hpp"
#include "mem/pool_mode.hpp"
#include "util/blocking_queue.hpp"
#include "util/cli.hpp"
#include "util/env.hpp"
#include "util/error.hpp"
#include "util/format.hpp"
#include "util/mode.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace mggcn::util {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a(), b());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    equal += a() == b() ? 1 : 0;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIndexBounds) {
  Rng rng(9);
  for (const std::uint64_t n : {1ULL, 2ULL, 3ULL, 17ULL, 1000ULL}) {
    for (int i = 0; i < 1000; ++i) {
      ASSERT_LT(rng.uniform_index(n), n);
    }
  }
}

TEST(Rng, UniformIndexCoversRange) {
  Rng rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.uniform_index(10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, GaussianMoments) {
  Rng rng(11);
  double sum = 0.0, sum2 = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.gaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(Rng, PermutationIsBijection) {
  Rng rng(3);
  const auto p = rng.permutation<std::uint32_t>(1000);
  std::vector<bool> seen(1000, false);
  for (const auto v : p) {
    ASSERT_LT(v, 1000u);
    ASSERT_FALSE(seen[v]);
    seen[v] = true;
  }
}

TEST(Rng, ForkIsIndependent) {
  Rng a(42);
  Rng child = a.fork();
  // Child draws must not equal parent draws shifted trivially.
  EXPECT_NE(a(), child());
}

TEST(Cli, ParsesOptionsAndFlags) {
  CliParser cli("test");
  cli.option("alpha", "1", "a").option("name", "x", "n").flag("verbose", "v");
  const char* argv[] = {"prog", "--alpha", "42", "--verbose",
                        "--name=hello"};
  cli.parse(5, argv);
  EXPECT_EQ(cli.get_int("alpha"), 42);
  EXPECT_EQ(cli.get("name"), "hello");
  EXPECT_TRUE(cli.get_bool("verbose"));
  EXPECT_FALSE(cli.help_requested());
}

TEST(Cli, DefaultsApply) {
  CliParser cli("test");
  cli.option("x", "7", "x");
  const char* argv[] = {"prog"};
  cli.parse(1, argv);
  EXPECT_EQ(cli.get_int("x"), 7);
}

TEST(Cli, UnknownOptionThrows) {
  CliParser cli("test");
  const char* argv[] = {"prog", "--nope", "1"};
  EXPECT_THROW(cli.parse(3, argv), InvalidArgumentError);
}

TEST(Cli, IntListParsing) {
  CliParser cli("test");
  cli.option("gpus", "1,2,4,8", "g");
  const char* argv[] = {"prog"};
  cli.parse(1, argv);
  EXPECT_EQ(cli.get_int_list("gpus"),
            (std::vector<std::int64_t>{1, 2, 4, 8}));
}

TEST(Cli, HelpRequested) {
  CliParser cli("test");
  const char* argv[] = {"prog", "--help"};
  cli.parse(2, argv);
  EXPECT_TRUE(cli.help_requested());
  EXPECT_FALSE(cli.help().empty());
}

// A malformed numeric value must fail loudly and name the offending flag —
// "--alpha 5x" silently parsing as 5 once corrupted an experiment sweep.
TEST(Cli, StrictIntRejectsTrailingGarbage) {
  CliParser cli("test");
  cli.option("alpha", "1", "a");
  const char* argv[] = {"prog", "--alpha", "5x"};
  cli.parse(3, argv);
  try {
    (void)cli.get_int("alpha");
    FAIL() << "expected InvalidArgumentError";
  } catch (const InvalidArgumentError& e) {
    EXPECT_NE(std::string(e.what()).find("--alpha"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("5x"), std::string::npos);
  }
}

TEST(Cli, StrictIntRejectsNonNumericAndEmpty) {
  CliParser cli("test");
  cli.option("alpha", "nope", "a").option("beta", "", "b");
  const char* argv[] = {"prog"};
  cli.parse(1, argv);
  EXPECT_THROW((void)cli.get_int("alpha"), InvalidArgumentError);
  EXPECT_THROW((void)cli.get_int("beta"), InvalidArgumentError);
}

TEST(Cli, StrictDoubleRejectsTrailingGarbage) {
  CliParser cli("test");
  cli.option("rate", "1.0", "r");
  const char* argv[] = {"prog", "--rate=2.5qps"};
  cli.parse(2, argv);
  try {
    (void)cli.get_double("rate");
    FAIL() << "expected InvalidArgumentError";
  } catch (const InvalidArgumentError& e) {
    EXPECT_NE(std::string(e.what()).find("--rate"), std::string::npos);
  }
  const char* argv2[] = {"prog", "--rate", "0.125"};
  cli.parse(3, argv2);
  EXPECT_EQ(cli.get_double("rate"), 0.125);
}

TEST(Cli, IntListRejectsBadItemNamingFlag) {
  CliParser cli("test");
  cli.option("gpus", "1,2,4x,8", "g");
  const char* argv[] = {"prog"};
  cli.parse(1, argv);
  try {
    (void)cli.get_int_list("gpus");
    FAIL() << "expected InvalidArgumentError";
  } catch (const InvalidArgumentError& e) {
    EXPECT_NE(std::string(e.what()).find("--gpus"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("4x"), std::string::npos);
  }
}

TEST(Cli, BoolAcceptsDocumentedTokensOnly) {
  CliParser cli("test");
  cli.option("check", "true", "c");
  const char* argv0[] = {"prog"};
  for (const char* token : {"true", "1", "yes", "on"}) {
    const char* argv[] = {"prog", "--check", token};
    cli.parse(3, argv);
    EXPECT_TRUE(cli.get_bool("check")) << token;
  }
  for (const char* token : {"false", "0", "no", "off"}) {
    const char* argv[] = {"prog", "--check", token};
    cli.parse(3, argv);
    EXPECT_FALSE(cli.get_bool("check")) << token;
  }
  // "TRUE", "2", "enabled" used to coerce to false silently.
  for (const char* token : {"TRUE", "2", "enabled", ""}) {
    const char* argv[] = {"prog", "--check", token};
    cli.parse(3, argv);
    try {
      (void)cli.get_bool("check");
      FAIL() << "expected InvalidArgumentError for '" << token << "'";
    } catch (const InvalidArgumentError& e) {
      EXPECT_NE(std::string(e.what()).find("--check"), std::string::npos);
    }
  }
  (void)argv0;
}

// The env helpers back every MGGCN_* registry; the registries latch their
// statics on first use, so exercise the helpers directly on scratch names.
TEST(Env, IntFullConsumptionAndRangeNameTheKnob) {
  unsetenv("MGGCN_TEST_INT");
  EXPECT_EQ(env_int("MGGCN_TEST_INT", 7, 1, 100), 7);
  setenv("MGGCN_TEST_INT", "", 1);
  EXPECT_EQ(env_int("MGGCN_TEST_INT", 7, 1, 100), 7);
  setenv("MGGCN_TEST_INT", "42", 1);
  EXPECT_EQ(env_int("MGGCN_TEST_INT", 7, 1, 100), 42);
  for (const char* bad : {"42x", "abc", "1e3", "0", "101"}) {
    setenv("MGGCN_TEST_INT", bad, 1);
    try {
      env_int("MGGCN_TEST_INT", 7, 1, 100);
      FAIL() << "expected InvalidArgumentError for '" << bad << "'";
    } catch (const InvalidArgumentError& e) {
      EXPECT_NE(std::string(e.what()).find("MGGCN_TEST_INT"),
                std::string::npos);
    }
  }
  unsetenv("MGGCN_TEST_INT");
}

TEST(Env, DoubleFullConsumptionNamesTheKnob) {
  unsetenv("MGGCN_TEST_DOUBLE");
  EXPECT_EQ(env_double("MGGCN_TEST_DOUBLE", 0.5, 0.0, 1.0, "a fraction"),
            0.5);
  setenv("MGGCN_TEST_DOUBLE", "0.25", 1);
  EXPECT_EQ(env_double("MGGCN_TEST_DOUBLE", 0.5, 0.0, 1.0, "a fraction"),
            0.25);
  for (const char* bad : {"0.25x", "lots", "-0.1", "1.5"}) {
    setenv("MGGCN_TEST_DOUBLE", bad, 1);
    try {
      env_double("MGGCN_TEST_DOUBLE", 0.5, 0.0, 1.0, "a fraction");
      FAIL() << "expected InvalidArgumentError for '" << bad << "'";
    } catch (const InvalidArgumentError& e) {
      EXPECT_NE(std::string(e.what()).find("MGGCN_TEST_DOUBLE"),
                std::string::npos);
      EXPECT_NE(std::string(e.what()).find("a fraction"), std::string::npos);
    }
  }
  unsetenv("MGGCN_TEST_DOUBLE");
}

TEST(Env, EnumTypoFailsLoudlyNamingKnobAndTokens) {
  enum class Color { kRed, kBlue };
  const auto parse = [](std::string_view s) -> std::optional<Color> {
    if (s == "red") return Color::kRed;
    if (s == "blue") return Color::kBlue;
    return std::nullopt;
  };
  unsetenv("MGGCN_TEST_ENUM");
  EXPECT_EQ(env_enum("MGGCN_TEST_ENUM", Color::kRed, parse, "'red' or 'blue'"),
            Color::kRed);
  setenv("MGGCN_TEST_ENUM", "blue", 1);
  EXPECT_EQ(env_enum("MGGCN_TEST_ENUM", Color::kRed, parse, "'red' or 'blue'"),
            Color::kBlue);
  setenv("MGGCN_TEST_ENUM", "blu", 1);
  try {
    env_enum("MGGCN_TEST_ENUM", Color::kRed, parse, "'red' or 'blue'");
    FAIL() << "expected InvalidArgumentError";
  } catch (const InvalidArgumentError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("MGGCN_TEST_ENUM"), std::string::npos);
    EXPECT_NE(what.find("'red' or 'blue'"), std::string::npos);
    EXPECT_NE(what.find("blu"), std::string::npos);
  }
  unsetenv("MGGCN_TEST_ENUM");
}

/// Every row of ModeTable<E>: name -> parse round trip, rows in
/// enumerator order (dispatch tables index by value), unique names, and
/// unknown/empty tokens rejected. Tables with an environment knob must
/// also fall back when it is unset and fail loudly on a typo, naming the
/// knob and every legal token.
template <typename E>
void expect_mode_table_contract() {
  using Table = ModeTable<E>;
  std::set<std::string> names;
  for (std::size_t i = 0; i < mode_count<E>(); ++i) {
    const ModeRow<E>& row = Table::rows[i];
    EXPECT_EQ(static_cast<std::size_t>(row.value), i) << row.name;
    EXPECT_STREQ(mode_name(row.value), row.name);
    EXPECT_EQ(parse_mode<E>(row.name), row.value) << row.name;
    EXPECT_TRUE(names.insert(row.name).second) << "duplicate " << row.name;
    EXPECT_FALSE(parse_mode<E>(std::string(row.name) + "x").has_value());
  }
  EXPECT_FALSE(parse_mode<E>("").has_value());
  EXPECT_FALSE(parse_mode<E>("bogus").has_value());

  if constexpr (requires { Table::env; }) {
    const char* knob = Table::env;
    const char* set = std::getenv(knob);
    const std::optional<std::string> saved =
        set ? std::optional<std::string>(set) : std::nullopt;
    unsetenv(knob);
    EXPECT_EQ(env_mode<E>(), Table::fallback) << knob;
    const ModeRow<E>& last = Table::rows[mode_count<E>() - 1];
    setenv(knob, last.name, 1);
    EXPECT_EQ(env_mode<E>(), last.value) << knob;
    setenv(knob, "bogus", 1);
    try {
      (void)env_mode<E>();
      ADD_FAILURE() << knob << "=bogus was accepted";
    } catch (const InvalidArgumentError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(knob), std::string::npos) << what;
      EXPECT_NE(what.find("'bogus'"), std::string::npos) << what;
      for (const ModeRow<E>& row : Table::rows) {
        EXPECT_NE(what.find("'" + std::string(row.name) + "'"),
                  std::string::npos)
            << what;
      }
    }
    if (saved) {
      setenv(knob, saved->c_str(), 1);
    } else {
      unsetenv(knob);
    }
  }
}

template <typename... E>
void expect_mode_tables_contract() {
  (expect_mode_table_contract<E>(), ...);
}

TEST(ModeTable, EveryTableRoundTripsAndEnvTyposNameTheirTokens) {
  expect_mode_tables_contract<comm::CommMode, core::PlanMode, core::PartMode,
                              core::CacheMode, core::ServeCacheMode,
                              mem::PoolMode, core::BatchPolicy>();
  EXPECT_EQ(mode_tokens<comm::CommMode>(), "'dense', 'compact', or 'auto'");
}

TEST(Table, RendersAlignedColumns) {
  Table t({"a", "bbbb"});
  t.add_row({"xx", "y"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| a  | bbbb |"), std::string::npos);
  EXPECT_NE(s.find("| xx | y    |"), std::string::npos);
}

TEST(Table, CsvOutput) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  EXPECT_EQ(t.to_csv(), "a,b\n1,2\n");
}

TEST(Table, RejectsWrongArity) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), InvalidArgumentError);
}

TEST(Format, Bytes) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(2048), "2.00 KiB");
  EXPECT_EQ(format_bytes(3ULL << 30), "3.00 GiB");
}

TEST(Format, Seconds) {
  EXPECT_EQ(format_seconds(2.5), "2.500 s");
  EXPECT_EQ(format_seconds(0.0025), "2.500 ms");
  EXPECT_EQ(format_seconds(2.5e-6), "2.500 us");
}

TEST(Format, Speedup) { EXPECT_EQ(format_speedup(1.5), "1.50x"); }

TEST(BlockingQueue, FifoOrder) {
  BlockingQueue<int> q;
  q.push(1);
  q.push(2);
  q.push(3);
  EXPECT_EQ(q.pop(), 1);
  EXPECT_EQ(q.pop(), 2);
  EXPECT_EQ(q.pop(), 3);
}

TEST(BlockingQueue, CloseDrainsRemainingItems) {
  BlockingQueue<int> q;
  q.push(1);
  q.push(2);
  q.close();
  EXPECT_FALSE(q.push(3));
  EXPECT_EQ(q.pop(), 1);
  EXPECT_EQ(q.pop(), 2);
  EXPECT_EQ(q.pop(), std::nullopt);
}

TEST(BlockingQueue, CrossThreadHandoff) {
  BlockingQueue<int> q;
  std::thread producer([&] {
    for (int i = 0; i < 100; ++i) q.push(i);
    q.close();
  });
  int expected = 0;
  while (auto v = q.pop()) {
    EXPECT_EQ(*v, expected++);
  }
  EXPECT_EQ(expected, 100);
  producer.join();
}

TEST(Error, CheckMacroThrowsWithLocation) {
  try {
    MGGCN_CHECK_MSG(false, "context");
    FAIL();
  } catch (const InvalidArgumentError& e) {
    EXPECT_NE(std::string(e.what()).find("context"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("test_util.cpp"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace mggcn::util
