// Unit tests for the utility substrate: deterministic RNG, hashing, string
// helpers, the CLI flag parser, JSON and the EINTR-safe file primitives.

#include <fcntl.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <map>
#include <numeric>
#include <set>

#include "util/fileio.hpp"
#include "util/flags.hpp"
#include "util/hash.hpp"
#include "util/json.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace ibgp::util {
namespace {

// --- rng -------------------------------------------------------------------

TEST(SplitMix64, DeterministicAcrossInstances) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DifferentSeedsDiverge) {
  SplitMix64 a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(Xoshiro256, Deterministic) {
  Xoshiro256 a(7), b(7);
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(a.next(), b.next());
}

TEST(Xoshiro256, BelowRespectsBound) {
  Xoshiro256 rng(123);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, (1ULL << 40)}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Xoshiro256, BelowOneIsAlwaysZero) {
  Xoshiro256 rng(9);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Xoshiro256, RangeInclusive) {
  Xoshiro256 rng(5);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // every value hit
}

TEST(Xoshiro256, BelowIsRoughlyUniform) {
  Xoshiro256 rng(2024);
  std::array<int, 8> buckets{};
  constexpr int kDraws = 80000;
  for (int i = 0; i < kDraws; ++i) ++buckets[rng.below(8)];
  for (const int count : buckets) {
    EXPECT_NEAR(count, kDraws / 8, kDraws / 8 * 0.1);
  }
}

TEST(Xoshiro256, ChanceExtremes) {
  Xoshiro256 rng(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Xoshiro256, Uniform01InRange) {
  Xoshiro256 rng(4);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Xoshiro256, ShuffleIsPermutation) {
  Xoshiro256 rng(11);
  std::vector<int> items(50);
  std::iota(items.begin(), items.end(), 0);
  auto shuffled = items;
  rng.shuffle(std::span<int>(shuffled));
  EXPECT_NE(shuffled, items);  // astronomically unlikely to be identity
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, items);
}

TEST(DeriveSeed, ChildrenAreDistinct) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 1000; ++i) seeds.insert(derive_seed(99, i));
  EXPECT_EQ(seeds.size(), 1000u);
}

// --- hash --------------------------------------------------------------------

TEST(Hash, Fnv1aMatchesKnownVector) {
  // FNV-1a 64-bit of empty string is the offset basis.
  EXPECT_EQ(fnv1a(std::string_view{}), 0xcbf29ce484222325ULL);
  EXPECT_NE(fnv1a("a"), fnv1a("b"));
}

TEST(Hash, CombineOrderSensitive) {
  const auto ab = hash_combine(hash_combine(0, 1), 2);
  const auto ba = hash_combine(hash_combine(0, 2), 1);
  EXPECT_NE(ab, ba);
}

TEST(Fingerprint, OrderAndContentSensitive) {
  Fingerprint a, b, c;
  a.add(1).add(2);
  b.add(2).add(1);
  c.add(1).add(2);
  EXPECT_NE(a.value(), b.value());
  EXPECT_EQ(a.value(), c.value());
}

TEST(Fingerprint, StringsMix) {
  Fingerprint a, b;
  a.add("hello");
  b.add("hellp");
  EXPECT_NE(a.value(), b.value());
}

// --- strings -----------------------------------------------------------------

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim("\t\n a b \r"), "a b");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(Strings, SplitKeepsEmptyFields) {
  const auto parts = split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(Strings, SplitWsSkipsRuns) {
  const auto parts = split_ws("  a \t b\n c  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(Strings, ParseI64) {
  EXPECT_EQ(parse_i64("42"), 42);
  EXPECT_EQ(parse_i64("-7"), -7);
  EXPECT_EQ(parse_i64(" 13 "), 13);
  EXPECT_FALSE(parse_i64("12x"));
  EXPECT_FALSE(parse_i64(""));
  EXPECT_FALSE(parse_i64("4.5"));
}

TEST(Strings, ParseU64RejectsNegative) {
  EXPECT_EQ(parse_u64("18446744073709551615"), 18446744073709551615ULL);
  EXPECT_FALSE(parse_u64("-1"));
}

TEST(Strings, ParseF64) {
  EXPECT_DOUBLE_EQ(parse_f64("2.5").value(), 2.5);
  EXPECT_FALSE(parse_f64("nope"));
}

TEST(Strings, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
}

TEST(Strings, StartsWithAndLower) {
  EXPECT_TRUE(starts_with("--flag", "--"));
  EXPECT_FALSE(starts_with("-", "--"));
  EXPECT_EQ(to_lower("AbC"), "abc");
}

// --- flags -------------------------------------------------------------------

TEST(Flags, ParsesAllKinds) {
  Flags flags("prog", "test");
  flags.add_string("name", "default", "a string");
  flags.add_int("count", 3, "an int");
  flags.add_double("ratio", 0.5, "a double");
  flags.add_bool("verbose", false, "a bool");

  const char* argv[] = {"prog", "--name=xyz", "--count", "7", "--ratio=1.5", "--verbose"};
  ASSERT_TRUE(flags.parse(6, argv)) << flags.error();
  EXPECT_EQ(flags.get_string("name"), "xyz");
  EXPECT_EQ(flags.get_int("count"), 7);
  EXPECT_DOUBLE_EQ(flags.get_double("ratio"), 1.5);
  EXPECT_TRUE(flags.get_bool("verbose"));
}

TEST(Flags, NoPrefixDisablesBool) {
  Flags flags("prog", "test");
  flags.add_bool("feature", true, "a bool");
  const char* argv[] = {"prog", "--no-feature"};
  ASSERT_TRUE(flags.parse(2, argv));
  EXPECT_FALSE(flags.get_bool("feature"));
}

TEST(Flags, RejectsUnknown) {
  Flags flags("prog", "test");
  const char* argv[] = {"prog", "--mystery"};
  EXPECT_FALSE(flags.parse(2, argv));
  EXPECT_NE(flags.error().find("mystery"), std::string_view::npos);
}

TEST(Flags, RejectsBadInt) {
  Flags flags("prog", "test");
  flags.add_int("n", 0, "int");
  const char* argv[] = {"prog", "--n=abc"};
  EXPECT_FALSE(flags.parse(2, argv));
}

TEST(Flags, PositionalCollected) {
  Flags flags("prog", "test");
  const char* argv[] = {"prog", "one", "two"};
  ASSERT_TRUE(flags.parse(3, argv));
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[1], "two");
}

TEST(Flags, HelpRequested) {
  Flags flags("prog", "test");
  const char* argv[] = {"prog", "--help"};
  ASSERT_TRUE(flags.parse(2, argv));
  EXPECT_TRUE(flags.help_requested());
  EXPECT_NE(flags.help_text().find("prog"), std::string::npos);
}

// --- log ---------------------------------------------------------------------

TEST(Log, LevelsFilter) {
  auto& logger = Logger::instance();
  std::vector<std::string> captured;
  logger.set_sink([&](LogLevel, std::string_view message) {
    captured.emplace_back(message);
  });
  logger.set_level(LogLevel::kWarn);
  IBGP_INFO() << "hidden";
  IBGP_WARN() << "shown " << 42;
  logger.set_level(LogLevel::kWarn);
  logger.set_sink(nullptr);
  ASSERT_EQ(captured.size(), 1u);
  EXPECT_EQ(captured[0], "shown 42");
}

TEST(Log, ParseLevelNames) {
  EXPECT_EQ(parse_log_level("trace"), LogLevel::kTrace);
  EXPECT_EQ(parse_log_level("ERROR"), LogLevel::kError);
  EXPECT_EQ(parse_log_level("off"), LogLevel::kOff);
  EXPECT_EQ(parse_log_level("bogus"), LogLevel::kInfo);
  EXPECT_EQ(log_level_name(LogLevel::kDebug), "DEBUG");
}

// --- json parser ------------------------------------------------------------

TEST(Json, ParsesEverythingTheBuilderEmits) {
  json::Object inner;
  inner.emplace_back("s", "quote \" backslash \\ newline \n tab \t");
  inner.emplace_back("i", std::int64_t{-42});
  inner.emplace_back("u", std::uint64_t{18446744073709551615ull});
  inner.emplace_back("d", 1.5);
  inner.emplace_back("t", true);
  inner.emplace_back("n", nullptr);
  json::Array arr;
  arr.emplace_back(1);
  arr.emplace_back("two");
  arr.emplace_back(json::Array{});
  json::Object top;
  top.emplace_back("inner", std::move(inner));
  top.emplace_back("arr", std::move(arr));
  const json::Value doc{std::move(top)};

  for (const std::string text : {doc.dump(), doc.dump_compact()}) {
    const auto parsed = json::parse(text);
    ASSERT_TRUE(parsed.has_value()) << text;
    EXPECT_EQ(parsed->dump(), doc.dump());
    const auto& in = parsed->at("inner");
    EXPECT_EQ(in.at("s").as_string(), "quote \" backslash \\ newline \n tab \t");
    EXPECT_EQ(in.at("i").as_int(), -42);
    EXPECT_EQ(in.at("u").as_uint(), 18446744073709551615ull);
    EXPECT_EQ(in.at("d").as_double(), 1.5);
    EXPECT_TRUE(in.at("t").as_bool());
    EXPECT_TRUE(in.at("n").is_null());
    EXPECT_EQ(parsed->at("arr").as_array().size(), 3u);
  }
}

TEST(Json, ParsesStandardConstructs) {
  const auto v = json::parse(R"(  {"a": [1, 2.5e2, -3], "b": {"c": "A😀"}} )");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->at("a").as_array()[1].as_double(), 250.0);
  EXPECT_EQ(v->at("a").as_array()[2].as_int(), -3);
  EXPECT_EQ(v->at("b").at("c").as_string(), "A\xF0\x9F\x98\x80");  // UTF-8 😀
}

TEST(Json, RejectsMalformedDocuments) {
  std::string error;
  for (const char* bad : {
           "",                    // empty
           "{",                   // truncated object
           "[1, 2",               // truncated array
           "{\"a\": }",           // missing value
           "{\"a\": 1,}",         // trailing comma
           "{'a': 1}",            // single quotes
           "{\"a\": 1} trailing", // garbage after document
           "nul",                 // bad literal
           "01",                  // leading zero
           "1.",                  // bare decimal point
           "\"unterminated",      // unterminated string
           "\"bad \\x escape\"",  // invalid escape
           "{\"a\" 1}",           // missing colon
       }) {
    error.clear();
    EXPECT_FALSE(json::parse(bad, &error).has_value()) << bad;
    EXPECT_NE(error.find("offset"), std::string::npos) << bad << " -> " << error;
  }
}

TEST(Json, TypedAccessorsThrowOnMismatch) {
  const auto v = json::parse(R"({"s": "x", "n": 3.5, "neg": -1})").value();
  EXPECT_THROW((void)v.at("s").as_int(), std::runtime_error);
  EXPECT_THROW((void)v.at("n").as_int(), std::runtime_error);     // not integral
  EXPECT_THROW((void)v.at("neg").as_uint(), std::runtime_error);  // negative
  EXPECT_THROW((void)v.at("s").as_array(), std::runtime_error);
  EXPECT_THROW((void)v.at("missing"), std::runtime_error);
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_NE(v.find("s"), nullptr);
}

TEST(Json, IntegerAccessorsAcceptExactCrossKindValues) {
  // A parsed non-negative integer may land as uint; as_int must accept it
  // while it fits, and vice versa.
  const auto v = json::parse(R"({"u": 7, "big": 9223372036854775808})").value();
  EXPECT_EQ(v.at("u").as_int(), 7);
  EXPECT_EQ(v.at("u").as_uint(), 7u);
  EXPECT_EQ(v.at("big").as_uint(), 9223372036854775808ull);
  EXPECT_THROW((void)v.at("big").as_int(), std::runtime_error);  // > int64 max
}

TEST(Json, OutOfRangeDoublesAreRejectedBeforeConversion) {
  // Each of these parses to a double outside the accessor's range; a
  // static_cast of it would be undefined behaviour, so the accessor must
  // refuse it before converting.
  const auto v = json::parse(R"({"big": 1e300, "neg": -1e300, "two64": 18446744073709551616,
                                 "two63": 9223372036854775808.0, "min": -9223372036854775808.0})")
                     .value();
  for (const char* key : {"big", "neg", "two64"}) {
    EXPECT_THROW((void)v.at(key).as_int(), std::runtime_error) << key;
    EXPECT_THROW((void)v.at(key).as_uint(), std::runtime_error) << key;
  }
  EXPECT_THROW((void)v.at("two63").as_int(), std::runtime_error);
  // The range ends are exact: 2^63 still fits uint64, -2^63 fits int64.
  EXPECT_EQ(v.at("two63").as_uint(), 9223372036854775808ull);
  EXPECT_EQ(v.at("min").as_int(), std::numeric_limits<std::int64_t>::min());
}

TEST(Json, AtomicWriteRoundTrips) {
  const std::string path = testing::TempDir() + "ibgp_json_atomic.json";
  json::Object o;
  o.emplace_back("k", "v");
  ASSERT_TRUE(json::write_file_atomic(path, json::Value{std::move(o)}));
  std::string error;
  const auto back = json::read_file(path, &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(back->at("k").as_string(), "v");
  std::remove(path.c_str());
  EXPECT_FALSE(json::read_file(path, &error).has_value());
  EXPECT_NE(error.find(path), std::string::npos);
}

TEST(Json, AtomicWriteReplacesExistingContent) {
  const std::string path = testing::TempDir() + "ibgp_json_atomic_overwrite.json";
  json::Object first;
  first.emplace_back("gen", 1);
  ASSERT_TRUE(json::write_file_atomic(path, json::Value{std::move(first)}));
  json::Object second;
  second.emplace_back("gen", 2);
  ASSERT_TRUE(json::write_file_atomic(path, json::Value{std::move(second)}));
  const auto back = json::read_file(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->at("gen").as_int(), 2);
  std::remove(path.c_str());
}

TEST(FileIo, ReadAllReportsAReadError) {
  // A directory opens O_RDONLY but every read(2) fails with EISDIR.
  const std::string dir = testing::TempDir() + "ibgp_fileio_dir";
  std::filesystem::create_directories(dir);
  const int fd = fileio::open_retry(dir, O_RDONLY);
  ASSERT_GE(fd, 0);
  std::string text = "kept";
  EXPECT_FALSE(fileio::read_all(fd, text));
  EXPECT_EQ(text, "kept");
  ::close(fd);
  std::filesystem::remove_all(dir);
}

TEST(FileIo, ReadAllReadsTheWholeFile) {
  const std::string path = testing::TempDir() + "ibgp_fileio_file";
  const std::string content(200'000, 'x');  // several read(2) calls
  ASSERT_TRUE(fileio::write_file_atomic(path, content));
  const int fd = fileio::open_retry(path, O_RDONLY);
  ASSERT_GE(fd, 0);
  std::string text;
  EXPECT_TRUE(fileio::read_all(fd, text));
  EXPECT_EQ(text, content);
  ::close(fd);
  std::remove(path.c_str());
}

TEST(Json, NestingDepthIsBounded) {
  // 100 nested arrays: fine under the default limit (96 is plenty for every
  // schema this repo emits — deeper input is hostile), fatal under a tight one.
  std::string deep;
  for (int i = 0; i < 40; ++i) deep += '[';
  deep += '1';
  for (int i = 0; i < 40; ++i) deep += ']';
  EXPECT_TRUE(json::parse(deep).has_value());

  json::ParseOptions tight;
  tight.max_depth = 8;
  std::string error;
  EXPECT_FALSE(json::parse(deep, tight, &error).has_value());
  EXPECT_NE(error.find("too deep"), std::string::npos) << error;

  // Objects count against the same budget.
  std::string deep_obj = R"({"a": {"a": {"a": {"a": {"a": {"a": {"a": {"a": {"a": 1}}}}}}}}})";
  EXPECT_TRUE(json::parse(deep_obj).has_value());
  EXPECT_FALSE(json::parse(deep_obj, tight, &error).has_value());
}

TEST(Json, DuplicateObjectKeysAreRejectedByDefault) {
  std::string error;
  EXPECT_FALSE(json::parse(R"({"a": 1, "a": 2})", &error).has_value());
  EXPECT_NE(error.find("duplicate"), std::string::npos) << error;
  // Nested duplicates too.
  EXPECT_FALSE(json::parse(R"({"outer": {"x": 1, "x": 2}})").has_value());

  // Opt-out keeps last-wins legacy behavior available for foreign input.
  json::ParseOptions lax;
  lax.reject_duplicate_keys = false;
  const auto v = json::parse(R"({"a": 1, "a": 2})", lax);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->as_object().size(), 2u);
}

// --- json writer bytes --------------------------------------------------------

static_assert(sizeof(json::Value) <= 32,
              "a JSON value is a kind tag, one scalar slot and one payload pointer");

std::string read_text(const std::string& path) {
  const int fd = fileio::open_retry(path, O_RDONLY);
  EXPECT_GE(fd, 0) << path;
  std::string text;
  if (fd >= 0) {
    EXPECT_TRUE(fileio::read_all(fd, text)) << path;
    ::close(fd);
  }
  return text;
}

TEST(JsonWriter, CommittedIndentedDocumentsReDumpByteForByte) {
  // The committed BENCH files and the golden ckpt-v1 file (written indented
  // by an earlier build) pin dump()'s bytes.
  for (const char* name : {"BENCH_E13.json", "BENCH_E14.json", "BENCH_E16.json",
                           "tests/data/ckpt_v1_fig1a_golden.json"}) {
    const std::string text = read_text(std::string(IBGP_SOURCE_DIR) + "/" + name);
    ASSERT_FALSE(text.empty()) << name;
    std::string error;
    const auto doc = json::parse(text, &error);
    ASSERT_TRUE(doc.has_value()) << name << ": " << error;
    EXPECT_EQ(doc->dump(), text) << name;
  }
}

TEST(JsonWriter, ScalarsHaveExactBytes) {
  const auto compact = [](const json::Value& v) { return v.dump_compact(); };
  EXPECT_EQ(compact(std::numeric_limits<std::int64_t>::min()), "-9223372036854775808");
  EXPECT_EQ(compact(std::numeric_limits<std::int64_t>::max()), "9223372036854775807");
  EXPECT_EQ(compact(std::numeric_limits<std::uint64_t>::max()), "18446744073709551615");
  EXPECT_EQ(compact(std::int64_t{0}), "0");
  EXPECT_EQ(compact(-1), "-1");
  EXPECT_EQ(compact(42u), "42");
  EXPECT_EQ(compact(true), "true");
  EXPECT_EQ(compact(false), "false");
  EXPECT_EQ(compact(nullptr), "null");
  EXPECT_EQ(compact(json::Value{}), "null");
  // Doubles: the shortest text that reads back to the same double.
  EXPECT_EQ(compact(0.1), "0.1");
  EXPECT_EQ(compact(1.0 / 3.0), "0.3333333333333333");
  EXPECT_EQ(compact(2.5), "2.5");
  EXPECT_EQ(compact(-0.5), "-0.5");
  EXPECT_EQ(compact(100.0), "100");
  EXPECT_EQ(compact(1e300), "1e+300");
  EXPECT_EQ(compact(1e-7), "1e-07");
  EXPECT_EQ(compact(5e-324), "5e-324");
  // JSON has no Inf/NaN.
  EXPECT_EQ(compact(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(compact(-std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(compact(std::numeric_limits<double>::quiet_NaN()), "null");
  // A top-level scalar dump() ends in a newline; dump_compact() never does.
  EXPECT_EQ(json::Value(7).dump(), "7\n");
}

TEST(JsonWriter, StringsEscapeExactlyTheRfcSet) {
  const std::string text = std::string("q\" b\\ / \b\f\n\r\t ") + '\x01' + '\x1f' + '\x7f' +
                           " \xC3\xA9";
  const std::string expected = R"("q\" b\\ / \b\f\n\r\t \u0001\u001f)" + std::string("\x7f") +
                               " \xC3\xA9\"";
  EXPECT_EQ(json::Value(text).dump_compact(), expected);
  EXPECT_EQ(json::escape(text), expected);
  EXPECT_EQ(json::Value("").dump_compact(), "\"\"");
  EXPECT_EQ(json::parse(expected)->as_string(), text);
  // Keys go through the same escaper.
  json::Object o;
  o.emplace_back("k\"\n", 1);
  EXPECT_EQ(json::Value(std::move(o)).dump_compact(), R"({"k\"\n": 1})");
}

TEST(JsonWriter, ContainersHaveExactBytesInBothForms) {
  json::Object leaf;
  leaf.emplace_back("j", json::Array{});
  json::Array inner;
  inner.emplace_back(1);
  inner.emplace_back(json::Array{json::Value(2)});
  json::Object top;
  top.emplace_back("empty_array", json::Array{});
  top.emplace_back("empty_object", json::Object{});
  top.emplace_back("nested", std::move(inner));
  top.emplace_back("k", std::move(leaf));
  top.emplace_back("s", "x");
  const json::Value doc(std::move(top));

  EXPECT_EQ(doc.dump_compact(),
            R"({"empty_array": [], "empty_object": {}, "nested": [1, [2]], "k": {"j": []}, "s": "x"})");
  EXPECT_EQ(doc.dump(),
            "{\n"
            "  \"empty_array\": [],\n"
            "  \"empty_object\": {},\n"
            "  \"nested\": [\n"
            "    1,\n"
            "    [\n"
            "      2\n"
            "    ]\n"
            "  ],\n"
            "  \"k\": {\n"
            "    \"j\": []\n"
            "  },\n"
            "  \"s\": \"x\"\n"
            "}\n");
  EXPECT_EQ(json::Value(json::Array{}).dump(), "[]\n");
  EXPECT_EQ(json::Value(json::Object{}).dump_compact(), "{}");
  // Either form reads back to the same document.
  EXPECT_EQ(json::parse(doc.dump())->dump_compact(), doc.dump_compact());
  EXPECT_EQ(json::parse(doc.dump_compact())->dump(), doc.dump());
}

TEST(JsonWriter, CopiesShareTheirPayload) {
  json::Array numbers = json::num_array(std::vector<int>{1, 2, 3});
  const json::Value original(std::move(numbers));
  const json::Value copy = original;
  EXPECT_EQ(&copy.as_array(), &original.as_array());
  EXPECT_EQ(json::Reader("test").integers<int>(copy, "numbers"), (std::vector<int>{1, 2, 3}));
}

TEST(JsonReader, IntegersOutsideTheirTypeAreRefusedByName) {
  const json::Reader reader("ibgp-test-v1");
  const auto doc = json::parse(R"({"ids": [0, 4294967295, 4294967297], "neg": [-1]})").value();
  const auto& ids = doc.at("ids").as_array();
  EXPECT_EQ(reader.integer<std::uint32_t>(ids[1], "ids"), 4294967295u);
  EXPECT_EQ(reader.integer<std::int64_t>(doc.at("neg").as_array()[0], "neg"), -1);
  for (const auto& [field, value] :
       {std::pair<std::string, json::Value>{"ids", doc.at("ids")}, {"neg", doc.at("neg")}}) {
    try {
      (void)reader.integers<std::uint32_t>(value, field);
      ADD_FAILURE() << field << " was narrowed instead of refused";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("ibgp-test-v1: " + field + ": "), std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos) << e.what();
    }
  }
  EXPECT_THROW((void)reader.integer<std::int32_t>(json::Value("7"), "text"), std::runtime_error);
}

TEST(JsonFiles, AtomicFilesAreCompactAndPlainFilesIndented) {
  json::Object o;
  o.emplace_back("k", json::Array{json::Value(1), json::Value(2)});
  const json::Value doc(std::move(o));
  const std::string atomic = testing::TempDir() + "ibgp_json_compact.json";
  const std::string plain = testing::TempDir() + "ibgp_json_indented.json";
  ASSERT_TRUE(json::write_file_atomic(atomic, doc));
  ASSERT_TRUE(json::write_file(plain, doc));
  EXPECT_EQ(read_text(atomic), R"({"k": [1, 2]})");
  EXPECT_EQ(read_text(plain), doc.dump());
  for (const auto& path : {atomic, plain}) {
    const auto back = json::read_file(path);
    ASSERT_TRUE(back.has_value()) << path;
    EXPECT_EQ(back->dump(), doc.dump());
    std::remove(path.c_str());
  }
}

TEST(JsonFiles, ReadFileDiagnosticsNameThePath) {
  std::string error;
  const std::string missing = testing::TempDir() + "ibgp_json_missing.json";
  std::remove(missing.c_str());
  EXPECT_FALSE(json::read_file(missing, &error).has_value());
  EXPECT_EQ(error, "cannot open " + missing);

  const std::string dir = testing::TempDir() + "ibgp_json_dir";
  std::filesystem::create_directories(dir);
  EXPECT_FALSE(json::read_file(dir, &error).has_value());
  EXPECT_EQ(error, "read error on " + dir);
  std::filesystem::remove_all(dir);

  EXPECT_FALSE(json::write_file(dir + "/no/such/dir.json", json::Value(1)));
}

}  // namespace
}  // namespace ibgp::util
