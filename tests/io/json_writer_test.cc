// The one JSON writer (io/json_writer.h): string escaping against the
// per-character escaper it replaced, number formatting against printf
// "%.<n>g", integer formatting, comma placement, and round trips through
// egp's strict ParseJson.
#include "io/json_writer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "io/json_parser.h"

namespace egp {
namespace {

/// The escaper every JSON emitter used before the writer existed, kept
/// as the oracle for byte-identical output.
std::string ReferenceEscape(std::string_view text) {
  std::string out;
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string RoundTrip(std::string_view text) {
  std::string json;
  JsonWriter(&json).String(text);
  const auto parsed = ParseJson(json);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString() << " in " << json;
  return parsed.ok() ? parsed->string_value() : std::string();
}

TEST(JsonEscapeTest, PassthroughPlainText) {
  EXPECT_EQ(JsonEscape("Men in Black"), "Men in Black");
}

TEST(JsonEscapeTest, EscapesSpecials) {
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(JsonEscape(std::string_view("\x01", 1)), "\\u0001");
}

TEST(JsonEscapeTest, EveryControlByteMatchesReferenceAndRoundTrips) {
  for (int byte = 0; byte < 0x20; ++byte) {
    const std::string text = "a" + std::string(1, static_cast<char>(byte)) +
                             "b";
    EXPECT_EQ(JsonEscape(text), ReferenceEscape(text)) << "byte " << byte;
    EXPECT_EQ(RoundTrip(text), text) << "byte " << byte;
  }
}

TEST(JsonEscapeTest, QuoteBackslashDelAndUtf8MatchReferenceAndRoundTrip) {
  const std::vector<std::string> texts = {
      "\"", "\\", "\x7f", "\"\\\"\\", "caf\xc3\xa9",
      "\xe6\x97\xa5\xe6\x9c\xac\xe8\xaa\x9e", "\xf0\x9f\x8e\xac",
      "mixed \"\xc3\xa9\"\t\x7f\\\n\x1f end", "", "no escapes at all"};
  for (const std::string& text : texts) {
    EXPECT_EQ(JsonEscape(text), ReferenceEscape(text)) << text;
    EXPECT_EQ(RoundTrip(text), text) << text;
  }
  // DEL and UTF-8 pass through unescaped.
  EXPECT_EQ(JsonEscape("\x7f\xc3\xa9"), "\x7f\xc3\xa9");
}

TEST(JsonEscapeTest, RandomBytesMatchReference) {
  Rng rng(13);
  for (int i = 0; i < 2000; ++i) {
    std::string text(rng.NextBounded(40), '\0');
    for (char& c : text) c = static_cast<char>(rng.NextBounded(128));
    EXPECT_EQ(JsonEscape(text), ReferenceEscape(text));
    EXPECT_EQ(RoundTrip(text), text);
  }
}

std::string Formatted(double value, int significant) {
  std::string out;
  JsonWriter(&out).Number(value, significant);
  return out;
}

TEST(JsonNumberTest, MatchesPrintfOnEdgeValues) {
  const double values[] = {
      0.0,
      -0.0,
      1.0,
      -1.0,
      84.0,
      0.1,
      1.0 / 3.0,
      1e21,
      1e-7,
      1e-5,
      1e-4,
      123456789012.0,
      1234567890.0,
      9999999999.5,
      0.00012345678905,
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::min() / 3,
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(),
      std::numeric_limits<double>::epsilon(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::nan(""),
  };
  for (const double value : values) {
    EXPECT_EQ(Formatted(value, 10), StrFormat("%.10g", value)) << value;
    EXPECT_EQ(Formatted(value, 6), StrFormat("%.6g", value)) << value;
  }
}

TEST(JsonNumberTest, MatchesPrintfOnSeededSweep) {
  Rng rng(2016);
  for (int i = 0; i < 200000; ++i) {
    double value = 0.0;
    switch (i % 4) {
      case 0: {  // any bit pattern: subnormals, huge, tiny, NaN payloads
        const uint64_t bits = rng.Next();
        std::memcpy(&value, &bits, sizeof(value));
        break;
      }
      case 1:  // scores: small sums of coverage/entropy
        value = rng.NextDouble() * 1000.0;
        break;
      case 2:  // timings: seconds across many decades
        value = std::pow(10.0, rng.NextDouble() * 30.0 - 15.0);
        break;
      default:  // integers, where %g switches to exponent form
        value = static_cast<double>(rng.NextBounded(uint64_t{1} << 40));
        break;
    }
    ASSERT_EQ(Formatted(value, 10), StrFormat("%.10g", value)) << i;
    ASSERT_EQ(Formatted(value, 6), StrFormat("%.6g", value)) << i;
  }
}

TEST(JsonWriterTest, IntegersMatchToString) {
  for (const int64_t value :
       {int64_t{0}, int64_t{-1}, int64_t{42}, std::numeric_limits<int64_t>::min(),
        std::numeric_limits<int64_t>::max()}) {
    std::string out;
    JsonWriter(&out).Int(value);
    EXPECT_EQ(out, std::to_string(value));
  }
  for (const uint64_t value :
       {uint64_t{0}, uint64_t{7}, std::numeric_limits<uint64_t>::max()}) {
    std::string out;
    JsonWriter(&out).Uint(value);
    EXPECT_EQ(out, std::to_string(value));
  }
}

TEST(JsonWriterTest, PlacesCommasBetweenMembersAndElements) {
  std::string out;
  JsonWriter json(&out);
  json.BeginObject().Key("a").Int(1).Key("b").BeginArray();
  json.Bool(true).Bool(false).BeginObject().EndObject().BeginArray()
      .EndArray().String("s").Number(0.5);
  json.EndArray().Key("c").BeginObject().Key("d\"").Uint(2).EndObject();
  json.Key("e").BeginArray().EndArray().EndObject();
  EXPECT_EQ(out,
            "{\"a\":1,\"b\":[true,false,{},[],\"s\",0.5],"
            "\"c\":{\"d\\\"\":2},\"e\":[]}");
  EXPECT_TRUE(ParseJson(out).ok());
}

TEST(JsonWriterTest, AppendsToExistingBuffer) {
  std::string out = "[1,";
  JsonWriter(&out).BeginObject().Key("k").String("v").EndObject();
  EXPECT_EQ(out, "[1,{\"k\":\"v\"}");
}

}  // namespace
}  // namespace egp
