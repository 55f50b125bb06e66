#include "common/strings.h"

#include <gtest/gtest.h>

namespace egp {
namespace {

TEST(SplitTest, BasicTabSplit) {
  const auto parts = Split("a\tb\tc", '\t');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(SplitTest, KeepsEmptyFields) {
  const auto parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[3], "");
}

TEST(SplitTest, EmptyInputYieldsOneEmptyField) {
  const auto parts = Split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(TrimTest, RemovesSurroundingWhitespace) {
  EXPECT_EQ(Trim("  hi \t\n"), "hi");
  EXPECT_EQ(Trim("hi"), "hi");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim(""), "");
}

TEST(TrimTest, PreservesInnerWhitespace) {
  EXPECT_EQ(Trim(" a b "), "a b");
}

TEST(JoinTest, JoinsWithSeparator) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(ToLowerTest, AsciiLowercasing) {
  EXPECT_EQ(ToLower("FiLm ActOr 42"), "film actor 42");
}

TEST(StartsEndsWithTest, Basics) {
  EXPECT_TRUE(StartsWith("reltype\tx", "reltype"));
  EXPECT_FALSE(StartsWith("rel", "reltype"));
  EXPECT_TRUE(EndsWith("graph.egt", ".egt"));
  EXPECT_FALSE(EndsWith("egt", ".egt"));
}

TEST(StrFormatTest, FormatsLikePrintf) {
  EXPECT_EQ(StrFormat("k=%u n=%u", 5u, 10u), "k=5 n=10");
  EXPECT_EQ(StrFormat("%.2f", 3.14159), "3.14");
  EXPECT_EQ(StrFormat("%s", "plain"), "plain");
}

TEST(Utf8Test, SequenceLengths) {
  EXPECT_EQ(Utf8SequenceLength("a"), 1u);
  EXPECT_EQ(Utf8SequenceLength("\xc3\xa9"), 2u);          // U+00E9
  EXPECT_EQ(Utf8SequenceLength("\xe2\x82\xac"), 3u);      // U+20AC
  EXPECT_EQ(Utf8SequenceLength("\xf0\x9f\x98\x80"), 4u);  // U+1F600
}

TEST(Utf8Test, EveryDefectIsNamed) {
  const struct {
    std::string_view bytes;
    const char* error;
  } cases[] = {
      {"\xff", "invalid UTF-8 lead byte"},
      {"\x80", "invalid UTF-8 lead byte"},
      {"\xc3", "truncated UTF-8 sequence"},
      {"\xc3Z", "invalid UTF-8 continuation byte"},
      {"\xc0\xaf", "overlong UTF-8 encoding"},
      {"\xed\xa0\x80", "raw UTF-16 surrogate in UTF-8 input"},
      {"\xf4\x90\x80\x80", "code point beyond U+10FFFF"},
  };
  for (const auto& c : cases) {
    const char* error = nullptr;
    EXPECT_EQ(Utf8SequenceLength(c.bytes, &error), 0u) << c.error;
    EXPECT_STREQ(error, c.error);
  }
}

TEST(Utf8Test, FindInvalidUtf8ReportsFirstBadOffset) {
  EXPECT_EQ(FindInvalidUtf8(""), std::string_view::npos);
  EXPECT_EQ(FindInvalidUtf8("plain ascii"), std::string_view::npos);
  EXPECT_EQ(FindInvalidUtf8("caf\xc3\xa9 ok"), std::string_view::npos);
  const char* error = nullptr;
  EXPECT_EQ(FindInvalidUtf8("UNIV\xff" "ERSITY", &error), 4u);
  EXPECT_STREQ(error, "invalid UTF-8 lead byte");
  EXPECT_EQ(FindInvalidUtf8("\xc3\xa9\xc3", &error), 2u);
  EXPECT_STREQ(error, "truncated UTF-8 sequence");
}

TEST(StrFormatTest, EmptyAndLongOutputs) {
  EXPECT_EQ(StrFormat("%s", ""), "");
  const std::string long_arg(500, 'x');
  EXPECT_EQ(StrFormat("%s", long_arg.c_str()).size(), 500u);
}

}  // namespace
}  // namespace egp
