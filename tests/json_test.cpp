//===- tests/json_test.cpp - JSON writer and parser tests -------------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/Format.h"
#include "support/Json.h"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>

using namespace dra;

namespace {

JsonValue parseOk(const std::string &Text) {
  JsonValue V;
  std::string Error;
  bool Ok = parseJson(Text, V, Error);
  EXPECT_TRUE(Ok) << "input: " << Text << "\nerror: " << Error;
  return V;
}

bool parseFails(const std::string &Text) {
  JsonValue V;
  std::string Error;
  return !parseJson(Text, V, Error);
}

// Oracles: the writer's earlier character-at-a-time quoting and its
// snprintf number formatting. The library formats with std::to_chars and
// appends spans; these pin that its text did not change.

std::string oracleQuote(const std::string &S) {
  std::string Out = "\"";
  for (unsigned char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\b':
      Out += "\\b";
      break;
    case '\f':
      Out += "\\f";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (C < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += char(C);
      }
    }
  }
  Out += '"';
  return Out;
}

std::string oracleExact(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

/// Checks every formatter of \p V against the oracle: fmtExact prints what
/// printf prints (non-finite included), JSON prints null for non-finite.
void expectNumberMatchesOracle(double V) {
  std::string Want = oracleExact(V);
  std::string WantJson = std::isfinite(V) ? Want : "null";
  ASSERT_EQ(fmtExact(V), Want);
  ASSERT_EQ(jsonNumber(V), WantJson) << Want;
  JsonWriter W;
  W.beginArray();
  W.value(V);
  W.endArray();
  ASSERT_EQ(W.take(), "[" + WantJson + "]") << Want;
}

/// The writer's rendering of an object with key \p K and string value
/// \p V must equal the oracle's quoting of both.
void expectQuotingMatchesOracle(const std::string &K, const std::string &V) {
  JsonWriter W;
  W.beginObject();
  W.key(K);
  W.value(V);
  W.endObject();
  std::string Want = "{";
  Want += oracleQuote(K);
  Want += ':';
  Want += oracleQuote(V);
  Want += '}';
  ASSERT_EQ(W.take(), Want);
  ASSERT_EQ(jsonQuote(K), oracleQuote(K));
}

} // namespace

TEST(JsonQuoteTest, EscapesSpecialCharacters) {
  EXPECT_EQ(jsonQuote("plain"), "\"plain\"");
  EXPECT_EQ(jsonQuote("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(jsonQuote("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(jsonQuote("a\nb\tc"), "\"a\\nb\\tc\"");
  EXPECT_EQ(jsonQuote(std::string(1, '\0')), "\"\\u0000\"");
}

TEST(JsonNumberTest, RoundTripsAndRejectsNonFinite) {
  EXPECT_EQ(jsonNumber(0.0), "0");
  EXPECT_EQ(jsonNumber(1.5), "1.5");
  EXPECT_EQ(jsonNumber(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(jsonNumber(std::nan("")), "null");
  // %.17g carries enough digits for an exact double round-trip.
  double V = 0.1 + 0.2;
  JsonValue P = parseOk(jsonNumber(V));
  EXPECT_EQ(P.Num, V);
}

TEST(JsonNumberTest, MatchesPrintfOnEdgeValues) {
  const double Inf = std::numeric_limits<double>::infinity();
  const double NaN = std::numeric_limits<double>::quiet_NaN();
  for (double V : {0.0, -0.0, std::numeric_limits<double>::denorm_min(),
                   std::nextafter(DBL_MIN, 0.0), DBL_MIN, DBL_MAX, -DBL_MAX,
                   Inf, -Inf, NaN, -NaN, 0.1, 0.1 + 0.2, 1.0 / 3.0, -1.5,
                   1e16, 1e17, 123456789012345678.0})
    ASSERT_NO_FATAL_FAILURE(expectNumberMatchesOracle(V));
  // Integers up to 2^53: powers of two, their neighbours, and a seeded
  // sample in between.
  for (int E = 0; E <= 53; ++E) {
    double P = std::ldexp(1.0, E);
    for (double V : {P - 1, P, P + 1, -P, 1 - P, P + 0.5})
      ASSERT_NO_FATAL_FAILURE(expectNumberMatchesOracle(V));
  }
  std::mt19937_64 Rng(53);
  for (int I = 0; I != 10000; ++I)
    ASSERT_NO_FATAL_FAILURE(
        expectNumberMatchesOracle(double(int64_t(Rng()) >> 10)));
  // Powers of ten, correctly rounded from their decimal text.
  for (int E = -300; E <= 300; ++E) {
    char Buf[16];
    std::snprintf(Buf, sizeof Buf, "1e%d", E);
    ASSERT_NO_FATAL_FAILURE(
        expectNumberMatchesOracle(std::strtod(Buf, nullptr)));
  }
}

TEST(JsonNumberTest, MatchesPrintfOnRandomBitPatterns) {
  // Every exponent and payload, subnormals, infinities and NaNs included.
  std::mt19937_64 Rng(20061);
  for (int I = 0; I != 1 << 20; ++I) {
    uint64_t Bits = Rng();
    double V;
    std::memcpy(&V, &Bits, sizeof V);
    ASSERT_NO_FATAL_FAILURE(expectNumberMatchesOracle(V));
  }
}

TEST(JsonWriterTest, IntegersMatchToString) {
  const int64_t I64Min = std::numeric_limits<int64_t>::min();
  const int64_t I64Max = std::numeric_limits<int64_t>::max();
  const uint64_t U64Max = std::numeric_limits<uint64_t>::max();
  JsonWriter W;
  W.beginArray();
  W.value(I64Min);
  W.value(I64Max);
  W.value(U64Max);
  W.value(int64_t(0));
  W.value(-1);
  W.value(7200u);
  W.endArray();
  EXPECT_EQ(W.take(), "[-9223372036854775808,9223372036854775807,"
                      "18446744073709551615,0,-1,7200]");
}

TEST(JsonWriterTest, QuotesEverySingleByteLikeOracle) {
  for (int B = 0; B != 256; ++B) {
    std::string S(1, char(B));
    ASSERT_NO_FATAL_FAILURE(expectQuotingMatchesOracle(S, S));
  }
}

TEST(JsonWriterTest, QuotesRandomStringsLikeOracle) {
  // Mixed runs: plain text, characters that need escaping, and bytes above
  // 0x7f, which pass through raw.
  const std::string Alphabet = std::string("abcXYZ09 _./:-") + '"' + '\\' +
                               '\n' + '\t' + '\b' + '\f' + '\r' + '\x01' +
                               '\x1f' + '\0' + '\x7f' + '\x80' + '\xff';
  std::mt19937 Rng(1302);
  std::uniform_int_distribution<size_t> Len(0, 40);
  std::uniform_int_distribution<size_t> Pick(0, Alphabet.size() - 1);
  for (int I = 0; I != 20000; ++I) {
    std::string K, V;
    for (size_t N = Len(Rng); N != 0; --N)
      K += Alphabet[Pick(Rng)];
    for (size_t N = Len(Rng); N != 0; --N)
      V += Alphabet[Pick(Rng)];
    ASSERT_NO_FATAL_FAILURE(expectQuotingMatchesOracle(K, V));
  }
}

TEST(JsonWriterTest, EscapedKeysParseBack) {
  const std::string Keys[] = {"plain", "quote\"d", "back\\slash",
                              "tab\there", std::string("nul\0byte", 8),
                              "ctl\x01\x1f", "utf8 \xc3\xa9"};
  JsonWriter W;
  W.beginObject();
  for (const std::string &K : Keys) {
    W.key(K);
    W.value(K);
  }
  W.endObject();
  JsonValue V = parseOk(W.take());
  ASSERT_EQ(V.Obj.size(), std::size(Keys));
  for (const std::string &K : Keys) {
    const JsonValue *Member = V.find(K);
    ASSERT_NE(Member, nullptr) << oracleQuote(K);
    EXPECT_EQ(Member->Str, K);
  }
}

TEST(JsonWriterTest, BuildsNestedDocument) {
  JsonWriter W;
  W.beginObject();
  W.key("name");
  W.value("dra");
  W.key("counts");
  W.beginArray();
  W.value(uint64_t(1));
  W.value(uint64_t(2));
  W.endArray();
  W.key("nested");
  W.beginObject();
  W.key("ok");
  W.value(true);
  W.key("none");
  W.null();
  W.endObject();
  W.endObject();
  std::string Doc = W.take();
  EXPECT_EQ(Doc, "{\"name\":\"dra\",\"counts\":[1,2],"
                 "\"nested\":{\"ok\":true,\"none\":null}}");
  parseOk(Doc);
}

TEST(JsonWriterTest, RawValueSplicesVerbatim) {
  JsonWriter W;
  W.beginObject();
  W.key("pre");
  W.rawValue("{\"x\":1}");
  W.endObject();
  std::string Doc = W.take();
  JsonValue V = parseOk(Doc);
  const JsonValue *Pre = V.find("pre");
  ASSERT_NE(Pre, nullptr);
  ASSERT_NE(Pre->find("x"), nullptr);
  EXPECT_EQ(Pre->find("x")->Num, 1.0);
}

TEST(JsonParserTest, ParsesScalarsAndContainers) {
  EXPECT_TRUE(parseOk("null").isNull());
  EXPECT_TRUE(parseOk("true").B);
  EXPECT_FALSE(parseOk("false").B);
  EXPECT_EQ(parseOk("-12.5e2").Num, -1250.0);
  EXPECT_EQ(parseOk("\"hi\"").Str, "hi");
  EXPECT_EQ(parseOk("[1, 2, 3]").Arr.size(), 3u);
  JsonValue O = parseOk("{\"a\": 1, \"b\": [true]}");
  ASSERT_TRUE(O.isObject());
  EXPECT_EQ(O.Obj.size(), 2u);
  EXPECT_EQ(O.find("a")->Num, 1.0);
  EXPECT_EQ(O.find("missing"), nullptr);
}

TEST(JsonParserTest, DecodesEscapes) {
  EXPECT_EQ(parseOk("\"a\\n\\t\\\"\\\\b\"").Str, "a\n\t\"\\b");
  EXPECT_EQ(parseOk("\"\\u0041\"").Str, "A");
  // Surrogate pair: U+1F600 as UTF-8.
  EXPECT_EQ(parseOk("\"\\uD83D\\uDE00\"").Str, "\xF0\x9F\x98\x80");
}

TEST(JsonParserTest, RejectsMalformedInput) {
  EXPECT_TRUE(parseFails(""));
  EXPECT_TRUE(parseFails("{"));
  EXPECT_TRUE(parseFails("[1,]"));
  EXPECT_TRUE(parseFails("{\"a\":}"));
  EXPECT_TRUE(parseFails("{\"a\" 1}"));
  EXPECT_TRUE(parseFails("01"));
  EXPECT_TRUE(parseFails("1."));
  EXPECT_TRUE(parseFails("nul"));
  EXPECT_TRUE(parseFails("\"unterminated"));
  EXPECT_TRUE(parseFails("\"bad\\q\""));
  EXPECT_TRUE(parseFails("\"\\uD83D\"")); // unpaired high surrogate
  EXPECT_TRUE(parseFails("1 2"));         // trailing garbage
}

TEST(JsonParserTest, ErrorsCarryByteOffsets) {
  JsonValue V;
  std::string Error;
  EXPECT_FALSE(parseJson("[1, x]", V, Error));
  EXPECT_NE(Error.find("offset"), std::string::npos) << Error;
}

TEST(JsonParserTest, BoundsNestingDepth) {
  std::string Deep(200, '[');
  Deep += std::string(200, ']');
  EXPECT_TRUE(parseFails(Deep));
  std::string Fine(50, '[');
  Fine += std::string(50, ']');
  parseOk(Fine);
}

TEST(JsonRoundTripTest, WriterOutputReparses) {
  JsonWriter W;
  W.beginArray();
  W.value("quote \" backslash \\ newline \n");
  W.value(-0.000123456789012345);
  W.value(int64_t(-7));
  W.value(uint64_t(18446744073709551615ull));
  W.endArray();
  JsonValue V = parseOk(W.take());
  ASSERT_EQ(V.Arr.size(), 4u);
  EXPECT_EQ(V.Arr[0].Str, "quote \" backslash \\ newline \n");
  EXPECT_EQ(V.Arr[1].Num, -0.000123456789012345);
  EXPECT_EQ(V.Arr[2].Num, -7.0);
}
