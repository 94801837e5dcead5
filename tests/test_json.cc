/** Unit tests for the JSON writer and the tests' JSON parser. */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "json_value.hh"
#include "util/json.hh"

namespace hypersio::json
{
namespace
{

TEST(JsonEscape, SpecialCharacters)
{
    EXPECT_EQ(escape("plain"), "plain");
    EXPECT_EQ(escape("a\"b"), "a\\\"b");
    EXPECT_EQ(escape("back\\slash"), "back\\\\slash");
    EXPECT_EQ(escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
    EXPECT_EQ(escape(std::string(1, '\x01')), "\\u0001");
}

TEST(JsonFormatDouble, RoundTripsThroughParse)
{
    for (double v : {0.0, 1.0, -1.5, 0.1, 3.141592653589793,
                     1e-12, 123456789.123456789, 2e300}) {
        auto parsed = Value::parse(formatDouble(v));
        ASSERT_TRUE(parsed.has_value()) << v;
        EXPECT_EQ(parsed->kind, Value::Kind::Number);
        EXPECT_EQ(parsed->number, v) << formatDouble(v);
    }
}

TEST(JsonFormatDouble, NonFiniteBecomesZero)
{
    EXPECT_EQ(formatDouble(INFINITY), "0");
    EXPECT_EQ(formatDouble(NAN), "0");
}

TEST(JsonWriter, CompactObject)
{
    std::ostringstream os;
    Writer w(os, 0);
    w.beginObject();
    w.key("a");
    w.value(uint64_t{1});
    w.key("b");
    w.beginArray();
    w.value(2.5);
    w.value("x");
    w.value(true);
    w.null();
    w.endArray();
    w.endObject();
    EXPECT_EQ(os.str(), R"({"a":1,"b":[2.5,"x",true,null]})");
}

TEST(JsonWriter, IndentedOutputParses)
{
    std::ostringstream os;
    Writer w(os, 2);
    w.beginObject();
    w.key("nested");
    w.beginObject();
    w.key("list");
    w.beginArray();
    w.value(1);
    w.value(2);
    w.endArray();
    w.endObject();
    w.key("empty_obj");
    w.beginObject();
    w.endObject();
    w.key("empty_arr");
    w.beginArray();
    w.endArray();
    w.endObject();
    EXPECT_NE(os.str().find('\n'), std::string::npos);
    auto parsed = Value::parse(os.str());
    ASSERT_TRUE(parsed.has_value()) << os.str();
    const Value *list = parsed->find("nested")->find("list");
    ASSERT_NE(list, nullptr);
    ASSERT_EQ(list->array.size(), 2u);
    EXPECT_EQ(list->array[1].number, 2.0);
    EXPECT_TRUE(parsed->find("empty_obj")->object.empty());
    EXPECT_TRUE(parsed->find("empty_arr")->array.empty());
}

TEST(JsonWriter, RawSplicesVerbatim)
{
    std::ostringstream os;
    Writer w(os, 0);
    w.beginObject();
    w.key("stats");
    w.raw(R"({"inner":7})");
    w.key("after");
    w.value(1);
    w.endObject();
    auto parsed = Value::parse(os.str());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->find("stats")->find("inner")->number, 7.0);
    EXPECT_EQ(parsed->find("after")->number, 1.0);
}

TEST(JsonParse, Scalars)
{
    EXPECT_EQ(Value::parse("null")->kind, Value::Kind::Null);
    EXPECT_TRUE(Value::parse("true")->boolean);
    EXPECT_FALSE(Value::parse("false")->boolean);
    EXPECT_EQ(Value::parse("-3.5e2")->number, -350.0);
    EXPECT_EQ(Value::parse(R"("he\"llo")")->str, "he\"llo");
    EXPECT_EQ(Value::parse(R"("a\nb")")->str, "a\nb");
    EXPECT_EQ(Value::parse(R"("A")")->str, "A");
}

TEST(JsonParse, RejectsMalformedInput)
{
    EXPECT_FALSE(Value::parse("").has_value());
    EXPECT_FALSE(Value::parse("{").has_value());
    EXPECT_FALSE(Value::parse("[1,]").has_value());
    EXPECT_FALSE(Value::parse("{\"a\":}").has_value());
    EXPECT_FALSE(Value::parse("\"unterminated").has_value());
    EXPECT_FALSE(Value::parse("1 trailing").has_value());
    EXPECT_FALSE(Value::parse("nope").has_value());
}

TEST(JsonParse, WhitespaceTolerant)
{
    auto v = Value::parse("  { \"a\" : [ 1 , 2 ] }  ");
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->find("a")->array.size(), 2u);
}

TEST(JsonValue, FindMissesGracefully)
{
    auto v = Value::parse(R"({"a":1})");
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->find("b"), nullptr);
    EXPECT_EQ(v->find("a")->find("x"), nullptr); // not an object
}

} // namespace
} // namespace hypersio::json
