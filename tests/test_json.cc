/**
 * @file
 * Minimal JSON support layer behind the machine-file loader: parsing
 * of the value kinds we emit, document-order member iteration (the
 * canonical-key contract), duplicate-key and trailing-garbage
 * rejection, and line-numbered error messages.
 */

#include <gtest/gtest.h>

#include "support/json.hh"

using namespace vvsp;

TEST(Json, ParsesScalarsArraysObjects)
{
    json::Value v;
    std::string err;
    ASSERT_TRUE(json::parse(
        R"({"a": 1, "b": -2.5, "c": "x\"y", "d": [true, false, null]})",
        v, err))
        << err;
    ASSERT_TRUE(v.isObject());
    ASSERT_NE(v.find("a"), nullptr);
    EXPECT_TRUE(v.find("a")->isIntegral());
    EXPECT_EQ(v.find("a")->asNumber(), 1);
    EXPECT_FALSE(v.find("b")->isIntegral());
    EXPECT_EQ(v.find("b")->asNumber(), -2.5);
    EXPECT_EQ(v.find("c")->asString(), "x\"y");
    ASSERT_TRUE(v.find("d")->isArray());
    EXPECT_EQ(v.find("d")->array().size(), 3u);
    EXPECT_TRUE(v.find("d")->array()[0].asBool());
    EXPECT_TRUE(v.find("d")->array()[2].isNull());
    EXPECT_EQ(v.find("absent"), nullptr);
}

TEST(Json, MembersKeepDocumentOrder)
{
    json::Value v;
    std::string err;
    ASSERT_TRUE(json::parse(R"({"z": 1, "a": 2, "m": 3})", v, err));
    ASSERT_EQ(v.members().size(), 3u);
    EXPECT_EQ(v.members()[0].first, "z");
    EXPECT_EQ(v.members()[1].first, "a");
    EXPECT_EQ(v.members()[2].first, "m");
}

TEST(Json, RejectsMalformedDocuments)
{
    json::Value v;
    std::string err;
    EXPECT_FALSE(json::parse("{\"a\": }", v, err));
    EXPECT_FALSE(json::parse("{\"a\": 1", v, err));
    EXPECT_FALSE(json::parse("", v, err));
    EXPECT_FALSE(json::parse("{} trailing", v, err));
    EXPECT_FALSE(json::parse(R"({"a": 1, "a": 2})", v, err));
    EXPECT_NE(err.find("duplicate"), std::string::npos) << err;
}

TEST(Json, ErrorsCarryLineNumbers)
{
    json::Value v;
    std::string err;
    EXPECT_FALSE(json::parse("{\n  \"a\": 1,\n  \"b\": ?\n}", v, err));
    EXPECT_NE(err.find("line 3"), std::string::npos) << err;
}

TEST(Json, ControlCharactersMustBeEscaped)
{
    // RFC 8259 (and Python's json.load) reject a raw tab in a string;
    // escape() writes the form parse() accepts back.
    json::Value v;
    std::string err;
    EXPECT_FALSE(json::parse("{\"a\": \"x\ty\"}", v, err));
    EXPECT_NE(err.find("control character"), std::string::npos) << err;
    ASSERT_TRUE(json::parse("{\"a\": \"" + json::escape("x\ty\x01") + "\"}",
                            v, err))
        << err;
    EXPECT_EQ(v.find("a")->asString(), "x\ty\x01");
}
