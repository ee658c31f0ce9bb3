#include "util/json.h"

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "util/error.h"

namespace chiplet {
namespace {

TEST(JsonParse, Scalars) {
    EXPECT_TRUE(JsonValue::parse("null").is_null());
    EXPECT_EQ(JsonValue::parse("true").as_bool(), true);
    EXPECT_EQ(JsonValue::parse("false").as_bool(), false);
    EXPECT_DOUBLE_EQ(JsonValue::parse("42").as_number(), 42.0);
    EXPECT_DOUBLE_EQ(JsonValue::parse("-3.5").as_number(), -3.5);
    EXPECT_DOUBLE_EQ(JsonValue::parse("1e3").as_number(), 1000.0);
    EXPECT_DOUBLE_EQ(JsonValue::parse("2.5E-2").as_number(), 0.025);
    EXPECT_EQ(JsonValue::parse("\"hi\"").as_string(), "hi");
}

TEST(JsonParse, EscapeSequences) {
    EXPECT_EQ(JsonValue::parse(R"("a\"b")").as_string(), "a\"b");
    EXPECT_EQ(JsonValue::parse(R"("tab\there")").as_string(), "tab\there");
    EXPECT_EQ(JsonValue::parse(R"("nl\n")").as_string(), "nl\n");
    EXPECT_EQ(JsonValue::parse(R"("A")").as_string(), "A");
    EXPECT_EQ(JsonValue::parse(R"("é")").as_string(), "\xc3\xa9");  // é
}

TEST(JsonParse, NestedStructures) {
    const JsonValue v = JsonValue::parse(R"({
        "name": "7nm",
        "params": {"d": 0.09, "c": 10},
        "tags": ["logic", "euv"],
        "active": true
    })");
    EXPECT_EQ(v.at("name").as_string(), "7nm");
    EXPECT_DOUBLE_EQ(v.at("params").at("d").as_number(), 0.09);
    EXPECT_EQ(v.at("tags").as_array().size(), 2u);
    EXPECT_EQ(v.at("tags").as_array()[1].as_string(), "euv");
    EXPECT_TRUE(v.at("active").as_bool());
}

TEST(JsonParse, EmptyContainers) {
    EXPECT_TRUE(JsonValue::parse("{}").is_object());
    EXPECT_TRUE(JsonValue::parse("[]").as_array().empty());
    EXPECT_TRUE(JsonValue::parse(" [ ] ").as_array().empty());
}

TEST(JsonParse, MalformedInputsThrow) {
    EXPECT_THROW(JsonValue::parse(""), ParseError);
    EXPECT_THROW(JsonValue::parse("{"), ParseError);
    EXPECT_THROW(JsonValue::parse("[1,]"), ParseError);
    EXPECT_THROW(JsonValue::parse("{\"a\":}"), ParseError);
    EXPECT_THROW(JsonValue::parse("tru"), ParseError);
    EXPECT_THROW(JsonValue::parse("1.2.3"), ParseError);
    EXPECT_THROW(JsonValue::parse("\"unterminated"), ParseError);
    EXPECT_THROW(JsonValue::parse("{} extra"), ParseError);
    EXPECT_THROW(JsonValue::parse("1.  "), ParseError);
    EXPECT_THROW(JsonValue::parse("[1 2]"), ParseError);
}

TEST(JsonParse, ErrorMessageHasLineAndColumn) {
    try {
        (void)JsonValue::parse("{\n  \"a\": oops\n}");
        FAIL() << "expected ParseError";
    } catch (const ParseError& e) {
        EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
    }
}

TEST(JsonDump, CompactRoundtrip) {
    const std::string text = R"({"a":[1,2.5,"x"],"b":{"c":true,"d":null}})";
    const JsonValue v = JsonValue::parse(text);
    EXPECT_EQ(JsonValue::parse(v.dump()).dump(), v.dump());
}

TEST(JsonDump, PreservesKeyOrder) {
    JsonValue v = JsonValue::object();
    v.set("zeta", 1);
    v.set("alpha", 2);
    v.set("mid", 3);
    EXPECT_EQ(v.dump(), R"({"zeta":1,"alpha":2,"mid":3})");
    EXPECT_EQ(v.keys(), (std::vector<std::string>{"zeta", "alpha", "mid"}));
}

TEST(JsonDump, PrettyPrintIndents) {
    JsonValue v = JsonValue::object();
    v.set("a", 1);
    EXPECT_EQ(v.dump(2), "{\n  \"a\": 1\n}");
}

TEST(JsonDump, EscapesControlCharacters) {
    std::string raw = "a";
    raw += '\x01';
    raw += 'b';
    const JsonValue v(raw);
    EXPECT_EQ(v.dump(), "\"a\\u0001b\"");
}

TEST(JsonDump, IntegersWithoutDecimalPoint) {
    EXPECT_EQ(JsonValue(5.0).dump(), "5");
    EXPECT_EQ(JsonValue(2.5).dump(), "2.5");
}

TEST(JsonDump, NumbersRoundTripBitForBit) {
    for (const double d : {0.1 + 0.2, 1.0 / 3, 10.630864241569295, 5e-324,
                           DBL_MAX, 1e15 + 0.5, -0.0}) {
        const std::string text = JsonValue(d).dump();
        const double back = JsonValue::parse(text).as_number();
        EXPECT_EQ(std::bit_cast<std::uint64_t>(back), std::bit_cast<std::uint64_t>(d))
            << text;
    }
    EXPECT_EQ(JsonValue(-0.0).dump(), "-0");
    EXPECT_EQ(JsonValue(10.630864241569295).dump(), "10.630864241569295");
    // Whole numbers below 1e15 keep the plain integer form.
    EXPECT_EQ(JsonValue(0.0).dump(), "0");
    EXPECT_EQ(JsonValue(100000.0).dump(), "100000");
    EXPECT_EQ(JsonValue(-999999999999999.0).dump(), "-999999999999999");
}

TEST(JsonParse, OutOfRangeNumberReportsItsColumn) {
    try {
        (void)JsonValue::parse("[1, 1e99999]");
        FAIL() << "expected ParseError";
    } catch (const ParseError& e) {
        EXPECT_STREQ(e.what(),
                     "JSON parse error at line 1, column 5: number out of double range");
    }
}

TEST(JsonParse, DuplicateKeysKeepFirstPositionAndLastValue) {
    const JsonValue v = JsonValue::parse(R"({"a":1,"b":2,"a":3})");
    EXPECT_EQ(v.keys(), (std::vector<std::string>{"a", "b"}));
    EXPECT_DOUBLE_EQ(v.at("a").as_number(), 3.0);
    EXPECT_EQ(v.dump(), R"({"a":3,"b":2})");
}

TEST(JsonParse, ManyKeysKeepOrderAndParseQuickly) {
    // A key-by-key scan would make this quadratic: about 2e10 key
    // comparisons, minutes of CPU.
    constexpr int kKeys = 200000;
    std::string text = "{";
    for (int i = 0; i < kKeys; ++i) {
        text += "\"k" + std::to_string(i) + "\":" + std::to_string(i) + ",";
    }
    text += "\"k123\":-1}";  // a duplicate: first position, last value
    const auto start = std::chrono::steady_clock::now();
    const JsonValue v = JsonValue::parse(text);
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    EXPECT_LT(seconds, 10.0);
    const std::vector<std::string>& keys = v.keys();
    ASSERT_EQ(keys.size(), static_cast<std::size_t>(kKeys));
    for (int i = 0; i < kKeys; ++i) {
        ASSERT_EQ(keys[static_cast<std::size_t>(i)], "k" + std::to_string(i));
        ASSERT_DOUBLE_EQ(v.at(keys[static_cast<std::size_t>(i)]).as_number(),
                         i == 123 ? -1.0 : i);
    }
    EXPECT_FALSE(v.contains("k200000"));
}

TEST(JsonValue, LookupsHoldAcrossTheScanLimit) {
    JsonValue v = JsonValue::object();
    std::vector<std::string> expected;
    for (int i = 0; i < 40; ++i) {
        expected.push_back("key" + std::to_string(39 - i));
        v.set(expected.back(), i);
        for (int j = 0; j <= i; ++j) {
            ASSERT_DOUBLE_EQ(v.at(expected[static_cast<std::size_t>(j)]).as_number(), j);
        }
        ASSERT_FALSE(v.contains("key" + std::to_string(40 + i)));
    }
    v.set("key39", -1);  // overwrites position 0 in place
    v.set("key0", -2);   // and the last position
    EXPECT_EQ(v.keys(), expected);
    EXPECT_DOUBLE_EQ(v.at("key39").as_number(), -1.0);
    EXPECT_DOUBLE_EQ(v.at("key0").as_number(), -2.0);
    EXPECT_THROW((void)v.at("key40"), LookupError);
}

TEST(JsonParse, NestingDeeperThan512LevelsIsRejected) {
    EXPECT_NO_THROW((void)JsonValue::parse(std::string(512, '[') + std::string(512, ']')));
    try {
        (void)JsonValue::parse(std::string(513, '[') + std::string(513, ']'));
        FAIL() << "expected ParseError";
    } catch (const ParseError& e) {
        EXPECT_STREQ(e.what(),
                     "JSON parse error at line 1, column 513: nesting deeper than 512 levels");
    }
    std::string objects;
    for (int i = 0; i < 600; ++i) objects += "{\"a\":";
    objects += "0" + std::string(600, '}');
    EXPECT_THROW((void)JsonValue::parse(objects), ParseError);
}

TEST(JsonValue, SetOverwritesWithoutDuplicatingKey) {
    JsonValue v = JsonValue::object();
    v.set("k", 1);
    v.set("j", 0);
    v.set("k", 2);
    EXPECT_EQ(v.keys(), (std::vector<std::string>{"k", "j"}));
    EXPECT_DOUBLE_EQ(v.at("k").as_number(), 2.0);
}

TEST(JsonValue, GetOrDefaults) {
    JsonValue v = JsonValue::object();
    v.set("present", 1.5);
    EXPECT_DOUBLE_EQ(v.get_or("present", 0.0), 1.5);
    EXPECT_DOUBLE_EQ(v.get_or("absent", 7.0), 7.0);
    EXPECT_EQ(v.get_or("absent", std::string("dflt")), "dflt");
    EXPECT_EQ(v.get_or("absent", true), true);
}

TEST(JsonValue, TypeMismatchThrows) {
    const JsonValue v(1.5);
    EXPECT_THROW((void)v.as_string(), ParseError);
    EXPECT_THROW((void)v.as_bool(), ParseError);
    EXPECT_THROW((void)v.as_array(), ParseError);
    EXPECT_THROW((void)v.at("k"), ParseError);
}

TEST(JsonValue, MissingKeyThrows) {
    const JsonValue v = JsonValue::object();
    EXPECT_THROW((void)v.at("nope"), LookupError);
    try {
        (void)v.at("nope");
    } catch (const LookupError& e) {
        EXPECT_STREQ(e.what(), "missing JSON key: nope");
    }
}

TEST(JsonValue, MutableAtAllowsEditing) {
    JsonValue v = JsonValue::parse(R"({"nodes":[{"d":1}]})");
    v.at("nodes").as_array()[0].set("d", 2);
    EXPECT_DOUBLE_EQ(v.at("nodes").as_array()[0].at("d").as_number(), 2.0);
}

TEST(JsonFile, SaveLoadRoundtrip) {
    JsonValue v = JsonValue::object();
    v.set("x", 1.25);
    const std::string path = testing::TempDir() + "chiplet_json_test.json";
    v.save_file(path);
    const JsonValue loaded = JsonValue::load_file(path);
    EXPECT_DOUBLE_EQ(loaded.at("x").as_number(), 1.25);
}

TEST(JsonFile, MissingFileThrows) {
    EXPECT_THROW((void)JsonValue::load_file("/no/such/file.json"), Error);
}

TEST(JsonReader, RequiredAndOptionalFields) {
    const JsonValue v = JsonValue::parse(
        R"({"name":"x","count":3,"scale":1.5,"flag":true,
            "tags":["a","b"],"values":[1,2.5],"counts":[1,2]})");
    const JsonReader r(v, "test.json: entry");
    EXPECT_EQ(r.require_string("name"), "x");
    EXPECT_DOUBLE_EQ(r.require_number("scale"), 1.5);
    unsigned count = 0;
    r.optional("count", count);
    EXPECT_EQ(count, 3u);
    bool flag = false;
    r.optional("flag", flag);
    EXPECT_TRUE(flag);
    std::vector<std::string> tags;
    r.optional("tags", tags);
    EXPECT_EQ(tags, (std::vector<std::string>{"a", "b"}));
    std::vector<double> values;
    r.optional("values", values);
    EXPECT_EQ(values, (std::vector<double>{1.0, 2.5}));
    std::vector<unsigned> counts;
    r.optional("counts", counts);
    EXPECT_EQ(counts, (std::vector<unsigned>{1, 2}));
    // Absent optional keys leave the output untouched.
    double untouched = 7.0;
    r.optional("absent", untouched);
    EXPECT_DOUBLE_EQ(untouched, 7.0);
}

TEST(JsonReader, ErrorsNameKeyAndContext) {
    const JsonValue v = JsonValue::parse(R"({"count":1.5,"name":3})");
    const JsonReader r(v, "f.json: e[0]");
    const auto expect_message = [](const auto& fn, const std::string& needle) {
        try {
            fn();
            FAIL() << "expected ParseError containing " << needle;
        } catch (const ParseError& e) {
            const std::string what = e.what();
            EXPECT_NE(what.find(needle), std::string::npos) << what;
            EXPECT_NE(what.find("f.json: e[0]"), std::string::npos) << what;
        }
    };
    expect_message([&] { (void)r.require_string("missing"); }, "'missing'");
    expect_message([&] { (void)r.require_string("name"); }, "'name'");
    unsigned count = 0;
    expect_message([&] { r.optional("count", count); }, "'count'");
    EXPECT_THROW((void)JsonReader(JsonValue(1.0), "f.json"), ParseError);
}

TEST(JsonDiff, ToleranceAndIgnoredKeys) {
    const JsonValue a = JsonValue::parse(
        R"({"meta":{"wall":1.0},"x":1.0,"cells":["1.5","soc"],"list":[1,2]})");
    const JsonValue b = JsonValue::parse(
        R"({"meta":{"wall":9.0},"x":1.0000001,"cells":["1.5000001","soc"],"list":[1,2]})");
    JsonDiffOptions options;
    options.tolerance = 1e-6;
    options.ignore_keys = {"meta"};
    EXPECT_EQ(json_diff(a, b, options), "");

    options.tolerance = 1e-12;
    EXPECT_NE(json_diff(a, b, options), "");

    // Without the ignore list the metadata difference surfaces.
    options.tolerance = 1e-6;
    options.ignore_keys = {};
    EXPECT_NE(json_diff(a, b, options), "");
}

TEST(JsonDiff, ReportsPathOfFirstDifference) {
    const JsonValue a = JsonValue::parse(R"({"r":[{"v":1},{"v":2}]})");
    const JsonValue b = JsonValue::parse(R"({"r":[{"v":1},{"v":3}]})");
    const std::string diff = json_diff(a, b);
    EXPECT_NE(diff.find("r[1].v"), std::string::npos) << diff;
    EXPECT_NE(json_diff(JsonValue::parse("[1]"), JsonValue::parse("[1,2]")), "");
    EXPECT_NE(json_diff(JsonValue::parse(R"({"a":1})"),
                        JsonValue::parse(R"({"b":1})")),
              "");
    EXPECT_EQ(json_diff(a, a), "");
}

}  // namespace
}  // namespace chiplet
