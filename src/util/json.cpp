#include "util/json.h"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <utility>

#include "util/error.h"

namespace chiplet {

struct JsonValue::ObjectRep {
    /// Objects up to this many keys are searched by a linear scan; a
    /// larger one (only untrusted input makes those) gets an ordered
    /// index, so parsing n keys stays O(n log n).
    static constexpr std::size_t kScanLimit = 16;

    /// Orders positions in `keys` by the key text they hold; transparent,
    /// so the index is searched with a string_view.
    struct KeyLess {
        using is_transparent = void;
        const std::vector<std::string>* keys;
        bool operator()(std::size_t a, std::size_t b) const {
            return (*keys)[a] < (*keys)[b];
        }
        bool operator()(std::size_t a, std::string_view b) const {
            return (*keys)[a] < b;
        }
        bool operator()(std::string_view a, std::size_t b) const {
            return a < (*keys)[b];
        }
    };

    std::vector<std::string> keys;
    std::vector<JsonValue> values;
    /// Every position of `keys` once it outgrows kScanLimit; empty before.
    std::set<std::size_t, KeyLess> index{KeyLess{&keys}};

    ObjectRep() = default;
    // `index` points at this object's own `keys`.
    ObjectRep(const ObjectRep&) = delete;
    ObjectRep& operator=(const ObjectRep&) = delete;

    /// Position of `key`, or keys.size() when absent.
    [[nodiscard]] std::size_t index_of(std::string_view key) const {
        if (!index.empty()) {
            const auto it = index.find(key);
            return it != index.end() ? *it : keys.size();
        }
        std::size_t i = 0;
        while (i < keys.size() && keys[i] != key) ++i;
        return i;
    }

    /// Adds a key that index_of reported absent.  On failure the object
    /// is left as it was.
    void append(std::string key, JsonValue value) {
        const std::size_t i = keys.size();
        if (index.empty() && i + 1 > kScanLimit) {
            try {
                for (std::size_t j = 0; j < i; ++j) index.insert(index.end(), j);
            } catch (...) {
                index.clear();
                throw;
            }
        }
        keys.push_back(std::move(key));
        try {
            values.push_back(std::move(value));
            if (!index.empty()) index.insert(i);
        } catch (...) {
            // keep the vectors and the index aligned
            if (values.size() > i) values.pop_back();
            keys.pop_back();
            throw;
        }
    }
};

JsonValue JsonValue::object() {
    JsonValue v;
    v.value_ = std::make_shared<ObjectRep>();
    return v;
}

JsonValue JsonValue::array() {
    JsonValue v;
    v.value_ = JsonArray{};
    return v;
}

JsonValue::Type JsonValue::type() const {
    switch (value_.index()) {
        case 0: return Type::null;
        case 1: return Type::boolean;
        case 2: return Type::number;
        case 3: return Type::string;
        case 4: return Type::array;
        default: return Type::object;
    }
}

bool JsonValue::as_bool() const {
    if (!is_bool()) throw ParseError("JSON value is not a boolean");
    return std::get<bool>(value_);
}

double JsonValue::as_number() const {
    if (!is_number()) throw ParseError("JSON value is not a number");
    return std::get<double>(value_);
}

const std::string& JsonValue::as_string() const {
    if (!is_string()) throw ParseError("JSON value is not a string");
    return std::get<std::string>(value_);
}

const JsonArray& JsonValue::as_array() const {
    if (!is_array()) throw ParseError("JSON value is not an array");
    return std::get<JsonArray>(value_);
}

JsonArray& JsonValue::as_array() {
    if (!is_array()) throw ParseError("JSON value is not an array");
    return std::get<JsonArray>(value_);
}

JsonValue::ObjectRep& JsonValue::object_rep() {
    if (!is_object()) throw ParseError("JSON value is not an object");
    return *std::get<std::shared_ptr<ObjectRep>>(value_);
}

const JsonValue::ObjectRep& JsonValue::object_rep() const {
    if (!is_object()) throw ParseError("JSON value is not an object");
    return *std::get<std::shared_ptr<ObjectRep>>(value_);
}

const JsonValue* JsonValue::find(std::string_view key) const {
    const auto* rep = std::get_if<std::shared_ptr<ObjectRep>>(&value_);
    if (rep == nullptr) return nullptr;
    const std::size_t i = (*rep)->index_of(key);
    return i < (*rep)->keys.size() ? &(*rep)->values[i] : nullptr;
}

void JsonValue::set(std::string key, JsonValue value) {
    if (is_null()) value_ = std::make_shared<ObjectRep>();
    auto& rep = object_rep();
    const std::size_t i = rep.index_of(key);
    if (i < rep.keys.size()) {
        rep.values[i] = std::move(value);
        return;
    }
    rep.append(std::move(key), std::move(value));
}

bool JsonValue::contains(std::string_view key) const { return find(key) != nullptr; }

const JsonValue& JsonValue::at(std::string_view key) const {
    const auto& rep = object_rep();
    const std::size_t i = rep.index_of(key);
    if (i == rep.keys.size()) {
        throw LookupError("missing JSON key: " + std::string(key));
    }
    return rep.values[i];
}

JsonValue& JsonValue::at(std::string_view key) {
    return const_cast<JsonValue&>(std::as_const(*this).at(key));
}

double JsonValue::get_or(std::string_view key, double fallback) const {
    const JsonValue* v = find(key);
    return v != nullptr ? v->as_number() : fallback;
}

std::string JsonValue::get_or(std::string_view key,
                              const std::string& fallback) const {
    const JsonValue* v = find(key);
    return v != nullptr ? v->as_string() : fallback;
}

bool JsonValue::get_or(std::string_view key, bool fallback) const {
    const JsonValue* v = find(key);
    return v != nullptr ? v->as_bool() : fallback;
}

const std::vector<std::string>& JsonValue::keys() const {
    return object_rep().keys;
}

void JsonValue::push_back(JsonValue value) {
    if (is_null()) value_ = JsonArray{};
    as_array().push_back(std::move(value));
}

namespace {

void dump_string(std::string& out, std::string_view s) {
    out.push_back('"');
    std::size_t run = 0;  // start of the characters not yet copied
    for (std::size_t i = 0; i < s.size(); ++i) {
        const char c = s[i];
        if (static_cast<unsigned char>(c) >= 0x20 && c != '"' && c != '\\') continue;
        out.append(s, run, i - run);
        run = i + 1;
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default: {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            }
        }
    }
    out.append(s, run);
    out.push_back('"');
}

/// Whole numbers below 1e15 print as integers, so integer output does
/// not depend on the float formatter; -0 takes the float path, which
/// keeps its sign.
void dump_number(std::string& out, double d) {
    char buf[32];
    std::to_chars_result r{};
    if (d == std::floor(d) && std::fabs(d) < 1e15 && !(d == 0.0 && std::signbit(d))) {
        r = std::to_chars(buf, buf + sizeof buf, static_cast<long long>(d));
    } else {
        r = std::to_chars(buf, buf + sizeof buf, d);
    }
    CHIPLET_EXPECTS(r.ec == std::errc(), "number does not format");
    out.append(buf, r.ptr);
}

void newline(std::string& out, int indent, int depth) {
    if (indent <= 0) return;
    out.push_back('\n');
    out.append(static_cast<std::size_t>(indent) * static_cast<std::size_t>(depth), ' ');
}

}  // namespace

void JsonValue::dump_impl(std::string& out, int indent, int depth) const {
    switch (type()) {
        case Type::null: out += "null"; break;
        case Type::boolean: out += std::get<bool>(value_) ? "true" : "false"; break;
        case Type::number: dump_number(out, std::get<double>(value_)); break;
        case Type::string: dump_string(out, std::get<std::string>(value_)); break;
        case Type::array: {
            const auto& arr = std::get<JsonArray>(value_);
            if (arr.empty()) {
                out += "[]";
                break;
            }
            out.push_back('[');
            for (std::size_t i = 0; i < arr.size(); ++i) {
                if (i > 0) out.push_back(',');
                newline(out, indent, depth + 1);
                arr[i].dump_impl(out, indent, depth + 1);
            }
            newline(out, indent, depth);
            out.push_back(']');
            break;
        }
        case Type::object: {
            const ObjectRep& rep = *std::get<std::shared_ptr<ObjectRep>>(value_);
            if (rep.keys.empty()) {
                out += "{}";
                break;
            }
            out.push_back('{');
            for (std::size_t i = 0; i < rep.keys.size(); ++i) {
                if (i > 0) out.push_back(',');
                newline(out, indent, depth + 1);
                dump_string(out, rep.keys[i]);
                out += indent > 0 ? ": " : ":";
                rep.values[i].dump_impl(out, indent, depth + 1);
            }
            newline(out, indent, depth);
            out.push_back('}');
            break;
        }
    }
}

std::string JsonValue::dump(int indent) const {
    std::string out;
    dump_impl(out, indent, 0);
    return out;
}

namespace {

/// Recursive-descent JSON parser with line/column diagnostics.
class Parser {
public:
    explicit Parser(const std::string& text) : text_(text) {}

    JsonValue parse_document() {
        skip_ws();
        JsonValue v = parse_value();
        skip_ws();
        if (pos_ != text_.size()) fail("trailing characters after JSON document");
        return v;
    }

private:
    /// Deeper nesting is rejected: parsing, dumping and destroying a
    /// document each recurse once per level.
    static constexpr std::size_t kMaxDepth = 512;

    /// Counts one level of nesting for the lifetime of a container parse.
    class Nesting {
    public:
        explicit Nesting(Parser& parser) : parser_(parser) {
            if (parser_.depth_ == kMaxDepth) {
                parser_.fail("nesting deeper than " + std::to_string(kMaxDepth) +
                             " levels");
            }
            ++parser_.depth_;
        }
        ~Nesting() { --parser_.depth_; }
        Nesting(const Nesting&) = delete;
        Nesting& operator=(const Nesting&) = delete;

    private:
        Parser& parser_;
    };

    [[noreturn]] void fail(const std::string& message) const {
        std::size_t line = 1;
        std::size_t col = 1;
        for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
            if (text_[i] == '\n') {
                ++line;
                col = 1;
            } else {
                ++col;
            }
        }
        throw ParseError("JSON parse error at line " + std::to_string(line) +
                         ", column " + std::to_string(col) + ": " + message);
    }

    [[nodiscard]] char peek() const {
        if (pos_ >= text_.size()) fail("unexpected end of input");
        return text_[pos_];
    }

    char next() {
        const char c = peek();
        ++pos_;
        return c;
    }

    void skip_ws() {
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c == ' ' || c == '\t' || c == '\n' || c == '\r') ++pos_;
            else break;
        }
    }

    void expect(char c) {
        if (next() != c) {
            --pos_;
            fail(std::string("expected '") + c + "'");
        }
    }

    void expect_literal(const char* literal) {
        for (const char* p = literal; *p != '\0'; ++p) expect(*p);
    }

    JsonValue parse_value() {
        switch (peek()) {
            case '{': return parse_object();
            case '[': return parse_array();
            case '"': return JsonValue(parse_string());
            case 't': expect_literal("true"); return JsonValue(true);
            case 'f': expect_literal("false"); return JsonValue(false);
            case 'n': expect_literal("null"); return JsonValue(nullptr);
            default: return parse_number();
        }
    }

    JsonValue parse_object() {
        const Nesting nesting(*this);
        expect('{');
        JsonValue obj = JsonValue::object();
        skip_ws();
        if (peek() == '}') {
            next();
            return obj;
        }
        while (true) {
            skip_ws();
            std::string key = parse_string();
            skip_ws();
            expect(':');
            skip_ws();
            obj.set(std::move(key), parse_value());
            skip_ws();
            const char c = next();
            if (c == '}') return obj;
            if (c != ',') {
                --pos_;
                fail("expected ',' or '}' in object");
            }
        }
    }

    JsonValue parse_array() {
        const Nesting nesting(*this);
        expect('[');
        JsonValue arr = JsonValue::array();
        skip_ws();
        if (peek() == ']') {
            next();
            return arr;
        }
        while (true) {
            skip_ws();
            arr.push_back(parse_value());
            skip_ws();
            const char c = next();
            if (c == ']') return arr;
            if (c != ',') {
                --pos_;
                fail("expected ',' or ']' in array");
            }
        }
    }

    std::string parse_string() {
        expect('"');
        std::string out;
        while (true) {
            // Copy the run up to the next quote, escape or control
            // character in one append.
            const std::size_t run = pos_;
            while (pos_ < text_.size() && text_[pos_] != '"' && text_[pos_] != '\\' &&
                   static_cast<unsigned char>(text_[pos_]) >= 0x20) {
                ++pos_;
            }
            out.append(text_, run, pos_ - run);
            const char c = next();
            if (c == '"') return out;
            if (c != '\\') {
                --pos_;
                fail("unescaped control character in string");
            }
            const char esc = next();
            switch (esc) {
                case '"': out.push_back('"'); break;
                case '\\': out.push_back('\\'); break;
                case '/': out.push_back('/'); break;
                case 'b': out.push_back('\b'); break;
                case 'f': out.push_back('\f'); break;
                case 'n': out.push_back('\n'); break;
                case 'r': out.push_back('\r'); break;
                case 't': out.push_back('\t'); break;
                case 'u': {
                    unsigned code = 0;
                    for (int i = 0; i < 4; ++i) {
                        const char h = next();
                        code <<= 4;
                        if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
                        else if (h >= 'a' && h <= 'f') code += static_cast<unsigned>(h - 'a' + 10);
                        else if (h >= 'A' && h <= 'F') code += static_cast<unsigned>(h - 'A' + 10);
                        else {
                            --pos_;
                            fail("invalid \\u escape digit");
                        }
                    }
                    if (code < 0x80) {
                        out.push_back(static_cast<char>(code));
                    } else if (code < 0x800) {
                        out.push_back(static_cast<char>(0xC0 | (code >> 6)));
                        out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
                    } else {
                        out.push_back(static_cast<char>(0xE0 | (code >> 12)));
                        out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
                        out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
                    }
                    break;
                }
                default:
                    --pos_;
                    fail("invalid escape sequence");
            }
        }
    }

    JsonValue parse_number() {
        const std::size_t start = pos_;
        if (peek() == '-') next();
        if (!std::isdigit(static_cast<unsigned char>(peek()))) fail("invalid number");
        while (pos_ < text_.size() &&
               std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
            ++pos_;
        }
        if (pos_ < text_.size() && text_[pos_] == '.') {
            ++pos_;
            if (pos_ >= text_.size() ||
                !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
                fail("digit required after decimal point");
            }
            while (pos_ < text_.size() &&
                   std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
                ++pos_;
            }
        }
        if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
            if (pos_ >= text_.size() ||
                !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
                fail("digit required in exponent");
            }
            while (pos_ < text_.size() &&
                   std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
                ++pos_;
            }
        }
        // The span is grammatical, so from_chars consumes all of it; the
        // one failure left is "1e99999": valid but unrepresentable.
        double value = 0.0;
        const char* last = text_.data() + pos_;
        const auto [ptr, ec] = std::from_chars(text_.data() + start, last, value);
        if (ec != std::errc() || ptr != last) {
            pos_ = start;
            fail("number out of double range");
        }
        return JsonValue(value);
    }

    const std::string& text_;
    std::size_t pos_ = 0;
    std::size_t depth_ = 0;  ///< containers open at pos_
};

}  // namespace

JsonValue JsonValue::parse(const std::string& text) {
    return Parser(text).parse_document();
}

JsonValue JsonValue::load_file(const std::string& path) {
    std::ifstream file(path);
    if (!file) throw Error("cannot open JSON file: " + path);
    std::ostringstream buffer;
    buffer << file.rdbuf();
    return parse(buffer.str());
}

void JsonValue::save_file(const std::string& path, int indent) const {
    std::ofstream file(path);
    if (!file) throw Error("cannot open JSON output file: " + path);
    file << dump(indent) << '\n';
    if (!file) throw Error("write failure on JSON output file: " + path);
}

// ---- JsonReader -------------------------------------------------------------

const char* type_name(JsonValue::Type type) {
    switch (type) {
        case JsonValue::Type::null: return "null";
        case JsonValue::Type::boolean: return "boolean";
        case JsonValue::Type::number: return "number";
        case JsonValue::Type::string: return "string";
        case JsonValue::Type::array: return "array";
        case JsonValue::Type::object: return "object";
    }
    return "unknown";
}

JsonReader::JsonReader(const JsonValue& value, std::string context)
    : value_(value), context_(std::move(context)) {
    if (!value_.is_object()) {
        throw ParseError(context_ + ": expected object, got " +
                         type_name(value_.type()));
    }
}

bool JsonReader::has(const std::string& key) const { return value_.contains(key); }

void JsonReader::fail(const std::string& key, const std::string& what) const {
    throw ParseError(context_ + ": key '" + key + "': " + what);
}

const JsonValue& JsonReader::require(const std::string& key) const {
    if (!value_.contains(key)) {
        throw ParseError(context_ + ": required key '" + key + "' is missing");
    }
    return value_.at(key);
}

std::string JsonReader::require_string(const std::string& key) const {
    const JsonValue& v = require(key);
    if (!v.is_string()) fail(key, std::string("expected string, got ") + type_name(v.type()));
    return v.as_string();
}

double JsonReader::require_number(const std::string& key) const {
    const JsonValue& v = require(key);
    if (!v.is_number()) fail(key, std::string("expected number, got ") + type_name(v.type()));
    return v.as_number();
}

const JsonArray& JsonReader::require_array(const std::string& key) const {
    const JsonValue& v = require(key);
    if (!v.is_array()) fail(key, std::string("expected array, got ") + type_name(v.type()));
    return v.as_array();
}

double JsonReader::integral_number(const std::string& key, const JsonValue& v) const {
    if (!v.is_number()) fail(key, std::string("expected number, got ") + type_name(v.type()));
    const double d = v.as_number();
    // Range-check in the double domain before any integer cast: casting
    // an out-of-range double is undefined behaviour, not saturation.
    if (d < 0.0 || d >= 18446744073709551616.0 /* 2^64 */ ||
        std::trunc(d) != d) {
        fail(key, "expected a non-negative integer");
    }
    return d;
}

void JsonReader::optional(const std::string& key, double& out) const {
    if (has(key)) out = require_number(key);
}

void JsonReader::optional(const std::string& key, std::string& out) const {
    if (has(key)) out = require_string(key);
}

void JsonReader::optional(const std::string& key, bool& out) const {
    if (!has(key)) return;
    const JsonValue& v = value_.at(key);
    if (!v.is_bool()) fail(key, std::string("expected boolean, got ") + type_name(v.type()));
    out = v.as_bool();
}

void JsonReader::optional(const std::string& key, unsigned& out) const {
    if (!has(key)) return;
    const double d = integral_number(key, value_.at(key));
    if (d > static_cast<double>(std::numeric_limits<unsigned>::max())) {
        fail(key, "value does not fit in an unsigned int");
    }
    out = static_cast<unsigned>(d);
}

void JsonReader::optional(const std::string& key, std::uint64_t& out) const {
    if (has(key)) out = static_cast<std::uint64_t>(integral_number(key, value_.at(key)));
}

void JsonReader::optional(const std::string& key, std::vector<double>& out) const {
    if (!has(key)) return;
    const JsonArray& array = require_array(key);
    out.clear();
    for (const JsonValue& v : array) {
        if (!v.is_number()) fail(key, "expected an array of numbers");
        out.push_back(v.as_number());
    }
}

void JsonReader::optional(const std::string& key,
                          std::vector<std::string>& out) const {
    if (!has(key)) return;
    const JsonArray& array = require_array(key);
    out.clear();
    for (const JsonValue& v : array) {
        if (!v.is_string()) fail(key, "expected an array of strings");
        out.push_back(v.as_string());
    }
}

void JsonReader::optional(const std::string& key, std::vector<unsigned>& out) const {
    if (!has(key)) return;
    const JsonArray& array = require_array(key);
    out.clear();
    for (const JsonValue& v : array) {
        const double d = integral_number(key, v);
        if (d > static_cast<double>(std::numeric_limits<unsigned>::max())) {
            fail(key, "value does not fit in an unsigned int");
        }
        out.push_back(static_cast<unsigned>(d));
    }
}

// ---- json_diff --------------------------------------------------------------

bool parse_full_number(const std::string& s, double& out) {
    if (s.empty()) return false;
    char* end = nullptr;
    errno = 0;
    out = std::strtod(s.c_str(), &end);
    return errno == 0 && end == s.c_str() + s.size();
}

namespace {

bool numbers_close(double a, double b, double tolerance) {
    const double scale = std::max({1.0, std::fabs(a), std::fabs(b)});
    return std::fabs(a - b) <= tolerance * scale;
}

std::string diff_at(const std::string& path, const JsonValue& a,
                    const JsonValue& b, const JsonDiffOptions& options) {
    const auto here = [&path] { return path.empty() ? "$" : path; };
    if (a.type() != b.type()) {
        // Numeric strings vs numbers stay type-strict: a schema change
        // should show up even when the values happen to match.
        return here() + ": type " + type_name(a.type()) + " vs " +
               type_name(b.type());
    }
    switch (a.type()) {
        case JsonValue::Type::null: return "";
        case JsonValue::Type::boolean:
            return a.as_bool() == b.as_bool()
                       ? ""
                       : here() + ": " + a.dump() + " vs " + b.dump();
        case JsonValue::Type::number:
            return numbers_close(a.as_number(), b.as_number(), options.tolerance)
                       ? ""
                       : here() + ": " + a.dump() + " vs " + b.dump();
        case JsonValue::Type::string: {
            if (a.as_string() == b.as_string()) return "";
            double na = 0.0;
            double nb = 0.0;
            if (options.numeric_strings && parse_full_number(a.as_string(), na) &&
                parse_full_number(b.as_string(), nb) &&
                numbers_close(na, nb, options.tolerance)) {
                return "";
            }
            return here() + ": \"" + a.as_string() + "\" vs \"" + b.as_string() +
                   "\"";
        }
        case JsonValue::Type::array: {
            const JsonArray& aa = a.as_array();
            const JsonArray& ba = b.as_array();
            if (aa.size() != ba.size()) {
                return here() + ": array length " + std::to_string(aa.size()) +
                       " vs " + std::to_string(ba.size());
            }
            for (std::size_t i = 0; i < aa.size(); ++i) {
                std::string d = diff_at(path + "[" + std::to_string(i) + "]",
                                        aa[i], ba[i], options);
                if (!d.empty()) return d;
            }
            return "";
        }
        case JsonValue::Type::object: {
            const auto ignored = [&options](const std::string& key) {
                for (const std::string& k : options.ignore_keys) {
                    if (k == key) return true;
                }
                return false;
            };
            for (const std::string& key : a.keys()) {
                if (ignored(key)) continue;
                if (!b.contains(key)) {
                    return here() + ": key '" + key + "' only on the left";
                }
            }
            for (const std::string& key : b.keys()) {
                if (ignored(key)) continue;
                if (!a.contains(key)) {
                    return here() + ": key '" + key + "' only on the right";
                }
                std::string d =
                    diff_at(path.empty() ? key : path + "." + key, a.at(key),
                            b.at(key), options);
                if (!d.empty()) return d;
            }
            return "";
        }
    }
    return "";
}

}  // namespace

std::string json_diff(const JsonValue& a, const JsonValue& b,
                      const JsonDiffOptions& options) {
    return diff_at("", a, b, options);
}

std::string JsonReader::element_context(const std::string& key,
                                        std::size_t index) const {
    return context_ + "." + key + "[" + std::to_string(index) + "]";
}

}  // namespace chiplet
