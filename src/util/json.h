// Minimal JSON value model, parser and serialiser.  Used for loading
// user-supplied technology libraries and exporting model results.  Supports
// the full JSON grammar except for \u escapes beyond Latin-1; numbers are
// stored as double (sufficient for cost-model parameters) and printed
// losslessly: parse(dump(v)) reproduces every number bit for bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace chiplet {

class JsonValue;

/// Order-preserving object representation: JSON keys keep file order so a
/// saved tech library round-trips readably.
using JsonArray = std::vector<JsonValue>;

/// JSON document node.  Copies share objects: copying an object, or an
/// array holding objects, aliases the original's members, so a `set` on
/// the copy shows through the original.  Build an independent document
/// with parse(dump()).
class JsonValue {
public:
    enum class Type { null, boolean, number, string, array, object };

    /// Constructs null.
    JsonValue() = default;
    JsonValue(std::nullptr_t) {}
    JsonValue(bool b) : value_(b) {}
    JsonValue(double d) : value_(d) {}
    JsonValue(int i) : value_(static_cast<double>(i)) {}
    JsonValue(unsigned u) : value_(static_cast<double>(u)) {}
    JsonValue(const char* s) : value_(std::string(s)) {}
    JsonValue(std::string s) : value_(std::move(s)) {}
    JsonValue(JsonArray a) : value_(std::move(a)) {}

    /// Creates an empty object.
    [[nodiscard]] static JsonValue object();
    /// Creates an empty array.
    [[nodiscard]] static JsonValue array();

    [[nodiscard]] Type type() const;
    [[nodiscard]] bool is_null() const { return type() == Type::null; }
    [[nodiscard]] bool is_bool() const { return type() == Type::boolean; }
    [[nodiscard]] bool is_number() const { return type() == Type::number; }
    [[nodiscard]] bool is_string() const { return type() == Type::string; }
    [[nodiscard]] bool is_array() const { return type() == Type::array; }
    [[nodiscard]] bool is_object() const { return type() == Type::object; }

    /// Typed accessors; throw ParseError on type mismatch.
    [[nodiscard]] bool as_bool() const;
    [[nodiscard]] double as_number() const;
    [[nodiscard]] const std::string& as_string() const;
    [[nodiscard]] const JsonArray& as_array() const;
    [[nodiscard]] JsonArray& as_array();

    /// Object access.  `set` appends a new key or overwrites an existing
    /// one in place, keeping its position; `at` throws LookupError for
    /// missing keys; `get_or` returns a fallback.  Small objects are
    /// searched linearly, large ones through an ordered index.  A
    /// reference returned by `at` is invalidated by a later `set` of a
    /// *new* key on the same object.
    void set(std::string key, JsonValue value);
    [[nodiscard]] bool contains(std::string_view key) const;
    [[nodiscard]] const JsonValue& at(std::string_view key) const;
    [[nodiscard]] JsonValue& at(std::string_view key);
    [[nodiscard]] double get_or(std::string_view key, double fallback) const;
    [[nodiscard]] std::string get_or(std::string_view key,
                                     const std::string& fallback) const;
    [[nodiscard]] bool get_or(std::string_view key, bool fallback) const;
    /// Keys in insertion order.
    [[nodiscard]] const std::vector<std::string>& keys() const;

    /// Array append.
    void push_back(JsonValue value);

    /// Serialises; indent > 0 pretty-prints with that many spaces per level.
    [[nodiscard]] std::string dump(int indent = 0) const;

    /// Parses a complete JSON document; throws ParseError with a
    /// line/column diagnostic on malformed input.
    [[nodiscard]] static JsonValue parse(const std::string& text);

    /// Reads and parses a file; throws Error when unreadable.
    [[nodiscard]] static JsonValue load_file(const std::string& path);

    /// Writes `dump(indent)` to a file.
    void save_file(const std::string& path, int indent = 2) const;

private:
    // Keys in insertion order and their values, index for index
    // (defined in json.cpp).
    struct ObjectRep;

    // shared_ptr keeps JsonValue copyable while ObjectRep stays incomplete
    // here; it is also why object copies share their members.
    using Storage = std::variant<std::monostate, bool, double, std::string,
                                 JsonArray, std::shared_ptr<ObjectRep>>;

    void dump_impl(std::string& out, int indent, int depth) const;
    [[nodiscard]] ObjectRep& object_rep();
    [[nodiscard]] const ObjectRep& object_rep() const;
    /// The value under `key`, or nullptr (also when not an object).
    [[nodiscard]] const JsonValue* find(std::string_view key) const;

    Storage value_;
};

/// Human-readable name of a JSON type ("number", "object", ...), for
/// diagnostics.
[[nodiscard]] const char* type_name(JsonValue::Type type);

/// Options for json_diff.
struct JsonDiffOptions {
    /// Numbers a, b compare equal when |a-b| <= tolerance * max(1, |a|, |b|).
    double tolerance = 1e-9;
    /// Object keys skipped everywhere (e.g. "meta" for run metadata).
    std::vector<std::string> ignore_keys;
    /// When set, strings that both parse completely as numbers compare
    /// numerically under `tolerance` — formatted table cells stay
    /// comparable across compilers.
    bool numeric_strings = true;
};

/// Float-tolerant structural comparison for golden-file checks.  Returns
/// an empty string when the documents match, otherwise a description of
/// the first difference found ("results[2].result.mean: 3.1 vs 3.2").
[[nodiscard]] std::string json_diff(const JsonValue& a, const JsonValue& b,
                                    const JsonDiffOptions& options = {});

/// Parses a complete string as a double into `out`; false when the
/// string is empty, has a non-numeric suffix, or overflows.  Shared by
/// json_diff's numeric-string mode and the table renderers.
[[nodiscard]] bool parse_full_number(const std::string& s, double& out);

/// Field reader over one JSON object with a uniform, context-carrying
/// error format shared by every loader (tech, design, study):
///
///   tech.json: nodes[2]: required key 'name' is missing
///   studies.json: studies[0].config: key 'draws': expected number, got string
///
/// `context` names where the object came from (typically the file path
/// plus a JSON path); all failures throw ParseError beginning with it.
class JsonReader {
public:
    /// Throws ParseError when `value` is not an object.
    JsonReader(const JsonValue& value, std::string context);

    [[nodiscard]] const JsonValue& json() const { return value_; }
    [[nodiscard]] const std::string& context() const { return context_; }
    [[nodiscard]] bool has(const std::string& key) const;

    /// Required fields; throw ParseError naming the key and context when
    /// the key is missing or has the wrong type.
    [[nodiscard]] const JsonValue& require(const std::string& key) const;
    [[nodiscard]] std::string require_string(const std::string& key) const;
    [[nodiscard]] double require_number(const std::string& key) const;
    [[nodiscard]] const JsonArray& require_array(const std::string& key) const;

    /// Optional fields: `out` is assigned only when the key is present.
    /// Present-but-mistyped values throw (a silently ignored typo would
    /// mask a user error).  The unsigned overloads additionally require a
    /// non-negative integral number.
    void optional(const std::string& key, double& out) const;
    void optional(const std::string& key, std::string& out) const;
    void optional(const std::string& key, bool& out) const;
    void optional(const std::string& key, unsigned& out) const;
    void optional(const std::string& key, std::uint64_t& out) const;
    void optional(const std::string& key, std::vector<double>& out) const;
    void optional(const std::string& key, std::vector<std::string>& out) const;
    void optional(const std::string& key, std::vector<unsigned>& out) const;

    /// Context string for element `index` of the array under `key`:
    /// `<context>.<key>[<index>]`.
    [[nodiscard]] std::string element_context(const std::string& key,
                                              std::size_t index) const;

    [[noreturn]] void fail(const std::string& key, const std::string& what) const;

private:
    [[nodiscard]] double integral_number(const std::string& key,
                                         const JsonValue& v) const;

    const JsonValue& value_;
    std::string context_;
};

}  // namespace chiplet
