/**
 * @file
 * A small JSON DOM + recursive-descent parser for the tests that read
 * back what json::Writer wrote (test_json, test_soak, test_stats).
 * It accepts standard JSON (null, booleans, numbers, strings with
 * escapes, arrays, objects); no user input reaches it, so it lives
 * beside the tests instead of in the simulator library.
 */

#ifndef HYPERSIO_TESTS_JSON_VALUE_HH
#define HYPERSIO_TESTS_JSON_VALUE_HH

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace hypersio::json
{

/**
 * Parsed JSON value. Objects keep member order and are searched
 * linearly (the documents this package handles are small).
 */
struct Value
{
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<Value> array;
    std::vector<std::pair<std::string, Value>> object;

    bool isNull() const { return kind == Kind::Null; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isObject() const { return kind == Kind::Object; }
    bool isArray() const { return kind == Kind::Array; }

    /** Object member lookup; nullptr when absent or not an object. */
    const Value *find(std::string_view key) const;

    /**
     * Parses a complete JSON document (trailing whitespace allowed,
     * trailing garbage rejected). std::nullopt on malformed input.
     */
    static std::optional<Value> parse(std::string_view text);
};

} // namespace hypersio::json

#endif // HYPERSIO_TESTS_JSON_VALUE_HH
