/**
 * @file
 * Minimal JSON reader for configuration files.
 *
 * Parses the subset of JSON the vvsp tools consume (objects, arrays,
 * strings, numbers, booleans, null) into an immutable value tree.
 * Object members keep their source order, so a document can be
 * re-serialized deterministically. No external dependency: the repo
 * stays buildable with the bare toolchain.
 */

#ifndef VVSP_SUPPORT_JSON_HH
#define VVSP_SUPPORT_JSON_HH

#include <string>
#include <utility>
#include <vector>

namespace vvsp
{
namespace json
{

/** One parsed JSON value (a tree node). */
class Value
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object
    };

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    bool asBool() const { return bool_; }
    double asNumber() const { return number_; }
    const std::string &asString() const { return string_; }

    /** True when the number has no fractional part (fits an int). */
    bool isIntegral() const;

    const std::vector<Value> &array() const { return array_; }

    /** Object members in document order. */
    const std::vector<std::pair<std::string, Value>> &
    members() const
    {
        return members_;
    }

    /** Object member lookup; nullptr when absent (or not an object). */
    const Value *find(const std::string &key) const;

    static Value makeNull() { return Value(); }
    static Value makeBool(bool b);
    static Value makeNumber(double n);

  private:
    friend class Parser;

    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double number_ = 0;
    std::string string_;
    std::vector<Value> array_;
    std::vector<std::pair<std::string, Value>> members_;
};

/**
 * Parse a complete JSON document. Returns false and fills `error`
 * (with a 1-based line number) on malformed input or trailing
 * garbage; `out` is unspecified on failure.
 */
bool parse(const std::string &text, Value &out, std::string &error);

/** Escape a string's quotes/backslashes/control chars for JSON. */
std::string escape(const std::string &s);

} // namespace json
} // namespace vvsp

#endif // VVSP_SUPPORT_JSON_HH
