#include "support/json.hh"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "support/logging.hh"

namespace vvsp
{
namespace json
{

bool
Value::isIntegral() const
{
    return kind_ == Kind::Number && std::isfinite(number_) &&
           number_ == std::floor(number_) && number_ >= -2147483648.0 &&
           number_ <= 2147483647.0;
}

const Value *
Value::find(const std::string &key) const
{
    for (const auto &[k, v] : members_) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

Value
Value::makeBool(bool b)
{
    Value v;
    v.kind_ = Kind::Bool;
    v.bool_ = b;
    return v;
}

Value
Value::makeNumber(double n)
{
    Value v;
    v.kind_ = Kind::Number;
    v.number_ = n;
    return v;
}

/** Recursive-descent parser over the raw document text. */
class Parser
{
  public:
    Parser(const std::string &text, std::string &error)
        : text_(text), error_(error)
    {
    }

    bool
    run(Value &out)
    {
        skipSpace();
        if (!parseValue(out))
            return false;
        skipSpace();
        if (pos_ != text_.size())
            return fail("trailing characters after the document");
        return true;
    }

  private:
    bool
    fail(const std::string &what)
    {
        error_ = format("line %d: %s", line_, what.c_str());
        return false;
    }

    void
    skipSpace()
    {
        while (pos_ < text_.size()) {
            char c = text_[pos_];
            if (c == '\n')
                ++line_;
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r')
                break;
            ++pos_;
        }
    }

    bool
    literal(const char *word)
    {
        size_t n = 0;
        while (word[n] != '\0')
            ++n;
        if (text_.compare(pos_, n, word) != 0)
            return false;
        pos_ += n;
        return true;
    }

    bool
    parseValue(Value &out)
    {
        if (pos_ >= text_.size())
            return fail("unexpected end of document");
        char c = text_[pos_];
        switch (c) {
          case '{':
            return parseObject(out);
          case '[':
            return parseArray(out);
          case '"':
            out.kind_ = Value::Kind::String;
            return parseString(out.string_);
          case 't':
            if (!literal("true"))
                return fail("bad literal");
            out = Value::makeBool(true);
            return true;
          case 'f':
            if (!literal("false"))
                return fail("bad literal");
            out = Value::makeBool(false);
            return true;
          case 'n':
            if (!literal("null"))
                return fail("bad literal");
            out = Value::makeNull();
            return true;
          default:
            return parseNumber(out);
        }
    }

    bool
    parseObject(Value &out)
    {
        ++pos_; // '{'
        out.kind_ = Value::Kind::Object;
        skipSpace();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            skipSpace();
            if (pos_ >= text_.size() || text_[pos_] != '"')
                return fail("expected a quoted object key");
            std::string key;
            if (!parseString(key))
                return false;
            if (out.find(key))
                return fail("duplicate key \"" + key + "\"");
            skipSpace();
            if (pos_ >= text_.size() || text_[pos_] != ':')
                return fail("expected ':' after object key");
            ++pos_;
            skipSpace();
            Value member;
            if (!parseValue(member))
                return false;
            out.members_.emplace_back(std::move(key),
                                      std::move(member));
            skipSpace();
            if (pos_ >= text_.size())
                return fail("unterminated object");
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == '}') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or '}' in object");
        }
    }

    bool
    parseArray(Value &out)
    {
        ++pos_; // '['
        out.kind_ = Value::Kind::Array;
        skipSpace();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            skipSpace();
            Value element;
            if (!parseValue(element))
                return false;
            out.array_.push_back(std::move(element));
            skipSpace();
            if (pos_ >= text_.size())
                return fail("unterminated array");
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == ']') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or ']' in array");
        }
    }

    bool
    parseString(std::string &out)
    {
        ++pos_; // opening quote
        out.clear();
        while (pos_ < text_.size()) {
            char c = text_[pos_++];
            if (c == '"')
                return true;
            if (c == '\n')
                return fail("unterminated string");
            // RFC 8259: control characters must be escaped.
            if (static_cast<unsigned char>(c) < 0x20)
                return fail("unescaped control character in string");
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                return fail("unterminated escape");
            char e = text_[pos_++];
            switch (e) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': {
                  // Config files are ASCII; accept \uXXXX for the
                  // Latin-1 range and reject the rest.
                  if (pos_ + 4 > text_.size())
                      return fail("truncated \\u escape");
                  char *end = nullptr;
                  std::string hex = text_.substr(pos_, 4);
                  long cp = std::strtol(hex.c_str(), &end, 16);
                  if (end != hex.c_str() + 4 || cp > 0xff)
                      return fail("unsupported \\u escape");
                  pos_ += 4;
                  out += static_cast<char>(cp);
                  break;
              }
              default:
                return fail("bad escape character");
            }
        }
        return fail("unterminated string");
    }

    bool
    parseNumber(Value &out)
    {
        size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-')) {
            ++pos_;
        }
        if (pos_ == start)
            return fail("unexpected character");
        std::string tok = text_.substr(start, pos_ - start);
        char *end = nullptr;
        double v = std::strtod(tok.c_str(), &end);
        if (end != tok.c_str() + tok.size() || !std::isfinite(v)) {
            pos_ = start;
            return fail("malformed number '" + tok + "'");
        }
        out = Value::makeNumber(v);
        return true;
    }

    const std::string &text_;
    std::string &error_;
    size_t pos_ = 0;
    int line_ = 1;
};

bool
parse(const std::string &text, Value &out, std::string &error)
{
    out = Value();
    error.clear();
    return Parser(text, error).run(out);
}

std::string
escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += format("\\u%04x", c);
            else
                out += c;
        }
    }
    return out;
}

} // namespace json
} // namespace vvsp
