#include "report/json.hh"

#include <cctype>
#include <charconv>

namespace voltboot
{
namespace report
{

JsonParseError::JsonParseError(const std::string &source, size_t line,
                               size_t column, const std::string &detail)
    : FatalError(source + ":" + std::to_string(line) + ":" +
                 std::to_string(column) + ": " + detail),
      line_(line), column_(column)
{}

const JsonValue *
JsonValue::find(std::string_view key) const
{
    for (const auto &[k, v] : members)
        if (k == key)
            return &v;
    return nullptr;
}

std::optional<uint64_t>
JsonValue::asUint64() const
{
    if (kind != Kind::Number)
        return std::nullopt;
    uint64_t value = 0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || ptr != end)
        return std::nullopt;
    return value;
}

const char *
JsonValue::kindName(Kind kind)
{
    switch (kind) {
      case Kind::Null: return "null";
      case Kind::Bool: return "bool";
      case Kind::Number: return "number";
      case Kind::String: return "string";
      case Kind::Array: return "array";
      case Kind::Object: return "object";
    }
    return "?";
}

namespace
{

/** Recursive-descent parser over one contiguous text span. */
class Parser
{
  public:
    Parser(std::string_view text, const std::string &source,
           size_t first_line)
        : text_(text), source_(source), line_(first_line)
    {}

    JsonValue
    document()
    {
        skipWhitespace();
        JsonValue value = parseValue();
        skipWhitespace();
        if (pos_ < text_.size())
            fail("trailing content after JSON value");
        return value;
    }

  private:
    [[noreturn]] void
    fail(const std::string &detail)
    {
        throw JsonParseError(source_, line_, column_, detail);
    }

    bool atEnd() const { return pos_ >= text_.size(); }

    char
    peek()
    {
        if (atEnd())
            fail("unexpected end of input");
        return text_[pos_];
    }

    char
    advance()
    {
        const char c = peek();
        ++pos_;
        if (c == '\n') {
            ++line_;
            column_ = 1;
        } else {
            ++column_;
        }
        return c;
    }

    void
    expect(char want, const char *where)
    {
        if (atEnd() || text_[pos_] != want)
            fail(std::string("expected '") + want + "' " + where);
        advance();
    }

    void
    skipWhitespace()
    {
        while (!atEnd()) {
            const char c = text_[pos_];
            if (c == ' ' || c == '\t' || c == '\n' || c == '\r')
                advance();
            else
                break;
        }
    }

    void
    stamp(JsonValue &value)
    {
        value.line = line_;
        value.column = column_;
    }

    JsonValue
    parseValue()
    {
        if (atEnd())
            fail("unexpected end of input, expected a JSON value");
        const char c = text_[pos_];
        switch (c) {
          case '{': case '[': {
            if (++depth_ > kMaxJsonDepth)
                fail("nesting deeper than " +
                     std::to_string(kMaxJsonDepth) + " levels");
            JsonValue v = c == '{' ? parseObject() : parseArray();
            --depth_;
            return v;
          }
          case '"': return parseString();
          case 't': case 'f': return parseBool();
          case 'n': return parseNull();
          default:
            if (c == '-' || (c >= '0' && c <= '9'))
                return parseNumber();
            fail(std::string("unexpected character '") + c + "'");
        }
    }

    void
    literal(const char *word)
    {
        for (const char *p = word; *p; ++p)
            if (atEnd() || text_[pos_] != *p)
                fail(std::string("malformed literal, expected '") + word +
                     "'");
            else
                advance();
    }

    JsonValue
    parseNull()
    {
        JsonValue v;
        stamp(v);
        literal("null");
        return v;
    }

    JsonValue
    parseBool()
    {
        JsonValue v;
        stamp(v);
        v.kind = JsonValue::Kind::Bool;
        if (text_[pos_] == 't') {
            literal("true");
            v.boolean = true;
        } else {
            literal("false");
            v.boolean = false;
        }
        return v;
    }

    JsonValue
    parseNumber()
    {
        JsonValue v;
        stamp(v);
        v.kind = JsonValue::Kind::Number;
        const size_t start = pos_;
        // Validate the RFC 8259 number grammar by hand so the raw text
        // span is exact; from_chars below does the value conversion.
        if (!atEnd() && text_[pos_] == '-')
            advance();
        if (atEnd() || !std::isdigit(static_cast<unsigned char>(
                           text_[pos_])))
            fail("malformed number: expected a digit");
        if (text_[pos_] == '0') {
            advance();
        } else {
            while (!atEnd() &&
                   std::isdigit(static_cast<unsigned char>(text_[pos_])))
                advance();
        }
        if (!atEnd() && text_[pos_] == '.') {
            advance();
            if (atEnd() || !std::isdigit(static_cast<unsigned char>(
                               text_[pos_])))
                fail("malformed number: expected a digit after '.'");
            while (!atEnd() &&
                   std::isdigit(static_cast<unsigned char>(text_[pos_])))
                advance();
        }
        if (!atEnd() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            advance();
            if (!atEnd() && (text_[pos_] == '+' || text_[pos_] == '-'))
                advance();
            if (atEnd() || !std::isdigit(static_cast<unsigned char>(
                               text_[pos_])))
                fail("malformed number: expected an exponent digit");
            while (!atEnd() &&
                   std::isdigit(static_cast<unsigned char>(text_[pos_])))
                advance();
        }
        v.text = std::string(text_.substr(start, pos_ - start));
        const auto [ptr, ec] = std::from_chars(
            v.text.data(), v.text.data() + v.text.size(), v.number);
        if (ec != std::errc() || ptr != v.text.data() + v.text.size())
            fail("number out of range: '" + v.text + "'");
        return v;
    }

    JsonValue
    parseString()
    {
        JsonValue v;
        stamp(v);
        v.kind = JsonValue::Kind::String;
        v.text = parseStringBody();
        return v;
    }

    std::string
    parseStringBody()
    {
        expect('"', "to open a string");
        std::string out;
        for (;;) {
            if (atEnd())
                fail("unterminated string");
            const char c = advance();
            if (c == '"')
                return out;
            if (static_cast<unsigned char>(c) < 0x20)
                fail("unescaped control character in string");
            if (c != '\\') {
                out += c;
                continue;
            }
            if (atEnd())
                fail("unterminated escape sequence");
            const char esc = advance();
            switch (esc) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': {
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    if (atEnd())
                        fail("unterminated \\u escape");
                    const char h = advance();
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        fail("malformed \\u escape: non-hex digit");
                }
                // Encode the BMP code point as UTF-8 (surrogate pairs
                // never appear in this repository's output; reject them
                // rather than mis-decode).
                if (code >= 0xD800 && code <= 0xDFFF)
                    fail("surrogate \\u escapes are not supported");
                if (code < 0x80) {
                    out += static_cast<char>(code);
                } else if (code < 0x800) {
                    out += static_cast<char>(0xC0 | (code >> 6));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                } else {
                    out += static_cast<char>(0xE0 | (code >> 12));
                    out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                }
                break;
              }
              default:
                fail(std::string("invalid escape '\\") + esc + "'");
            }
        }
    }

    JsonValue
    parseArray()
    {
        JsonValue v;
        stamp(v);
        v.kind = JsonValue::Kind::Array;
        expect('[', "to open an array");
        skipWhitespace();
        if (!atEnd() && text_[pos_] == ']') {
            advance();
            return v;
        }
        for (;;) {
            skipWhitespace();
            v.items.push_back(parseValue());
            skipWhitespace();
            if (atEnd())
                fail("unterminated array");
            const char c = advance();
            if (c == ']')
                return v;
            if (c != ',')
                fail("expected ',' or ']' in array");
        }
    }

    JsonValue
    parseObject()
    {
        JsonValue v;
        stamp(v);
        v.kind = JsonValue::Kind::Object;
        expect('{', "to open an object");
        skipWhitespace();
        if (!atEnd() && text_[pos_] == '}') {
            advance();
            return v;
        }
        for (;;) {
            skipWhitespace();
            if (atEnd() || text_[pos_] != '"')
                fail("expected a quoted object key");
            const size_t key_line = line_;
            const size_t key_column = column_;
            std::string key = parseStringBody();
            for (const auto &[existing, value] : v.members)
                if (existing == key)
                    throw JsonParseError(source_, key_line, key_column,
                                         "duplicate object key \"" + key +
                                             "\"");
            skipWhitespace();
            expect(':', "after object key");
            skipWhitespace();
            v.members.emplace_back(std::move(key), parseValue());
            skipWhitespace();
            if (atEnd())
                fail("unterminated object");
            const char c = advance();
            if (c == '}')
                return v;
            if (c != ',')
                fail("expected ',' or '}' in object");
        }
    }

    std::string_view text_;
    const std::string &source_;
    size_t pos_ = 0;
    size_t line_;
    size_t column_ = 1;
    size_t depth_ = 0;
};

} // namespace

JsonValue
parseJson(std::string_view text, const std::string &source,
          size_t first_line)
{
    return Parser(text, source, first_line).document();
}

} // namespace report
} // namespace voltboot
