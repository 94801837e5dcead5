#include "json_value.hh"

#include <cctype>
#include <charconv>

namespace hypersio::json
{

namespace
{

/** Recursive-descent JSON parser over a string_view cursor. */
class Parser
{
  public:
    explicit Parser(std::string_view text) : _text(text) {}

    std::optional<Value>
    document()
    {
        auto v = parseValue();
        if (!v)
            return std::nullopt;
        skipWs();
        if (_pos != _text.size())
            return std::nullopt; // trailing garbage
        return v;
    }

  private:
    void
    skipWs()
    {
        while (_pos < _text.size() &&
               std::isspace(static_cast<unsigned char>(_text[_pos])))
            ++_pos;
    }

    bool
    consume(char c)
    {
        skipWs();
        if (_pos < _text.size() && _text[_pos] == c) {
            ++_pos;
            return true;
        }
        return false;
    }

    bool
    literal(std::string_view word)
    {
        if (_text.substr(_pos, word.size()) != word)
            return false;
        _pos += word.size();
        return true;
    }

    std::optional<std::string>
    parseString()
    {
        if (!consume('"'))
            return std::nullopt;
        std::string out;
        while (_pos < _text.size()) {
            char c = _text[_pos++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (_pos >= _text.size())
                return std::nullopt;
            char esc = _text[_pos++];
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
                if (_pos + 4 > _text.size())
                    return std::nullopt;
                unsigned code = 0;
                auto [p, ec] = std::from_chars(
                    _text.data() + _pos, _text.data() + _pos + 4,
                    code, 16);
                if (ec != std::errc() ||
                    p != _text.data() + _pos + 4)
                    return std::nullopt;
                _pos += 4;
                // Only the BMP subset the writer emits (control
                // chars) needs to round-trip; encode as UTF-8.
                if (code < 0x80) {
                    out += static_cast<char>(code);
                } else if (code < 0x800) {
                    out += static_cast<char>(0xC0 | (code >> 6));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                } else {
                    out += static_cast<char>(0xE0 | (code >> 12));
                    out += static_cast<char>(
                        0x80 | ((code >> 6) & 0x3F));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                }
                break;
              }
              default:
                return std::nullopt;
            }
        }
        return std::nullopt; // unterminated
    }

    std::optional<Value>
    parseValue()
    {
        skipWs();
        if (_pos >= _text.size())
            return std::nullopt;
        const char c = _text[_pos];
        Value v;
        if (c == '{') {
            ++_pos;
            v.kind = Value::Kind::Object;
            skipWs();
            if (consume('}'))
                return v;
            for (;;) {
                auto key = parseString();
                if (!key || !consume(':'))
                    return std::nullopt;
                auto member = parseValue();
                if (!member)
                    return std::nullopt;
                v.object.emplace_back(std::move(*key),
                                      std::move(*member));
                if (consume(','))
                    continue;
                if (consume('}'))
                    return v;
                return std::nullopt;
            }
        }
        if (c == '[') {
            ++_pos;
            v.kind = Value::Kind::Array;
            skipWs();
            if (consume(']'))
                return v;
            for (;;) {
                auto item = parseValue();
                if (!item)
                    return std::nullopt;
                v.array.push_back(std::move(*item));
                if (consume(','))
                    continue;
                if (consume(']'))
                    return v;
                return std::nullopt;
            }
        }
        if (c == '"') {
            auto s = parseString();
            if (!s)
                return std::nullopt;
            v.kind = Value::Kind::String;
            v.str = std::move(*s);
            return v;
        }
        if (literal("true")) {
            v.kind = Value::Kind::Bool;
            v.boolean = true;
            return v;
        }
        if (literal("false")) {
            v.kind = Value::Kind::Bool;
            v.boolean = false;
            return v;
        }
        if (literal("null"))
            return v;
        // Number.
        double number = 0.0;
        auto [p, ec] = std::from_chars(
            _text.data() + _pos, _text.data() + _text.size(),
            number);
        if (ec != std::errc() || p == _text.data() + _pos)
            return std::nullopt;
        _pos = static_cast<size_t>(p - _text.data());
        v.kind = Value::Kind::Number;
        v.number = number;
        return v;
    }

    std::string_view _text;
    size_t _pos = 0;
};

} // namespace

const Value *
Value::find(std::string_view key) const
{
    if (kind != Kind::Object)
        return nullptr;
    for (const auto &[k, v] : object) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

std::optional<Value>
Value::parse(std::string_view text)
{
    return Parser(text).document();
}

} // namespace hypersio::json
