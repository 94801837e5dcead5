#include "util/json.hh"

#include <charconv>
#include <cmath>
#include <cstdio>

namespace hypersio::json
{

std::string
escape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (unsigned char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    return out;
}

std::string
formatDouble(double v)
{
    // JSON has no inf/nan literals; clamp them to null-adjacent 0
    // rather than emitting an invalid document.
    if (!std::isfinite(v))
        return "0";
    char buf[32];
    auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
    if (ec != std::errc())
        return "0";
    return std::string(buf, ptr);
}

void
Writer::newline()
{
    if (_indent == 0)
        return;
    _os << '\n';
    for (size_t i = 0; i < _stack.size() * _indent; ++i)
        _os << ' ';
}

void
Writer::separate()
{
    if (_afterKey) {
        _afterKey = false;
        return;
    }
    if (_stack.empty())
        return;
    if (_stack.back().hasItems)
        _os << ',';
    _stack.back().hasItems = true;
    newline();
}

void
Writer::open(char c)
{
    separate();
    _os << c;
    _stack.push_back({});
}

void
Writer::close(char c)
{
    const bool had_items = _stack.back().hasItems;
    _stack.pop_back();
    if (had_items)
        newline();
    _os << c;
}

void
Writer::key(std::string_view k)
{
    separate();
    _os << '"' << escape(k) << '"' << ':';
    if (_indent > 0)
        _os << ' ';
    _afterKey = true;
}

void
Writer::value(double v)
{
    separate();
    _os << formatDouble(v);
}

void
Writer::value(uint64_t v)
{
    separate();
    _os << v;
}

void
Writer::value(int64_t v)
{
    separate();
    _os << v;
}

void
Writer::value(bool v)
{
    separate();
    _os << (v ? "true" : "false");
}

void
Writer::value(std::string_view v)
{
    separate();
    _os << '"' << escape(v) << '"';
}

void
Writer::null()
{
    separate();
    _os << "null";
}

void
Writer::raw(std::string_view text)
{
    separate();
    _os << text;
}

} // namespace hypersio::json
