/**
 * @file
 * Minimal JSON output: a streaming writer with automatic comma and
 * indentation handling.
 *
 * The writer emits doubles with std::to_chars (shortest
 * round-trippable form), so a value written, parsed, and re-read
 * compares bit-identical — the property the bench regression gate
 * (scripts/bench_compare.py) and the stats round-trip tests rely on.
 * The library reads no JSON; the tests' parser is
 * tests/json_value.hh.
 */

#ifndef HYPERSIO_UTIL_JSON_HH
#define HYPERSIO_UTIL_JSON_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace hypersio::json
{

/** Escapes a string's contents for use inside JSON quotes. */
std::string escape(std::string_view s);

/** Shortest round-trippable text for a double (to_chars). */
std::string formatDouble(double v);

/**
 * Streaming JSON writer. Call begin/end for containers, key() before
 * each object member, and value()/raw() for leaves; commas, quoting,
 * and indentation are handled automatically.
 *
 * An indent of 0 writes compact single-line JSON; any positive
 * indent pretty-prints with that many spaces per level.
 */
class Writer
{
  public:
    explicit Writer(std::ostream &os, unsigned indent = 2)
        : _os(os), _indent(indent)
    {}

    Writer(const Writer &) = delete;
    Writer &operator=(const Writer &) = delete;

    void beginObject() { open('{'); }
    void endObject() { close('}'); }
    void beginArray() { open('['); }
    void endArray() { close(']'); }

    /** Writes the member name of the next value. */
    void key(std::string_view k);

    void value(double v);
    void value(uint64_t v);
    void value(int64_t v);
    void value(int v) { value(static_cast<int64_t>(v)); }
    void value(unsigned v) { value(static_cast<uint64_t>(v)); }
    void value(bool v);
    void value(std::string_view v);
    void value(const char *v) { value(std::string_view(v)); }
    void null();

    /** Splices pre-serialized JSON in as the next value, verbatim. */
    void raw(std::string_view text);

  private:
    void open(char c);
    void close(char c);
    void separate();
    void newline();

    struct Level
    {
        bool hasItems = false;
    };

    std::ostream &_os;
    unsigned _indent;
    bool _afterKey = false;
    std::vector<Level> _stack;
};

} // namespace hypersio::json

#endif // HYPERSIO_UTIL_JSON_HH
