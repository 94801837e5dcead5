#include "util/str.hh"

#include <cctype>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace hypersio
{

std::vector<std::string>
split(std::string_view text, char sep)
{
    std::vector<std::string> out;
    size_t start = 0;
    for (size_t i = 0; i <= text.size(); ++i) {
        if (i == text.size() || text[i] == sep) {
            out.emplace_back(text.substr(start, i - start));
            start = i + 1;
        }
    }
    return out;
}

std::string_view
trim(std::string_view text)
{
    size_t begin = 0;
    size_t end = text.size();
    while (begin < end && std::isspace(static_cast<unsigned char>(
                              text[begin]))) {
        ++begin;
    }
    while (end > begin && std::isspace(static_cast<unsigned char>(
                              text[end - 1]))) {
        --end;
    }
    return text.substr(begin, end - begin);
}

bool
parseU64(std::string_view text, uint64_t &out)
{
    text = trim(text);
    if (text.empty())
        return false;

    uint64_t multiplier = 1;
    char suffix = static_cast<char>(
        std::tolower(static_cast<unsigned char>(text.back())));
    if (suffix == 'k' || suffix == 'm' || suffix == 'g') {
        multiplier = suffix == 'k'   ? (uint64_t(1) << 10)
                     : suffix == 'm' ? (uint64_t(1) << 20)
                                     : (uint64_t(1) << 30);
        text.remove_suffix(1);
        if (text.empty())
            return false;
    }

    std::string buf(text);
    char *end = nullptr;
    errno = 0;
    uint64_t value = std::strtoull(buf.c_str(), &end, 0);
    if (errno != 0 || end == buf.c_str() || *end != '\0')
        return false;
    out = value * multiplier;
    return true;
}

bool
parseDouble(std::string_view text, double &out)
{
    std::string buf(trim(text));
    if (buf.empty())
        return false;
    char *end = nullptr;
    errno = 0;
    double value = std::strtod(buf.c_str(), &end);
    if (errno != 0 || end == buf.c_str() || *end != '\0')
        return false;
    out = value;
    return true;
}

namespace
{

/** Strict parse of one "<key>   <n> kB" line in a status blob. */
bool
parseStatusKib(std::string_view status_text, std::string_view key,
               uint64_t &out)
{
    size_t pos = 0;
    while (pos < status_text.size()) {
        size_t eol = status_text.find('\n', pos);
        if (eol == std::string_view::npos)
            eol = status_text.size();
        const std::string_view line =
            status_text.substr(pos, eol - pos);
        if (line.substr(0, key.size()) == key) {
            // Field format: "VmHWM:   123456 kB". Reject anything
            // that is not a plain decimal count in kB.
            const std::string_view rest =
                trim(line.substr(key.size()));
            const size_t sep = rest.find_first_of(" \t");
            if (sep == std::string_view::npos)
                return false;
            uint64_t kib = 0;
            if (!parseU64(rest.substr(0, sep), kib))
                return false;
            if (trim(rest.substr(sep)) != "kB")
                return false;
            out = kib;
            return true;
        }
        pos = eol + 1;
    }
    return false;
}

} // namespace

bool
parseVmHwmKib(std::string_view status_text, uint64_t &out)
{
    return parseStatusKib(status_text, "VmHWM:", out);
}

bool
parseVmRssKib(std::string_view status_text, uint64_t &out)
{
    return parseStatusKib(status_text, "VmRSS:", out);
}

std::string
vstrprintf(const char *fmt, va_list args)
{
    va_list copy;
    va_copy(copy, args);
    int len = std::vsnprintf(nullptr, 0, fmt, copy);
    va_end(copy);

    std::string out;
    if (len > 0) {
        out.resize(static_cast<size_t>(len));
        std::vsnprintf(out.data(), out.size() + 1, fmt, args);
    }
    return out;
}

std::string
strprintf(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string out = vstrprintf(fmt, args);
    va_end(args);
    return out;
}

std::string
formatBytes(uint64_t bytes)
{
    static const char *suffixes[] = {"B", "KiB", "MiB", "GiB", "TiB"};
    int idx = 0;
    double value = static_cast<double>(bytes);
    while (value >= 1024.0 && idx < 4) {
        value /= 1024.0;
        ++idx;
    }
    if (idx == 0)
        return strprintf("%llu%s", (unsigned long long)bytes,
                         suffixes[idx]);
    return strprintf("%.1f%s", value, suffixes[idx]);
}

} // namespace hypersio
