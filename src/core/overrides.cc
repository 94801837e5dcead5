#include "core/overrides.hh"

#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>

#include "util/logging.hh"
#include "util/str.hh"

namespace hypersio::core
{

namespace
{

/** One "key=value" being applied, and where it came from. */
struct Setting
{
    const std::string &key;
    const std::string &value;
    /** "path:line: " for a config-file line, empty for --set. */
    const std::string &origin;

    [[noreturn]] void
    reject(const char *why) const
    {
        fatal("%soverride %s: '%s' %s", origin.c_str(), key.c_str(),
              value.c_str(), why);
    }
};

using Setter = void (*)(SystemConfig &, const Setting &);

uint64_t
parseU64OrDie(const Setting &s)
{
    uint64_t out = 0;
    if (!parseU64(s.value, out))
        s.reject("is not an unsigned integer");
    return out;
}

unsigned
parseU32OrDie(const Setting &s)
{
    const uint64_t out = parseU64OrDie(s);
    if (out > std::numeric_limits<uint32_t>::max())
        s.reject("does not fit in 32 bits");
    return static_cast<unsigned>(out);
}

/** A latency in ns, as ticks. */
Tick
parseNsOrDie(const Setting &s)
{
    const uint64_t ns = parseU64OrDie(s);
    if (ns > MaxTick / TicksPerNs)
        s.reject("ns overflows the tick range");
    return ns * TicksPerNs;
}

bool
parseBoolOrDie(const Setting &s)
{
    const std::string &v = s.value;
    if (v == "1" || v == "true" || v == "on" || v == "yes")
        return true;
    if (v == "0" || v == "false" || v == "off" || v == "no")
        return false;
    s.reject("is not a boolean");
}

cache::ReplPolicyKind
parsePolicyOrDie(const Setting &s)
{
    cache::ReplPolicyKind kind;
    if (!cache::parseReplPolicy(s.value, kind))
        s.reject("is not a replacement policy "
                 "(lru|lfu|fifo|random|oracle)");
    return kind;
}

/**
 * The link's default arrival slot must be a whole tick or more and
 * fit a Tick. Checked after either of its two keys is set, so the
 * last one applied checks the final pair.
 */
void
checkLinkSlot(const Setting &s, const LinkConfig &link)
{
    const double ticks =
        static_cast<double>(link.packetBytes) * 8.0 / link.gbps *
        TicksPerNs;
    if (!(ticks >= 1.0 && ticks < 0x1p63))
        s.reject("gives an arrival slot under 1 tick or past the "
                 "tick range");
}

/** The authoritative key table. */
const std::vector<std::pair<std::string, Setter>> &
setters()
{
    static const std::vector<std::pair<std::string, Setter>> table = {
        {"link.gbps",
         [](SystemConfig &c, const Setting &s) {
             double gbps = 0.0;
             if (!parseDouble(s.value, gbps) || !std::isfinite(gbps) ||
                 gbps <= 0.0)
                 s.reject("is not a positive finite number");
             c.link.gbps = gbps;
             checkLinkSlot(s, c.link);
         }},
        {"link.packet_bytes",
         [](SystemConfig &c, const Setting &s) {
             c.link.packetBytes = parseU32OrDie(s);
             if (c.link.packetBytes == 0)
                 s.reject("must be at least 1");
             checkLinkSlot(s, c.link);
         }},
        {"pcie.oneway_ns",
         [](SystemConfig &c, const Setting &s) {
             c.pcieOneWay = parseNsOrDie(s);
         }},
        {"dram.latency_ns",
         [](SystemConfig &c, const Setting &s) {
             c.memory.accessLatency = parseNsOrDie(s);
         }},
        {"dram.max_outstanding",
         [](SystemConfig &c, const Setting &s) {
             c.memory.maxOutstanding = parseU32OrDie(s);
         }},
        {"ptb.entries",
         [](SystemConfig &c, const Setting &s) {
             c.device.ptbEntries = parseU32OrDie(s);
         }},
        {"devtlb.entries",
         [](SystemConfig &c, const Setting &s) {
             c.device.devtlb.entries = parseU64OrDie(s);
         }},
        {"devtlb.ways",
         [](SystemConfig &c, const Setting &s) {
             c.device.devtlb.ways = parseU64OrDie(s);
         }},
        {"devtlb.partitions",
         [](SystemConfig &c, const Setting &s) {
             c.device.devtlb.partitions = parseU64OrDie(s);
         }},
        {"devtlb.policy",
         [](SystemConfig &c, const Setting &s) {
             c.device.devtlb.policy = parsePolicyOrDie(s);
         }},
        {"devtlb.hit_ns",
         [](SystemConfig &c, const Setting &s) {
             c.device.devtlbHitLatency = parseNsOrDie(s);
         }},
        {"devtlb.lfu_bits",
         [](SystemConfig &c, const Setting &s) {
             c.device.devtlb.lfuBits = parseU32OrDie(s);
         }},
        {"iotlb.entries",
         [](SystemConfig &c, const Setting &s) {
             c.iommu.iotlb.entries = parseU64OrDie(s);
         }},
        {"iotlb.ways",
         [](SystemConfig &c, const Setting &s) {
             c.iommu.iotlb.ways = parseU64OrDie(s);
         }},
        {"iotlb.policy",
         [](SystemConfig &c, const Setting &s) {
             c.iommu.iotlb.policy = parsePolicyOrDie(s);
         }},
        {"iotlb.hashed",
         [](SystemConfig &c, const Setting &s) {
             c.iommu.iotlb.hashIndex = parseBoolOrDie(s);
         }},
        {"l2tlb.entries",
         [](SystemConfig &c, const Setting &s) {
             c.iommu.l2tlb.entries = parseU64OrDie(s);
         }},
        {"l2tlb.ways",
         [](SystemConfig &c, const Setting &s) {
             c.iommu.l2tlb.ways = parseU64OrDie(s);
         }},
        {"l2tlb.partitions",
         [](SystemConfig &c, const Setting &s) {
             c.iommu.l2tlb.partitions = parseU64OrDie(s);
         }},
        {"l3tlb.entries",
         [](SystemConfig &c, const Setting &s) {
             c.iommu.l3tlb.entries = parseU64OrDie(s);
         }},
        {"l3tlb.ways",
         [](SystemConfig &c, const Setting &s) {
             c.iommu.l3tlb.ways = parseU64OrDie(s);
         }},
        {"l3tlb.partitions",
         [](SystemConfig &c, const Setting &s) {
             c.iommu.l3tlb.partitions = parseU64OrDie(s);
         }},
        {"iommu.walkers",
         [](SystemConfig &c, const Setting &s) {
             c.iommu.walkers = parseU32OrDie(s);
         }},
        {"iommu.paging_levels",
         [](SystemConfig &c, const Setting &s) {
             c.iommu.pagingLevels = parseU32OrDie(s);
         }},
        {"prefetch.enabled",
         [](SystemConfig &c, const Setting &s) {
             c.device.prefetch.enabled = parseBoolOrDie(s);
         }},
        {"prefetch.buffer",
         [](SystemConfig &c, const Setting &s) {
             c.device.prefetch.bufferEntries = parseU32OrDie(s);
         }},
        {"prefetch.history",
         [](SystemConfig &c, const Setting &s) {
             c.device.prefetch.historyLength = parseU32OrDie(s);
         }},
        {"prefetch.pages",
         [](SystemConfig &c, const Setting &s) {
             c.device.prefetch.pagesPerPrefetch = parseU32OrDie(s);
         }},
        {"seed",
         [](SystemConfig &c, const Setting &s) {
             c.seed = parseU64OrDie(s);
         }},
    };
    return table;
}

/** Applies `text`; every fatal() it raises starts with `origin`. */
void
applyOverrideFrom(SystemConfig &config, const std::string &text,
                  const std::string &origin)
{
    const size_t eq = text.find('=');
    if (eq == std::string::npos)
        fatal("%soverride '%s' is not of the form key=value",
              origin.c_str(), text.c_str());
    const std::string key(trim(text.substr(0, eq)));
    const std::string value(trim(text.substr(eq + 1)));
    for (const auto &[name, setter] : setters()) {
        if (name == key) {
            setter(config, Setting{key, value, origin});
            return;
        }
    }
    fatal("%sunknown configuration key '%s' (see "
          "supportedOverrideKeys())",
          origin.c_str(), key.c_str());
}

} // namespace

void
applyOverride(SystemConfig &config, const std::string &text)
{
    applyOverrideFrom(config, text, "");
}

void
applyOverrides(SystemConfig &config,
               const std::vector<std::string> &overrides)
{
    for (const auto &text : overrides)
        applyOverride(config, text);
}

void
loadConfigFile(SystemConfig &config, const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open config file '%s'", path.c_str());
    std::string line;
    unsigned lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        const size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.resize(hash);
        const std::string_view body = trim(line);
        if (body.empty())
            continue;
        applyOverrideFrom(config, std::string(body),
                          strprintf("%s:%u: ", path.c_str(), lineno));
    }
}

std::vector<std::string>
supportedOverrideKeys()
{
    std::vector<std::string> keys;
    keys.reserve(setters().size());
    for (const auto &[name, setter] : setters())
        keys.push_back(name);
    return keys;
}

} // namespace hypersio::core
