#include "cache/replacement.hh"

namespace hypersio::cache
{

bool
parseReplPolicy(const std::string &name, ReplPolicyKind &out)
{
    if (name == "lru" || name == "LRU")
        out = ReplPolicyKind::LRU;
    else if (name == "lfu" || name == "LFU")
        out = ReplPolicyKind::LFU;
    else if (name == "fifo" || name == "FIFO")
        out = ReplPolicyKind::FIFO;
    else if (name == "random" || name == "rand")
        out = ReplPolicyKind::Random;
    else if (name == "oracle" || name == "belady")
        out = ReplPolicyKind::Oracle;
    else
        return false;
    return true;
}

const char *
replPolicyName(ReplPolicyKind kind)
{
    switch (kind) {
      case ReplPolicyKind::LRU:
        return "lru";
      case ReplPolicyKind::LFU:
        return "lfu";
      case ReplPolicyKind::FIFO:
        return "fifo";
      case ReplPolicyKind::Random:
        return "random";
      case ReplPolicyKind::Oracle:
        return "oracle";
    }
    panic("unreachable replacement policy kind");
}

std::unique_ptr<ReplacementPolicy>
makePolicy(ReplPolicyKind kind, uint64_t seed, unsigned lfu_bits)
{
    switch (kind) {
      case ReplPolicyKind::LRU:
        return std::make_unique<LruPolicy>();
      case ReplPolicyKind::LFU:
        return std::make_unique<LfuPolicy>(lfu_bits);
      case ReplPolicyKind::FIFO:
        return std::make_unique<FifoPolicy>();
      case ReplPolicyKind::Random:
        return std::make_unique<RandomPolicy>(seed);
      case ReplPolicyKind::Oracle:
        fatal("oracle policy needs a FutureOracle; construct "
              "OraclePolicy directly");
    }
    panic("unreachable replacement policy kind");
}

} // namespace hypersio::cache
