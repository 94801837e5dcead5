/**
 * Deterministic trace fuzzer for the translation path.
 *
 * Replays the adversarial interleavings of workload/adversarial.hh
 * through full System runs with a collecting shadow oracle installed
 * (oracle/shadow.hh) and asserts that not a single invariant breaks.
 * Every run prints a repro line; to replay a failure, re-run with
 *
 *   HYPERSIO_FUZZ_SEED=<seed> ./fuzz_translation
 *
 * Environment knobs (all optional):
 *   HYPERSIO_FUZZ_SEED     base seed (default 20260805)
 *   HYPERSIO_FUZZ_PACKETS  packets per run (default 150)
 *   HYPERSIO_FUZZ_ROUNDS   seeds fuzzed per pattern (default 1)
 *
 * scripts/check_repo.sh runs a longer campaign by raising PACKETS
 * and ROUNDS; the default ctest invocation is a bounded smoke.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "core/system.hh"
#include "oracle/shadow.hh"
#include "system_variants.hh"
#include "workload/adversarial.hh"
#include "workload/streaming.hh"

namespace hypersio::core
{
namespace
{

uint64_t
envOr(const char *name, uint64_t fallback)
{
    const char *value = std::getenv(name);
    return value ? std::strtoull(value, nullptr, 10) : fallback;
}

/** One fuzzed run; returns translation requests checked. */
uint64_t
fuzzOne(workload::AdversarialPattern pattern,
        const SystemVariant &variant, uint64_t seed,
        uint64_t packets)
{
    workload::AdversarialConfig tc;
    tc.tenants = 6;
    tc.packets = packets;
    tc.seed = seed;
    const trace::HyperTrace tr =
        workload::makeAdversarialTrace(pattern, tc);

    SystemConfig config = variant.make();
    config.seed = seed;
    System system(config);

    std::printf("fuzz: pattern=%s config=%s seed=%llu packets=%llu\n",
                workload::adversarialPatternName(pattern),
                variant.name, (unsigned long long)seed,
                (unsigned long long)packets);

    // Collecting checker: gather every violation instead of dying on
    // the first, so a failure reports the full picture.
    oracle::ShadowChecker checker(toShadowConfig(config),
                                  &system.tables(),
                                  /*fail_fast=*/false);
    RunResults results;
    {
        oracle::ShadowScope scope(checker);
        results = system.run(tr);
    }

    EXPECT_EQ(results.packetsProcessed, tr.packets.size());
    EXPECT_GT(checker.eventCount(), 0u)
        << "shadow hooks never fired";
    EXPECT_GT(checker.translationChecks(), 0u);
    EXPECT_EQ(checker.violationCount(), 0u);
    for (const auto &violation : checker.violations()) {
        ADD_FAILURE() << "pattern="
                      << workload::adversarialPatternName(pattern)
                      << " config=" << variant.name
                      << " seed=" << seed << ": " << violation;
    }
    return checker.translationChecks();
}

TEST(FuzzTranslation, AdversarialPatternsUnderShadowOracle)
{
    const uint64_t base_seed = envOr("HYPERSIO_FUZZ_SEED", 20260805);
    const uint64_t packets = envOr("HYPERSIO_FUZZ_PACKETS", 150);
    const uint64_t rounds = envOr("HYPERSIO_FUZZ_ROUNDS", 1);

    uint64_t checked = 0;
    for (uint64_t round = 0; round < rounds; ++round) {
        for (const auto pattern : workload::AllAdversarialPatterns) {
            for (const auto &variant : Variants) {
                checked += fuzzOne(pattern, variant,
                                   base_seed + round, packets);
            }
        }
    }
    // The smoke run alone must exercise well over the 1000 fuzzed
    // requests the harness promises (8 patterns x 4 variants x 150
    // packets x 3 requests each).
    EXPECT_GE(checked, 1000u);
    std::printf("fuzz: %llu translation requests checked\n",
                (unsigned long long)checked);
}

/**
 * Streaming-churn fuzz: tenant arrival/departure storms through
 * runStream with eviction on. The eviction path (table erase, cache
 * retirement, SID recycling, retirement gating on in-flight work) is
 * the newest machinery in the translation path, so it gets fuzzed
 * under every system variant like the adversarial traces do.
 */
uint64_t
fuzzChurnOne(const SystemVariant &variant, uint64_t seed,
             uint64_t packets)
{
    workload::ChurnConfig cc;
    // Scale population so the run produces roughly `packets`
    // accepted packets under the small budgets below.
    cc.population =
        std::max<uint64_t>(8, packets / 24);
    cc.slots = 5;
    cc.seed = seed;
    cc.minBudget = 12;
    cc.maxBudget = 36;
    cc.tailProb = 0.1;
    cc.tailMin = 64;
    cc.tailMax = 160;

    SystemConfig config = variant.make();
    config.seed = seed;
    System system(config);

    std::printf("fuzz: pattern=churn-stream config=%s seed=%llu "
                "population=%u\n",
                variant.name, (unsigned long long)seed,
                cc.population);

    oracle::ShadowChecker checker(toShadowConfig(config),
                                  &system.tables(),
                                  /*fail_fast=*/false);
    workload::ChurnStream stream(cc);
    {
        oracle::ShadowScope scope(checker);
        system.runStream(stream);
    }

    EXPECT_GT(checker.eventCount(), 0u)
        << "shadow hooks never fired";
    EXPECT_GT(checker.translationChecks(), 0u);
    EXPECT_EQ(checker.violationCount(), 0u);
    for (const auto &violation : checker.violations()) {
        ADD_FAILURE() << "pattern=churn-stream config="
                      << variant.name << " seed=" << seed << ": "
                      << violation;
    }
    // Eviction invariants: everyone attached retired, nothing leaks.
    EXPECT_EQ(stream.attaches(), cc.population);
    EXPECT_EQ(system.streamRetirements().size(), cc.population);
    EXPECT_EQ(system.tables().size(), 0u);
    return checker.translationChecks();
}

TEST(FuzzTranslation, StreamingChurnUnderShadowOracle)
{
    const uint64_t base_seed = envOr("HYPERSIO_FUZZ_SEED", 20260805);
    const uint64_t packets = envOr("HYPERSIO_FUZZ_PACKETS", 150);
    const uint64_t rounds = envOr("HYPERSIO_FUZZ_ROUNDS", 1);

    uint64_t checked = 0;
    for (uint64_t round = 0; round < rounds; ++round)
        for (const auto &variant : Variants)
            checked += fuzzChurnOne(variant, base_seed + round,
                                    packets);
    EXPECT_GT(checked, 0u);
    std::printf("fuzz: %llu churn translation requests checked\n",
                (unsigned long long)checked);
}

/**
 * The generator itself must be deterministic in (pattern, config):
 * repro-from-seed depends on it. Runs in every build flavour.
 */
TEST(FuzzTranslation, TraceGenerationIsDeterministic)
{
    for (const auto pattern : workload::AllAdversarialPatterns) {
        workload::AdversarialConfig tc;
        tc.tenants = 4;
        tc.packets = 64;
        tc.seed = 7;
        const auto a = workload::makeAdversarialTrace(pattern, tc);
        const auto b = workload::makeAdversarialTrace(pattern, tc);
        ASSERT_EQ(a.packets.size(), b.packets.size());
        ASSERT_EQ(a.ops.size(), b.ops.size());
        for (size_t i = 0; i < a.packets.size(); ++i) {
            EXPECT_EQ(a.packets[i].sid, b.packets[i].sid);
            EXPECT_EQ(a.packets[i].dataIova, b.packets[i].dataIova);
            EXPECT_EQ(a.packets[i].opBegin, b.packets[i].opBegin);
            EXPECT_EQ(a.packets[i].opCount, b.packets[i].opCount);
        }
    }
}

/** Every pattern produces work for every tenant it claims. */
TEST(FuzzTranslation, PatternsCoverConfiguredTenants)
{
    for (const auto pattern : workload::AllAdversarialPatterns) {
        workload::AdversarialConfig tc;
        tc.tenants = 4;
        tc.packets = 200;
        tc.seed = 11;
        const auto tr = workload::makeAdversarialTrace(pattern, tc);
        EXPECT_EQ(tr.packets.size(), tc.packets);
        EXPECT_GE(tr.numTenants, tc.tenants);
        EXPECT_FALSE(tr.ops.empty());
    }
}

} // namespace
} // namespace hypersio::core
