/**
 * @file
 * Deliberate model-corruption knobs for validating the shadow
 * oracle. Tests flip a knob, run a checked simulation, and assert
 * that the oracle reports the planted bug — proving the differential
 * harness actually detects the failure class it claims to cover.
 *
 * The injection sites are always compiled in. With every knob off,
 * each costs one inline load of a constant-initialised static and a
 * branch.
 */

#ifndef HYPERSIO_ORACLE_FAULT_INJECTION_HH
#define HYPERSIO_ORACLE_FAULT_INJECTION_HH

namespace hypersio::oracle
{

/** Global fault-injection switches (all off by default). */
struct FaultInjection
{
    /**
     * Corrupts the DevTLB PTag mask: the partition tag is masked
     * with `partitions` instead of `partitions - 1`, collapsing
     * every SID into row group 0 — the classic off-by-one the
     * P-DevTLB row-legality check must catch.
     */
    bool devtlbPtagOffByOne = false;
};

/** The process-wide injection state. */
inline FaultInjection &
faultInjection()
{
    static constinit FaultInjection injection;
    return injection;
}

/** RAII guard: saves the injection state and restores it on exit. */
class FaultInjectionScope
{
  public:
    FaultInjectionScope() : _saved(faultInjection()) {}
    ~FaultInjectionScope() { faultInjection() = _saved; }
    FaultInjectionScope(const FaultInjectionScope &) = delete;
    FaultInjectionScope &
    operator=(const FaultInjectionScope &) = delete;

  private:
    FaultInjection _saved;
};

} // namespace hypersio::oracle

#endif // HYPERSIO_ORACLE_FAULT_INJECTION_HH
