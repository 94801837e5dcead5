/**
 * @file
 * Shadow-mode hook macro for the timed model.
 *
 * Instrumented code reports events as
 *
 *     HYPERSIO_SHADOW(deviceDevtlbLookup(sid, did, iova, size,
 *                                        set, hit, value));
 *
 * The hooks are always compiled in. Each forwards the call to the
 * current thread's ShadowChecker when one is installed, and the
 * arguments are evaluated only then, so even O(entries) snapshot
 * arguments cost nothing while no checker is active. With none
 * installed a hook is one inline thread-local load and a branch.
 */

#ifndef HYPERSIO_ORACLE_HOOKS_HH
#define HYPERSIO_ORACLE_HOOKS_HH

#include "oracle/shadow.hh"

#define HYPERSIO_SHADOW(call)                                         \
    do {                                                              \
        if (::hypersio::oracle::ShadowChecker *shadow_ =              \
                ::hypersio::oracle::shadowChecker())                  \
            shadow_->call;                                            \
    } while (0)

#endif // HYPERSIO_ORACLE_HOOKS_HH
