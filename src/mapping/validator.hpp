// Mapping validator: the executable form of the §II-C problem
// statement. EVERY mapper's output must pass this before it counts —
// the property tests and every bench harness enforce it.
//
// Checks:
//  (1) every non-folded op is bound to a capability-compatible cell
//      within the schedule, and II fits the configuration memory;
//  (2) FU exclusivity: one op per (cell, time mod II);
//  (3) memory-bank ports are not oversubscribed in any slot;
//  (4) every data edge has a route that starts at the producer's latch,
//      follows real MRRG links with their latencies, ends in a hold the
//      consumer's FU can read at its exact issue cycle (loop-carried
//      edges shifted by II*distance), and ordering edges are respected;
//  (5) no HOLD/RT resource exceeds capacity in any slot, counting
//      modulo self-overlap and net sharing correctly.
#pragma once

#include <cstddef>

#include "arch/arch.hpp"
#include "ir/dfg.hpp"
#include "mapping/mapping.hpp"
#include "support/status.hpp"

namespace cgra {

/// Checks `mapping` of `dfg` against `arch` and its MRRG
/// (arch.mrrg(), built on first use only once the checks that need no
/// MRRG have passed). The first failed check decides the error.
Status ValidateMapping(const Dfg& dfg, const Architecture& arch,
                       const Mapping& mapping);

}  // namespace cgra
