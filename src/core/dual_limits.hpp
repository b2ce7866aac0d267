// Dual-price tables and the saturating multiplicative update that
// Algorithms 1 and 2 share.
//
// Eq. 34 / Eq. 67 grow lambda_{tj} by a factor > 1 on every admission plus
// an additive term proportional to the payment. On long traces that pound
// a single cloudlet with escalating payments the recursion is unbounded:
// left alone it overflows to +inf, after which every price comparison in
// decide() degenerates (pay - inf <= 0 rejects everything forever, and a
// release build without DCHECKs would never notice).
//
// Saturating at kDualPriceCeiling is behaviour-preserving for any real
// workload: payments are bounded by the double range, and a slot whose
// lambda has reached 1e30 already prices out every representable payment
// (price >= demand * lambda with demand >= 1), so values beyond the
// ceiling carry no additional information. The ceiling leaves ample
// headroom for the price summation over a request window (demand ~ 1e3,
// duration ~ 1e3 slots => price <= ~1e36, comfortably finite).
#pragma once

#include <cstddef>
#include <vector>

#include "common/contracts.hpp"
#include "common/types.hpp"

namespace vnfr::core {

inline constexpr double kDualPriceCeiling = 1e30;

/// Dual prices lambda_{tj}, indexed [cloudlet][slot].
using DualTable = std::vector<std::vector<double>>;

/// lambda_t <- min(lambda_t * mult + add, kDualPriceCeiling) for every slot
/// t in [begin, end) of one cloudlet's row. Eq. 34 and Eq. 67 both have
/// mult > 1 and add > 0, so the row stays non-negative and non-decreasing.
inline void bump_duals(std::vector<double>& row, TimeSlot begin, TimeSlot end, double mult,
                       double add) {
    for (TimeSlot t = begin; t < end; ++t) {
        double& value = row[static_cast<std::size_t>(t)];
        double updated = value * mult + add;
        // !(x < c) also catches an inf/NaN intermediate.
        if (!(updated < kDualPriceCeiling)) updated = kDualPriceCeiling;
        value = VNFR_CHECK_FINITE(updated);
        VNFR_DCHECK(value >= 0.0, "dual update drove lambda(", t, ") negative");
    }
}

}  // namespace vnfr::core
