// Per-(cloudlet, time-slot) computing-resource accounting.
//
// Constraint (4)/(9) of the paper: in every slot the sum of demands placed
// on a cloudlet must not exceed cap_j. Algorithm 2 and all baselines
// enforce this at admission time; the *pure* Algorithm 1 is allowed bounded
// violations (Lemma 8), so the ledger supports a recording mode that admits
// overshoot and keeps track of its peak for comparison against the bound.
#pragma once

#include <cstddef>
#include <vector>

#include "common/types.hpp"

namespace vnfr::edge {

/// Whether reservations beyond capacity are rejected or recorded.
enum class CapacityPolicy {
    kEnforce, ///< reserve() fails when any slot would exceed capacity
    kRecord,  ///< reserve() always succeeds; overshoot is tracked
};

class ResourceLedger {
  public:
    /// `capacities[j]` is cap_j; `horizon` is T (number of slots).
    ResourceLedger(std::vector<double> capacities, TimeSlot horizon,
                   CapacityPolicy policy = CapacityPolicy::kEnforce);

    [[nodiscard]] std::size_t cloudlet_count() const { return capacities_.size(); }
    [[nodiscard]] TimeSlot horizon() const { return horizon_; }
    [[nodiscard]] CapacityPolicy policy() const { return policy_; }

    /// True when `amount` more units fit in every slot of [begin, end).
    [[nodiscard]] bool fits(CloudletId c, TimeSlot begin, TimeSlot end, double amount) const;

    /// Reserve `amount` units in every slot of [begin, end). Under kEnforce
    /// returns false (and changes nothing) when it does not fit; under
    /// kRecord always succeeds. Throws std::invalid_argument on bad ranges,
    /// unknown cloudlets or negative amounts.
    bool reserve(CloudletId c, TimeSlot begin, TimeSlot end, double amount);

    /// Release a prior reservation. Throws std::logic_error if the release
    /// would drive usage negative (releasing more than was reserved).
    void release(CloudletId c, TimeSlot begin, TimeSlot end, double amount);

    [[nodiscard]] double usage(CloudletId c, TimeSlot t) const;
    [[nodiscard]] double residual(CloudletId c, TimeSlot t) const;
    [[nodiscard]] double capacity(CloudletId c) const;

    /// Largest usage-over-capacity across all slots for cloudlet c (>= 0).
    [[nodiscard]] double peak_overshoot(CloudletId c) const;

    /// Largest overshoot across all cloudlets.
    [[nodiscard]] double max_overshoot() const;

    /// The raw row-major [cloudlet][slot] usage table — the ledger half of
    /// a scheduler state export.
    [[nodiscard]] const std::vector<double>& usage_table() const { return usage_; }

    /// Replace the usage table wholesale (state import). Validates the
    /// size and that every cell is finite and non-negative; under kEnforce
    /// additionally that no cell exceeds its cloudlet's capacity (with the
    /// same epsilon fits() uses). Throws std::invalid_argument, leaving
    /// the ledger untouched, on any violation.
    void restore_usage(std::vector<double> usage);

  private:
    void check_range(CloudletId c, TimeSlot begin, TimeSlot end, double amount) const;
    [[nodiscard]] double& cell(CloudletId c, TimeSlot t);
    [[nodiscard]] const double& cell(CloudletId c, TimeSlot t) const;

    std::vector<double> capacities_;
    TimeSlot horizon_;
    CapacityPolicy policy_;
    std::vector<double> usage_;  ///< row-major [cloudlet][slot]
};

}  // namespace vnfr::edge
