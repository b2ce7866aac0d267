// EXTENSION (not in the paper): a hybrid scheduler that chooses, per
// request, between the on-site and the off-site backup scheme.
//
// Section I of the paper frames the two schemes as a trade-off — on-site
// gives fast local failover but is capped by the cloudlet's own
// reliability; off-site survives cloudlet failures but pays inter-cloudlet
// traffic. A provider running both can pick whichever is cheaper *at
// current prices* for each request:
//
//   1. Quote the best on-site option with Algorithm 1's quote_onsite over
//      the on-site duals.
//   2. Quote the best off-site site set with Algorithm 2's quote_offsite
//      over the off-site duals, and cost it at those duals:
//      sum_{j in S} c(f_i) sum_t lambda^off_tj.
//   3. Admit via the affordable option with the larger profit
//      pay_i - price, committing it with that scheme's commit step (so
//      only the chosen scheme's duals move, with the same saturation).
//
// Both schemes share one capacity ledger (a cloudlet's compute serves both
// kinds of placements), which is always enforced. Each dual table runs at
// its scheme's automatic capacity scale.
#pragma once

#include <string_view>

#include "core/dual_limits.hpp"
#include "core/instance.hpp"
#include "core/schedule.hpp"
#include "edge/resource_ledger.hpp"
#include "vnf/reliability.hpp"

namespace vnfr::core {

class HybridPrimalDual final : public OnlineScheduler {
  public:
    /// Keeps a reference to `instance`; the caller must keep it alive.
    explicit HybridPrimalDual(const Instance& instance);

    /// A request neither scheme admits is rejected as kInfeasibleRequirement
    /// only when both schemes call it infeasible, kPricedOut when either
    /// scheme found a placement or rejects it on price, and kNoCapacity
    /// otherwise.
    Decision decide(const workload::Request& request) override;
    [[nodiscard]] const edge::ResourceLedger& ledger() const override { return ledger_; }
    [[nodiscard]] std::string_view name() const override { return "hybrid-primal-dual"; }

    /// How many admissions went to each scheme so far.
    [[nodiscard]] std::size_t onsite_admissions() const { return onsite_admissions_; }
    [[nodiscard]] std::size_t offsite_admissions() const { return offsite_admissions_; }

  private:
    const Instance& instance_;
    vnf::OffsiteLogTable log_failure_;  ///< for the off-site quote and commit
    edge::ResourceLedger ledger_;
    double onsite_scale_;
    double offsite_scale_;
    DualTable lambda_onsite_;
    DualTable lambda_offsite_;
    std::size_t onsite_admissions_{0};
    std::size_t offsite_admissions_{0};
};

}  // namespace vnfr::core
