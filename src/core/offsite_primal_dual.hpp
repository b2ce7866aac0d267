// Algorithm 2 of the paper: online primal-dual scheduling for the VNF
// service reliability problem under the OFF-SITE backup scheme (one VNF
// instance per selected cloudlet, geographically separated backups).
//
// Per request rho_i:
//   1. For every cloudlet c_j compute the normalized dual price
//          w_j = sum_{t in window} lambda_{tj} / (-ln(1 - r(f_i) r(c_j))).
//      Prune cloudlets with pay_i + ln(1-R_i) * c(f_i) * w_j <= 0
//      (lines 3-8): their price already exceeds what the payment supports.
//   2. Scan surviving cloudlets in non-decreasing w_j order, adding each
//      one with enough residual capacity over the request's window to the
//      site set S(i), until 1 - prod_{j in S} (1 - r(f_i) r(c_j)) >= R_i
//      (lines 9-17).
//   3. If the requirement is met, admit: reserve c(f_i) units per site and
//      bump the duals of every selected cloudlet's window (Eq. 67):
//          lambda_{tj} <- lambda_{tj} * (1 + ln(1-R_i) c / (ln(1-r_f r_c) cap_j))
//                         + ln(1-R_i) c pay / (ln(1-r_f r_c) d cap_j).
//      Both fractions are positive (negative over negative). Otherwise
//      reject without touching any state.
//
// Capacity is always enforced (Theorem 2: no violations), so the ledger
// runs in kEnforce mode.
//
// decide() is quote_offsite (steps 1-2, read-only) followed, on admission,
// by commit_offsite (step 3). Both take the dual table and ledger as
// arguments so HybridPrimalDual prices its off-site side with the same code.
// Every ln(1 - r_f r_c) they use is read from a vnf::OffsiteLogTable built
// once with the scheduler (one row per catalog type, one entry per
// cloudlet of the instance).
#pragma once

#include <string_view>
#include <vector>

#include "core/dual_limits.hpp"
#include "core/instance.hpp"
#include "core/schedule.hpp"
#include "edge/resource_ledger.hpp"
#include "vnf/reliability.hpp"

namespace vnfr::core {

/// Algorithm 2's pricing of one request at the duals `lambda` (steps 1-2).
struct OffsiteQuote {
    /// S(i) in selection order, one instance per cloudlet; empty unless
    /// the verdict is kNone.
    std::vector<Site> sites;
    /// kNone when S(i) meets R_i (admit); otherwise why Algorithm 2
    /// rejects: even every cloudlet together misses R_i, the price
    /// pruning left too little reliability, or residual capacity did.
    RejectReason verdict{RejectReason::kNone};
};

/// Steps 1-2: prune cloudlets on w_j at `lambda`, then scan the rest in
/// non-decreasing w_j order, taking each with room for c(f_i) over the
/// window in `ledger`, until the Eq. 10 product meets R_i. Reads nothing
/// but its arguments.
[[nodiscard]] OffsiteQuote quote_offsite(const Instance& instance,
                                         const vnf::OffsiteLogTable& log_failure,
                                         const DualTable& lambda,
                                         const edge::ResourceLedger& ledger,
                                         const workload::Request& request);

/// Step 3 for a quote with verdict kNone: reserve c(f_i) on every site and
/// apply Eq. 67 over the window against `dual_scale * cap_j`, saturating
/// at kDualPriceCeiling.
void commit_offsite(const Instance& instance, const vnf::OffsiteLogTable& log_failure,
                    DualTable& lambda, edge::ResourceLedger& ledger, double dual_scale,
                    const workload::Request& request, const OffsiteQuote& quote);

/// Catalog-level estimate of the typical off-site demand: c(f) times the
/// expected number of sites ln(1-R)/ln(1 - r_f r_c) at a representative
/// requirement, with ln(1 - r_f r_c) read from `log_failure`. The
/// automatic dual capacity scale; uses no knowledge of the request
/// sequence.
[[nodiscard]] double offsite_typical_demand(const Instance& instance,
                                            const vnf::OffsiteLogTable& log_failure);

struct OffsitePrimalDualConfig {
    /// Analogue of the on-site scaling approach: dual updates run against
    /// `dual_capacity_scale * cap_j` so the literal Eq. 67 prices (which
    /// would otherwise saturate a slot well below capacity) fill the real,
    /// always-enforced capacity. 0 (default) derives the scale from the
    /// catalog; 1 reproduces Eq. 67 verbatim.
    double dual_capacity_scale{0.0};
};

class OffsitePrimalDual final : public OnlineScheduler {
  public:
    /// Keeps a reference to `instance`; the caller must keep it alive.
    explicit OffsitePrimalDual(const Instance& instance,
                               OffsitePrimalDualConfig config = {});

    Decision decide(const workload::Request& request) override;
    [[nodiscard]] const edge::ResourceLedger& ledger() const override { return ledger_; }
    [[nodiscard]] std::string_view name() const override { return "offsite-primal-dual"; }

    /// Dual price lambda_{tj}, exposed for invariant tests.
    [[nodiscard]] double lambda(CloudletId j, TimeSlot t) const;

    /// The normalized price w_j of `request` on cloudlet j (step 1 above).
    [[nodiscard]] double normalized_price(const workload::Request& request,
                                          CloudletId j) const;

    /// The capacity scale actually used in the dual updates.
    [[nodiscard]] double dual_capacity_scale() const { return dual_scale_; }

    /// State export/import for the serve layer's crash-consistent
    /// checkpointing: decide() is a deterministic function of (instance,
    /// config, lambda, ledger usage), so a restored scheduler reproduces
    /// every future decision bit-identically.
    [[nodiscard]] bool supports_state_io() const override { return true; }
    [[nodiscard]] SchedulerState export_state() const override;
    void import_state(const SchedulerState& state) override;

  private:
    const Instance& instance_;
    vnf::OffsiteLogTable log_failure_;
    edge::ResourceLedger ledger_;
    double dual_scale_{1.0};
    DualTable lambda_;
};

}  // namespace vnfr::core
