#include "edge/resource_ledger.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "common/contracts.hpp"

namespace vnfr::edge {

ResourceLedger::ResourceLedger(std::vector<double> capacities, TimeSlot horizon,
                               CapacityPolicy policy)
    : capacities_(std::move(capacities)), horizon_(horizon), policy_(policy) {
    if (horizon_ <= 0) throw std::invalid_argument("ResourceLedger: non-positive horizon");
    for (const double cap : capacities_) {
        if (cap <= 0.0) throw std::invalid_argument("ResourceLedger: non-positive capacity");
    }
    usage_.assign(capacities_.size() * static_cast<std::size_t>(horizon_), 0.0);
}

void ResourceLedger::check_range(CloudletId c, TimeSlot begin, TimeSlot end,
                                 double amount) const {
    if (!c.valid() || c.index() >= capacities_.size())
        throw std::invalid_argument("ResourceLedger: unknown cloudlet");
    if (begin < 0 || end > horizon_ || begin >= end)
        throw std::invalid_argument("ResourceLedger: bad slot range");
    if (amount < 0.0) throw std::invalid_argument("ResourceLedger: negative amount");
}

double& ResourceLedger::cell(CloudletId c, TimeSlot t) {
    return usage_[c.index() * static_cast<std::size_t>(horizon_) +
                  static_cast<std::size_t>(t)];
}

const double& ResourceLedger::cell(CloudletId c, TimeSlot t) const {
    return usage_[c.index() * static_cast<std::size_t>(horizon_) +
                  static_cast<std::size_t>(t)];
}

bool ResourceLedger::fits(CloudletId c, TimeSlot begin, TimeSlot end, double amount) const {
    check_range(c, begin, end, amount);
    const double cap = capacities_[c.index()];
    for (TimeSlot t = begin; t < end; ++t) {
        // Small epsilon absorbs accumulated floating point error in sums of
        // compute units; demands are integral in the paper's setting.
        if (cell(c, t) + amount > cap + 1e-9) return false;
    }
    return true;
}

bool ResourceLedger::reserve(CloudletId c, TimeSlot begin, TimeSlot end, double amount) {
    check_range(c, begin, end, amount);
    VNFR_CHECK_FINITE(amount);
    if (policy_ == CapacityPolicy::kEnforce && !fits(c, begin, end, amount)) return false;
    const double cap = capacities_[c.index()];
    for (TimeSlot t = begin; t < end; ++t) {
        cell(c, t) += amount;
        // Constraint (4)/(9): an enforcing ledger must never end a reserve
        // above capacity — fits() and this post-condition must agree.
        VNFR_DCHECK(policy_ != CapacityPolicy::kEnforce || cell(c, t) <= cap + 1e-9,
                    "cloudlet ", c.value, " slot ", t, " usage ", cell(c, t),
                    " exceeds capacity ", cap);
    }
    return true;
}

void ResourceLedger::release(CloudletId c, TimeSlot begin, TimeSlot end, double amount) {
    check_range(c, begin, end, amount);
    for (TimeSlot t = begin; t < end; ++t) {
        if (cell(c, t) < amount - 1e-9)
            throw std::logic_error("ResourceLedger::release: usage would go negative");
        cell(c, t) = std::max(0.0, cell(c, t) - amount);
        VNFR_DCHECK(cell(c, t) >= 0.0, "cloudlet ", c.value, " slot ", t,
                    " usage went negative after release");
    }
}

double ResourceLedger::usage(CloudletId c, TimeSlot t) const {
    check_range(c, t, t + 1, 0.0);
    return cell(c, t);
}

double ResourceLedger::residual(CloudletId c, TimeSlot t) const {
    check_range(c, t, t + 1, 0.0);
    return capacities_[c.index()] - cell(c, t);
}

double ResourceLedger::capacity(CloudletId c) const {
    if (!c.valid() || c.index() >= capacities_.size())
        throw std::invalid_argument("ResourceLedger: unknown cloudlet");
    return capacities_[c.index()];
}

double ResourceLedger::peak_overshoot(CloudletId c) const {
    const double cap = capacity(c);
    double worst = 0.0;
    for (TimeSlot t = 0; t < horizon_; ++t) {
        worst = std::max(worst, cell(c, t) - cap);
    }
    return worst;
}

double ResourceLedger::max_overshoot() const {
    double worst = 0.0;
    for (std::size_t j = 0; j < capacities_.size(); ++j) {
        worst = std::max(worst, peak_overshoot(CloudletId{static_cast<std::int64_t>(j)}));
    }
    return worst;
}

void ResourceLedger::restore_usage(std::vector<double> usage) {
    if (usage.size() != usage_.size()) {
        throw std::invalid_argument("ResourceLedger::restore_usage: table has " +
                                    std::to_string(usage.size()) + " cells, expected " +
                                    std::to_string(usage_.size()));
    }
    const auto slots = static_cast<std::size_t>(horizon_);
    for (std::size_t i = 0; i < usage.size(); ++i) {
        const double v = usage[i];
        if (!std::isfinite(v) || v < 0.0) {
            throw std::invalid_argument("ResourceLedger::restore_usage: cell " +
                                        std::to_string(i) +
                                        " is not a finite non-negative amount");
        }
        if (policy_ == CapacityPolicy::kEnforce && v > capacities_[i / slots] + 1e-9) {
            throw std::invalid_argument(
                "ResourceLedger::restore_usage: cell " + std::to_string(i) + " usage " +
                std::to_string(v) + " exceeds capacity " +
                std::to_string(capacities_[i / slots]));
        }
    }
    usage_ = std::move(usage);
}

}  // namespace vnfr::edge
