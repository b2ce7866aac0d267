// A complete problem instance of the VNF service reliability problem:
// the MEC infrastructure, the VNF catalog, the time horizon T, and the
// request sequence (in arrival order).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "edge/mec_network.hpp"
#include "vnf/catalog.hpp"
#include "workload/generator.hpp"
#include "workload/request.hpp"

namespace vnfr::core {

struct Instance {
    edge::MecNetwork network;
    vnf::Catalog catalog;
    TimeSlot horizon{0};
    /// Requests sorted by (arrival, id); this is the online arrival order.
    std::vector<workload::Request> requests;

    /// Throws std::invalid_argument describing the first inconsistency
    /// (no cloudlets, empty catalog, a request validate_request rejects,
    /// unsorted arrival order, ...).
    void validate() const;
};

/// The per-request checks of Instance::validate, for a request checked
/// against `instance` on its own (the serve layer's submit): its window
/// fits the horizon, its VNF type is in the catalog, R_i lies in (0, 1)
/// and pay_i > 0 (NaN fails both), and a set source AP is a node of the
/// network. Throws std::invalid_argument naming the first failed check.
void validate_request(const Instance& instance, const workload::Request& request);

/// Everything needed to synthesize an instance; defaults mirror the
/// paper's Section VI environment (real topology, 10 VNF types, uniform
/// cloudlet capacities/reliabilities, payment-rate workload).
struct InstanceConfig {
    std::string topology{"geant"};
    edge::CloudletAttachment cloudlets{};
    workload::GeneratorConfig workload{};
    /// Apply K = rc_max / rc_min by fixing rc_max and lowering rc_min
    /// (the paper's Fig. 2(b) sweep protocol).
    void set_reliability_ratio(double k);
};

/// Builds a validated instance deterministically from `rng`.
Instance make_instance(const InstanceConfig& config, common::Rng& rng);

}  // namespace vnfr::core
