#include "serve/faults/faulty_ship_transport.hpp"

#include <utility>

namespace vnfr::serve::replication {

TransportFaultStats FaultyShipTransport::fault_stats() const {
    const common::MutexLock lock(&transport_mu_);
    return fault_stats_;
}

void FaultyShipTransport::transmit_locked(std::string bytes) {
    // Decide the frame's fate from one uniform draw so the fault mix is
    // exactly the configured probabilities.
    double u = fault_rng_.uniform01();
    if (u < plan_.drop) {
        ++fault_stats_.frames_dropped;
        return;  // accepted, then lost in flight
    }
    u -= plan_.drop;
    if (u < plan_.truncate) {
        ++fault_stats_.frames_truncated;
        const auto cut = static_cast<std::size_t>(
            fault_rng_.uniform_int(1, static_cast<std::int64_t>(bytes.size() - 1)));
        bytes.resize(bytes.size() - cut);
        deliver_locked(std::move(bytes));
        return;
    }
    u -= plan_.truncate;
    if (u < plan_.duplicate) {
        ++fault_stats_.frames_duplicated;
        deliver_locked(bytes);
        deliver_locked(std::move(bytes));
        return;
    }
    u -= plan_.duplicate;
    if (u < plan_.reorder) {
        ++fault_stats_.frames_reordered;
        // Deliver any previously held frame AFTER this one: swap them.
        if (held_back_.has_value()) {
            deliver_locked(std::move(bytes));
            release_held_locked();
        } else {
            held_back_ = std::move(bytes);
        }
        return;
    }
    deliver_locked(std::move(bytes));
    // The held frame now arrives out of order, behind its successor.
    release_held_locked();
}

void FaultyShipTransport::flush_locked() { release_held_locked(); }

void FaultyShipTransport::release_held_locked() {
    if (!held_back_.has_value()) return;
    deliver_locked(std::move(*held_back_));
    held_back_.reset();
}

}  // namespace vnfr::serve::replication
