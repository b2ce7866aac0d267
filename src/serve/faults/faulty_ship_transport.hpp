// FaultyShipTransport: a ShipTransport whose data direction is adversarial.
// Frames are dropped, truncated, duplicated or reordered according to a
// seeded TransportFaultPlan, each fate drawn from a counter-based RNG
// stream of the plan's seed, so two links with the same plan mangle the
// same frames and a failover study replays bit-for-bit. The ack direction
// stays reliable.
//
// Test and bench code only: this is part of vnfr_serve_faults, which no
// production binary links.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "common/rng.hpp"
#include "serve/replication/ship_transport.hpp"

namespace vnfr::serve::replication {

/// Per-frame fault probabilities for the data direction. All zero means a
/// perfect link. One fate is drawn per admitted frame.
struct TransportFaultPlan {
    std::uint64_t seed{0};
    double drop{0.0};       ///< frame vanishes
    double truncate{0.0};   ///< frame arrives with its tail cut off
    double duplicate{0.0};  ///< frame delivered twice
    double reorder{0.0};    ///< frame held back and delivered after its successor
};

/// Frames the fault plan mangled, by fate.
struct TransportFaultStats {
    std::uint64_t frames_dropped{0};
    std::uint64_t frames_truncated{0};
    std::uint64_t frames_duplicated{0};
    std::uint64_t frames_reordered{0};
};

class FaultyShipTransport : public ShipTransport {
  public:
    FaultyShipTransport(std::size_t capacity_frames, const TransportFaultPlan& plan)
        : ShipTransport(capacity_frames),
          plan_(plan),
          fault_rng_(common::stream_rng(plan.seed, 0xF4A7)) {}

    [[nodiscard]] TransportFaultStats fault_stats() const VNFR_EXCLUDES(transport_mu_);

  protected:
    /// Applies the frame's drawn fate. A dropped frame still passed the
    /// capacity check but never occupies a slot.
    void transmit_locked(std::string bytes) override VNFR_REQUIRES(transport_mu_);
    /// Nothing ever overtook the held frame: deliver it late.
    void flush_locked() override VNFR_REQUIRES(transport_mu_);
    [[nodiscard]] std::size_t held_locked() const override VNFR_REQUIRES(transport_mu_) {
        return held_back_.has_value() ? 1 : 0;
    }

  private:
    /// Delivers the held frame, if any, behind whatever was just sent.
    void release_held_locked() VNFR_REQUIRES(transport_mu_);

    const TransportFaultPlan plan_;
    common::Rng fault_rng_ VNFR_GUARDED_BY(transport_mu_);
    /// A reordered frame waits here until the next send overtakes it (or
    /// a recv on an otherwise-empty channel flushes it).
    std::optional<std::string> held_back_ VNFR_GUARDED_BY(transport_mu_);
    TransportFaultStats fault_stats_ VNFR_GUARDED_BY(transport_mu_);
};

}  // namespace vnfr::serve::replication
