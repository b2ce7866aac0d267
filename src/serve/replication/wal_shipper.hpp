// Tails the primary controller's on-disk WAL and streams committed record
// bytes to the standby through a ShipTransport.
//
// The shipper never reads past the primary's durable watermark
// (AdmissionController::wal_position() reports generation, record count,
// and durable byte size under the controller lock), so every byte it
// ships is already fdatasync'd — ship-before-ack can never get ahead of
// durability. Rotated-out generations stay on disk (ServeConfig::
// retain_wals) until the standby's acknowledged watermark passes them;
// process_acks reads the latest ack FIRST and only then releases
// generations below it (ship-before-ack ordering, checked by vnfr_asa's
// replication-release-ack rule).
//
// Lost/mangled frames surface as a `resync` ack from the standby; the
// shipper rewinds its cursor to the acked position and re-ships the
// suffix (go-back-N). Retransmits are safe end-to-end: the standby's
// covered-set makes apply idempotent.
#pragma once

#include <cstdint>
#include <string>

#include "common/mutex.hpp"
#include "serve/admission_controller.hpp"
#include "serve/replication/ship_transport.hpp"

namespace vnfr::serve::replication {

struct ShipperStats {
    std::uint64_t frames_shipped{0};
    std::uint64_t records_shipped{0};  ///< includes retransmitted records
    std::uint64_t rotates_shipped{0};
    std::uint64_t resync_rewinds{0};
    std::uint64_t generations_released{0};
    std::uint64_t acked_generation{0};
    std::uint64_t acked_offset{0};
};

class WalShipper {
  public:
    struct Config {
        /// Upper bound on records packed into one data frame.
        std::size_t max_records_per_frame{32};
    };

    /// `primary` must outlive the shipper and have been constructed with
    /// retain_wals so rotated generations survive until acked.
    WalShipper(AdmissionController& primary, std::string data_dir,
               ShipTransport& transport, Config config);
    WalShipper(AdmissionController& primary, std::string data_dir,
               ShipTransport& transport)
        : WalShipper(primary, std::move(data_dir), transport, Config{}) {}

    WalShipper(const WalShipper&) = delete;
    WalShipper& operator=(const WalShipper&) = delete;

    /// One replication beat: absorb the latest ack (rewinding on resync,
    /// releasing fully-acked generations), then ship every durable byte
    /// between the cursor and the primary's watermark. Returns frames
    /// offered to the transport this call; backpressure simply stops the
    /// pump early and the next call resumes. Throws ReplicationGapError
    /// if a generation the cursor still needs has vanished from disk.
    std::size_t pump() VNFR_EXCLUDES(shipper_mu_);

    [[nodiscard]] ShipperStats stats() const VNFR_EXCLUDES(shipper_mu_);

  private:
    void process_acks_locked() VNFR_REQUIRES(shipper_mu_);
    /// Ships record bytes [cursor_off_, limit) of the file image `bytes`
    /// (generation cursor_gen_), counting frames into `*frames`. Returns
    /// false on backpressure (cursor stays at the first unshipped byte).
    bool ship_slice_locked(const std::string& bytes, std::uint64_t limit,
                           std::size_t* frames) VNFR_REQUIRES(shipper_mu_);

    mutable common::Mutex shipper_mu_;
    AdmissionController* primary_;
    std::string data_dir_;
    ShipTransport* transport_;
    Config config_;
    std::uint64_t cursor_gen_ VNFR_GUARDED_BY(shipper_mu_){0};
    std::uint64_t cursor_off_ VNFR_GUARDED_BY(shipper_mu_){kWalHeaderSize};
    ShipperStats stats_ VNFR_GUARDED_BY(shipper_mu_);
};

}  // namespace vnfr::serve::replication
