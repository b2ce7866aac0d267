// In-process replication link between a WalShipper and a StandbyController,
// modeled as a bounded byte-frame channel. Each data frame carries a
// contiguous run of framed WAL record bytes (exactly as they sit on the
// primary's disk) or a rotation marker, wrapped in its own CRC so the
// standby can reject mangled deliveries.
//
// The ack direction is modeled as a reliable latest-value register (a real
// deployment would piggyback acks on a TCP stream; losing an ack only
// delays WAL release, it cannot corrupt state). The data direction is a
// FIFO here; the link that drops, truncates, duplicates and reorders
// frames overrides the transmit hooks below and lives with the rest of
// the fault harness in src/serve/faults/.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "common/mutex.hpp"
#include "serve/wal.hpp"

namespace vnfr::serve::replication {

/// A tailer needed WAL bytes that no longer exist (a generation was
/// released below the follower's watermark, or vanished mid-stream).
/// Typed so callers can distinguish "the stream has a hole" from
/// ordinary corruption — it must never be silently skipped over.
class ReplicationGapError : public std::runtime_error {
  public:
    ReplicationGapError(std::uint64_t generation, std::string detail)
        : std::runtime_error("replication gap at WAL generation " +
                             std::to_string(generation) + ": " + std::move(detail)),
          generation_(generation) {}

    [[nodiscard]] std::uint64_t generation() const { return generation_; }

  private:
    std::uint64_t generation_;
};

enum class ShipFrameKind : std::uint8_t {
    kRecords = 1,  ///< contiguous framed record bytes of one generation
    kRotate = 2,   ///< the generation ended at start_offset; next gen follows
};

/// One unit of the ship stream. `start_offset` is the byte offset within
/// generation `generation` where `payload` begins (kRecords), or the final
/// durable size of the closing generation (kRotate, empty payload). The
/// payload is the on-disk framing verbatim — len|payload|CRC per record —
/// so the standby re-validates every record CRC independently of the
/// frame CRC.
struct ShipFrame {
    ShipFrameKind kind{ShipFrameKind::kRecords};
    std::uint64_t generation{0};
    std::uint64_t start_offset{kWalHeaderSize};
    std::uint64_t record_count{0};
    std::string payload;
};

/// Encodes a frame to wire bytes: u8 kind | u64 generation | u64
/// start_offset | u64 record_count | u32 payload length | payload |
/// u32 CRC over everything before it.
[[nodiscard]] std::string encode_ship_frame(const ShipFrame& frame);

/// Decodes wire bytes back to a frame. Throws CorruptStateError on any
/// inconsistency (bad kind, short buffer, CRC mismatch, trailing bytes).
[[nodiscard]] ShipFrame decode_ship_frame(std::string_view bytes);

/// The standby's replication watermark, flowing back to the shipper.
/// (generation, next_offset) is the exact position the standby expects
/// next; everything before it has been applied durably. `resync` asks the
/// shipper to rewind to that position because the standby discarded one
/// or more in-flight frames (corrupt, gapped, or reordered-away).
struct ShipAck {
    std::uint64_t generation{0};
    std::uint64_t next_offset{kWalHeaderSize};
    std::uint64_t applied_records{0};
    bool resync{false};
};

struct TransportStats {
    std::uint64_t frames_sent{0};
    std::uint64_t frames_delivered{0};  ///< frames that entered the channel
    std::uint64_t sends_rejected_full{0};  ///< backpressure: channel was full
    std::uint64_t acks_recorded{0};
};

/// Bounded in-process frame channel. Thread-safe; transport_mu_ is a leaf
/// in the lock hierarchy (no callbacks run under it; the transmit hooks
/// run under it and must not call out).
class ShipTransport {
  public:
    explicit ShipTransport(std::size_t capacity_frames = 16)
        : capacity_(capacity_frames == 0 ? 1 : capacity_frames) {}
    virtual ~ShipTransport() = default;

    ShipTransport(const ShipTransport&) = delete;
    ShipTransport& operator=(const ShipTransport&) = delete;

    /// Offers one frame to the channel. Returns false (and counts
    /// backpressure) when the channel is full — the caller retries the
    /// same frame on its next pump, so backpressure never loses data.
    bool try_send(const ShipFrame& frame) VNFR_EXCLUDES(transport_mu_);

    /// Takes the next delivered frame's raw bytes, or nullopt when the
    /// channel is empty.
    std::optional<std::string> try_recv() VNFR_EXCLUDES(transport_mu_);

    /// Publishes the standby's watermark (reliable latest-value register).
    void send_ack(const ShipAck& ack) VNFR_EXCLUDES(transport_mu_);

    /// Reads the most recently published watermark.
    [[nodiscard]] ShipAck latest_ack() const VNFR_EXCLUDES(transport_mu_);

    [[nodiscard]] TransportStats stats() const VNFR_EXCLUDES(transport_mu_);

    /// Frames currently queued for delivery (held-back ones included).
    [[nodiscard]] std::size_t in_flight() const VNFR_EXCLUDES(transport_mu_);

  protected:
    /// Puts an admitted frame's wire bytes on the link. The plain link
    /// delivers them as they are.
    virtual void transmit_locked(std::string bytes) VNFR_REQUIRES(transport_mu_);
    /// Called by try_recv on an empty channel: a link that holds frames
    /// back delivers one late here. The plain link holds none.
    virtual void flush_locked() VNFR_REQUIRES(transport_mu_) {}
    /// Frames held back off the channel.
    [[nodiscard]] virtual std::size_t held_locked() const VNFR_REQUIRES(transport_mu_) {
        return 0;
    }
    /// Appends `bytes` to the channel, counted as delivered.
    void deliver_locked(std::string bytes) VNFR_REQUIRES(transport_mu_);

    mutable common::Mutex transport_mu_;

  private:
    std::deque<std::string> channel_ VNFR_GUARDED_BY(transport_mu_);
    ShipAck ack_ VNFR_GUARDED_BY(transport_mu_);
    TransportStats stats_ VNFR_GUARDED_BY(transport_mu_);
    std::size_t capacity_;
};

}  // namespace vnfr::serve::replication
