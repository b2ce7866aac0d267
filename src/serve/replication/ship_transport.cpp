#include "serve/replication/ship_transport.hpp"

#include <utility>

#include "serve/wire.hpp"

namespace vnfr::serve::replication {

namespace {

constexpr std::string_view kFrameLabel = "ship frame";
/// Mirrors the WAL's per-record sanity bound; a frame carries at most a
/// group of records, so anything near this is mangled framing.
constexpr std::uint32_t kMaxFramePayload = 1U << 22;

}  // namespace

std::string encode_ship_frame(const ShipFrame& frame) {
    WireWriter w(1 + 3 * 8 + 4 + frame.payload.size() + 4);
    w.put_u8(static_cast<std::uint8_t>(frame.kind));
    w.put_u64(frame.generation);
    w.put_u64(frame.start_offset);
    w.put_u64(frame.record_count);
    w.put_u32(static_cast<std::uint32_t>(frame.payload.size()));
    w.put_bytes(frame.payload);
    w.put_crc32();
    return std::move(w).take();
}

ShipFrame decode_ship_frame(std::string_view bytes) {
    const std::string label(kFrameLabel);
    if (bytes.size() < 4) {
        throw CorruptStateError(label, bytes.size(), "frame shorter than its CRC");
    }
    const std::string_view body = bytes.substr(0, bytes.size() - 4);
    WireReader crc_reader(bytes.substr(bytes.size() - 4), label, bytes.size() - 4);
    const std::uint32_t stored_crc = crc_reader.get_u32("frame CRC");
    if (stored_crc != crc32(body)) {
        throw CorruptStateError(label, bytes.size() - 4, "frame CRC mismatch");
    }
    WireReader r(body, label);
    ShipFrame frame;
    const std::uint8_t kind = r.get_u8("frame kind");
    if (kind != static_cast<std::uint8_t>(ShipFrameKind::kRecords) &&
        kind != static_cast<std::uint8_t>(ShipFrameKind::kRotate)) {
        throw CorruptStateError(label, 0,
                                "unknown ship frame kind " + std::to_string(kind));
    }
    frame.kind = static_cast<ShipFrameKind>(kind);
    frame.generation = r.get_u64("frame generation");
    frame.start_offset = r.get_u64("frame start offset");
    frame.record_count = r.get_u64("frame record count");
    const std::uint32_t payload_len = r.get_u32("frame payload length");
    if (payload_len > kMaxFramePayload) {
        throw CorruptStateError(label, r.offset() - 4,
                                "frame payload length exceeds the sanity bound");
    }
    frame.payload = std::string(r.get_bytes(payload_len, "frame payload"));
    r.require_end("ship frame");
    if (frame.kind == ShipFrameKind::kRotate &&
        (!frame.payload.empty() || frame.record_count != 0)) {
        throw CorruptStateError(label, 0, "rotate frame carries a payload");
    }
    return frame;
}

void ShipTransport::set_fault_plan(const TransportFaultPlan& plan) {
    const common::MutexLock lock(&transport_mu_);
    plan_ = plan;
    fault_rng_.emplace(common::stream_rng(plan.seed, 0xF4A7));
}

bool ShipTransport::try_send(const ShipFrame& frame) {
    const common::MutexLock lock(&transport_mu_);
    if (channel_.size() >= capacity_) {
        ++stats_.sends_rejected_full;
        return false;
    }
    ++stats_.frames_sent;
    std::string bytes = encode_ship_frame(frame);
    // Decide the frame's fate from one uniform draw so the fault mix is
    // exactly the configured probabilities.
    double u = 2.0;  // no plan => no fault
    if (fault_rng_.has_value()) u = fault_rng_->uniform01();
    if (u < plan_.drop) {
        ++stats_.frames_dropped;
        return true;  // accepted, then lost in flight
    }
    u -= plan_.drop;
    if (u < plan_.truncate) {
        ++stats_.frames_truncated;
        const auto cut = static_cast<std::size_t>(
            fault_rng_->uniform_int(1, static_cast<std::int64_t>(bytes.size() - 1)));
        bytes.resize(bytes.size() - cut);
        channel_.push_back(std::move(bytes));
        ++stats_.frames_delivered;
        return true;
    }
    u -= plan_.truncate;
    if (u < plan_.duplicate) {
        ++stats_.frames_duplicated;
        channel_.push_back(bytes);
        channel_.push_back(std::move(bytes));
        stats_.frames_delivered += 2;
        return true;
    }
    u -= plan_.duplicate;
    if (u < plan_.reorder) {
        ++stats_.frames_reordered;
        // Deliver any previously held frame AFTER this one: swap them.
        if (held_back_.has_value()) {
            channel_.push_back(std::move(bytes));
            channel_.push_back(std::move(*held_back_));
            held_back_.reset();
            stats_.frames_delivered += 2;
        } else {
            held_back_ = std::move(bytes);
        }
        return true;
    }
    channel_.push_back(std::move(bytes));
    ++stats_.frames_delivered;
    if (held_back_.has_value()) {
        // The held frame now arrives out of order, behind its successor.
        channel_.push_back(std::move(*held_back_));
        held_back_.reset();
        ++stats_.frames_delivered;
    }
    return true;
}

std::optional<std::string> ShipTransport::try_recv() {
    const common::MutexLock lock(&transport_mu_);
    if (channel_.empty()) {
        if (held_back_.has_value()) {
            // Nothing ever overtook the held frame; flush it late.
            std::string bytes = std::move(*held_back_);
            held_back_.reset();
            ++stats_.frames_delivered;
            return bytes;
        }
        return std::nullopt;
    }
    std::string bytes = std::move(channel_.front());
    channel_.pop_front();
    return bytes;
}

void ShipTransport::send_ack(const ShipAck& ack) {
    const common::MutexLock lock(&transport_mu_);
    ack_ = ack;
    ++stats_.acks_recorded;
}

ShipAck ShipTransport::latest_ack() const {
    const common::MutexLock lock(&transport_mu_);
    return ack_;
}

TransportStats ShipTransport::stats() const {
    const common::MutexLock lock(&transport_mu_);
    return stats_;
}

std::size_t ShipTransport::in_flight() const {
    const common::MutexLock lock(&transport_mu_);
    return channel_.size() + (held_back_.has_value() ? 1 : 0);
}

}  // namespace vnfr::serve::replication
