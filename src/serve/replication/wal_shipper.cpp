#include "serve/replication/wal_shipper.hpp"

#include <algorithm>
#include <utility>

#include "serve/wal.hpp"
#include "serve/wire.hpp"

namespace vnfr::serve::replication {

namespace {

/// Reads the little-endian u32 length prefix at `pos` of a WAL image.
std::uint32_t record_len_at(const std::string& bytes, std::uint64_t pos) {
    std::uint32_t len = 0;
    for (int i = 3; i >= 0; --i) {
        len = (len << 8) |
              static_cast<std::uint8_t>(bytes[static_cast<std::size_t>(pos) +
                                              static_cast<std::size_t>(i)]);
    }
    return len;
}

}  // namespace

WalShipper::WalShipper(AdmissionController& primary, std::string data_dir,
                       ShipTransport& transport, Config config)
    : primary_(&primary),
      data_dir_(std::move(data_dir)),
      transport_(&transport),
      config_(config) {
    if (config_.max_records_per_frame == 0) config_.max_records_per_frame = 1;
}

std::size_t WalShipper::pump() {
    const common::MutexLock lock(&shipper_mu_);
    process_acks_locked();
    const WalPosition pos = primary_->wal_position();
    std::size_t frames = 0;
    // Finish shipping every retained generation below the live one, each
    // closed by a rotate frame so the standby advances in lockstep.
    while (cursor_gen_ < pos.generation) {
        const std::string path = wal_file_path(data_dir_, cursor_gen_);
        if (!primary_->vfs().file_exists(path)) {
            throw ReplicationGapError(cursor_gen_,
                                      "retained generation missing before the "
                                      "standby acknowledged it");
        }
        const std::string bytes = read_file(primary_->vfs(), path);
        if (!ship_slice_locked(bytes, bytes.size(), &frames)) return frames;
        ShipFrame rotate;
        rotate.kind = ShipFrameKind::kRotate;
        rotate.generation = cursor_gen_;
        rotate.start_offset = bytes.size();
        if (!transport_->try_send(rotate)) return frames;
        ++frames;
        ++stats_.frames_shipped;
        ++stats_.rotates_shipped;
        ++cursor_gen_;
        cursor_off_ = kWalHeaderSize;
    }
    // Live generation: ship only the durable prefix. The watermark was
    // snapshotted under the controller lock, so bytes below it are
    // already fdatasync'd and stable even while the primary appends.
    if (cursor_off_ < pos.durable_bytes) {
        const std::string path = wal_file_path(data_dir_, cursor_gen_);
        if (!primary_->vfs().file_exists(path)) {
            throw ReplicationGapError(cursor_gen_, "live generation missing");
        }
        const std::string bytes = read_file(primary_->vfs(), path);
        const std::uint64_t limit = std::min<std::uint64_t>(bytes.size(),
                                                            pos.durable_bytes);
        ship_slice_locked(bytes, limit, &frames);
    }
    return frames;
}

void WalShipper::process_acks_locked() {
    const ShipAck ack = transport_->latest_ack();
    stats_.acked_generation = ack.generation;
    stats_.acked_offset = ack.next_offset;
    if (ack.resync) {
        // Go-back-N: rewind to the standby's expected position and
        // re-ship the suffix. Only ever rewind — a stale resync ack that
        // is already at (or behind) the cursor is a no-op.
        if (ack.generation < cursor_gen_ ||
            (ack.generation == cursor_gen_ && ack.next_offset < cursor_off_)) {
            cursor_gen_ = ack.generation;
            cursor_off_ = ack.next_offset;
            ++stats_.resync_rewinds;
        }
    }
    // Ship-before-ack: release strictly below the acked generation, and
    // only after the ack was read above — never ahead of it.
    if (ack.generation > 0) {
        primary_->release_wals_below(ack.generation);
        stats_.generations_released = std::max(stats_.generations_released,
                                               ack.generation);
    }
}

bool WalShipper::ship_slice_locked(const std::string& bytes, std::uint64_t limit,
                                   std::size_t* frames) {
    while (cursor_off_ < limit) {
        ShipFrame frame;
        frame.generation = cursor_gen_;
        frame.start_offset = cursor_off_;
        std::uint64_t end = cursor_off_;
        while (end < limit && frame.record_count < config_.max_records_per_frame) {
            if (limit - end < 8) {
                throw CorruptStateError(wal_file_path(data_dir_, cursor_gen_), end,
                                        "durable prefix ends inside record framing");
            }
            const std::uint64_t span = 8ULL + record_len_at(bytes, end);
            if (end + span > limit) {
                throw CorruptStateError(wal_file_path(data_dir_, cursor_gen_), end,
                                        "durable prefix ends inside a record");
            }
            end += span;
            ++frame.record_count;
        }
        frame.payload = bytes.substr(static_cast<std::size_t>(cursor_off_),
                                     static_cast<std::size_t>(end - cursor_off_));
        if (!transport_->try_send(frame)) return false;  // backpressure: stop
        ++*frames;
        ++stats_.frames_shipped;
        stats_.records_shipped += frame.record_count;
        cursor_off_ = end;
    }
    return true;
}

ShipperStats WalShipper::stats() const {
    const common::MutexLock lock(&shipper_mu_);
    return stats_;
}

}  // namespace vnfr::serve::replication
