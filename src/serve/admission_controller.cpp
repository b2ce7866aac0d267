#include "serve/admission_controller.hpp"

#include <algorithm>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <utility>

#include "common/contracts.hpp"
#include "common/digest.hpp"
#include "core/offsite_primal_dual.hpp"
#include "core/onsite_primal_dual.hpp"

namespace vnfr::serve {

namespace {

std::unique_ptr<core::OnlineScheduler> make_scheduler(const core::Instance& instance,
                                                      core::Scheme scheme) {
    if (scheme == core::Scheme::kOnsite) {
        // Per-request delta tracking grows without bound over a server's
        // lifetime and is never read by the serve layer.
        core::OnsitePrimalDualConfig scheduler_config;
        scheduler_config.track_deltas = false;
        return std::make_unique<core::OnsitePrimalDual>(instance, scheduler_config);
    }
    return std::make_unique<core::OffsitePrimalDual>(instance);
}

}  // namespace

std::uint64_t instance_config_digest(const core::Instance& instance,
                                     core::Scheme scheme) {
    common::Fnv1a digest;
    digest.mix(static_cast<std::uint64_t>(scheme));
    digest.mix(static_cast<std::uint64_t>(instance.network.cloudlet_count()));
    digest.mix(static_cast<std::uint64_t>(instance.horizon));
    for (const edge::Cloudlet& c : instance.network.cloudlets()) {
        digest.mix(c.capacity);
        digest.mix(c.reliability);
    }
    digest.mix(static_cast<std::uint64_t>(instance.catalog.size()));
    for (const vnf::VnfType& type : instance.catalog.types()) {
        digest.mix(type.compute_units);
        digest.mix(type.reliability);
    }
    return digest.value();
}

AdmissionController::AdmissionController(const core::Instance& instance,
                                         core::Scheme scheme, ServeConfig config)
    : instance_(instance), scheme_(scheme), config_(std::move(config)) {
    vfs_ = config_.vfs != nullptr ? config_.vfs : &posix_vfs();
    if (config_.data_dir.empty() || !vfs_->dir_exists(config_.data_dir)) {
        throw std::invalid_argument("AdmissionController: data_dir '" +
                                    config_.data_dir + "' is not a directory");
    }
    if (config_.checkpoint_every == std::size_t{0}) {
        throw std::invalid_argument("AdmissionController: checkpoint_every must be >= 1");
    }
    if (config_.queue_capacity == 0) {
        throw std::invalid_argument("AdmissionController: queue_capacity must be >= 1");
    }
    config_digest_ = instance_config_digest(instance_, scheme_);
    // No other thread can see a partially-constructed controller, but the
    // recovery helpers require mu_, so hold it for the uncontended setup.
    const common::MutexLock lock(&mu_);
    role_ = config_.standby ? ControllerRole::kStandby : ControllerRole::kPrimary;
    scheduler_ = make_scheduler(instance_, scheme_);
    VNFR_CHECK(scheduler_->supports_state_io(),
               "serve layer requires a scheduler with state export/import");
    recover();
}

std::string AdmissionController::snapshot_path() const {
    return config_.data_dir + "/snapshot.bin";
}

std::string AdmissionController::ledger_path() const {
    return ledger_file_path(config_.data_dir);
}

void AdmissionController::recover() {
    const std::string snap_path = snapshot_path();
    if (vfs_->file_exists(snap_path)) {
        recovery_stats_.recovered_snapshot = true;
        ControllerSnapshot snap = load_snapshot(*vfs_, snap_path);
        if (snap.config_digest != config_digest_) {
            throw CorruptStateError(snap_path, 0,
                                    "snapshot was saved for a different instance/scheme "
                                    "(config digest mismatch)");
        }
        if (snap.scheme != static_cast<std::uint8_t>(scheme_) ||
            snap.cloudlets != instance_.network.cloudlet_count() ||
            snap.horizon != static_cast<std::uint64_t>(instance_.horizon)) {
            throw CorruptStateError(snap_path, 0,
                                    "snapshot shape disagrees with the bound instance");
        }
        core::SchedulerState state{std::move(snap.lambda), std::move(snap.usage)};
        scheduler_->import_state(state);
        rollback_base_ = std::move(state);
        metrics_ = snap.metrics;
        if (snap.ledger_bytes == 0) {
            // A version-1 image carries its admitted list inline and names
            // no ledger: the list is the pending tail, which the first
            // rotation writes to a fresh ledger file.
            admitted_ = std::move(snap.admitted);
        } else {
            // Only the prefix the snapshot names is state, and a restart
            // reads none of its records: it checks the header and the
            // length, and the prefix's readers (state_digest,
            // admitted_records, the scrubber) parse the records. A tail
            // past the prefix is a rotation that died before its snapshot
            // was renamed in; its admissions replay from the WAL below,
            // and append_to truncates it before the first append.
            check_ledger_header(*vfs_, ledger_path(), ledger_prefix_of(snap));
            ledger_.emplace(FramedFileWriter::append_to(*vfs_, ledger_path(),
                                                        snap.ledger_bytes,
                                                        config_.storage_retry));
            ledger_records_ = snap.metrics.admitted;
        }
        covered_watermark_ = snap.covered_watermark;
        covered_sparse_.clear();
        covered_sparse_.insert(snap.covered_sparse.begin(), snap.covered_sparse.end());
        wal_seq_ = snap.wal_seq;
    } else {
        rollback_base_ = scheduler_->export_state();
    }
    // S of the default trigger: the snapshot just loaded, or the size the
    // first one will have.
    const std::vector<std::uint64_t> covered_sparse(covered_sparse_.begin(),
                                                    covered_sparse_.end());
    snapshot_bytes_ = encoded_snapshot_size(snapshot_view_locked(rollback_base_, covered_sparse));
    // Without a snapshot the controller starts from generation 0 with
    // default state; a crash before the first checkpoint leaves exactly
    // wal-0.log to replay.
    const std::string path = wal_file_path(config_.data_dir, wal_seq_);
    if (vfs_->file_exists(path)) {
        WalContents contents = read_wal(*vfs_, path, WalReadMode::kRecover);
        if (contents.wal_seq != wal_seq_) {
            throw CorruptStateError(path, 0,
                                    "WAL generation " + std::to_string(contents.wal_seq) +
                                        " does not match the snapshot's " +
                                        std::to_string(wal_seq_));
        }
        if (contents.config_digest != config_digest_) {
            throw CorruptStateError(path, 0,
                                    "WAL was written for a different instance/scheme "
                                    "(config digest mismatch)");
        }
        for (const WalRecord& rec : contents.records) replay_record(rec, path);
        wal_records_ = contents.records.size();
        recovery_stats_.recovered_wal = true;
        recovery_stats_.wal_records_replayed = contents.records.size();
        recovery_stats_.torn_tail_bytes = contents.bytes_discarded;
        recovery_stats_.torn_tail_records = contents.records_discarded;
        wal_.emplace(WalWriter::append_to(*vfs_, path, contents.valid_size,
                                          config_.storage_retry));
    } else {
        // Legal crash window: the snapshot was renamed in but the next
        // WAL generation was never created — the snapshot alone is the
        // complete durable state.
        wal_.emplace(WalWriter::create(*vfs_, path, wal_seq_, config_digest_,
                                       config_.storage_retry));
        wal_records_ = 0;
    }
    remove_stale_wals();
}

void AdmissionController::remove_stale_wals() const {
    // Names list_wal_generations does not recognize are not ours and are
    // left alone.
    for (const std::uint64_t generation :
         list_wal_generations(*vfs_, config_.data_dir)) {
        if (generation == wal_seq_) continue;
        // A generation above the current one is a half-finished rotation
        // (created before the crash, never referenced by a snapshot) and
        // must go in every mode — recovery would otherwise mistake it for
        // live state on the next rotation. Older generations are history:
        // stale without replication, retained ship-source with it.
        if (generation < wal_seq_ && config_.retain_wals) continue;
        try {
            vfs_->unlink(wal_file_path(config_.data_dir, generation));
        } catch (const VfsError&) {
            // Stale-file cleanup is advisory; the next recovery retries.
        }
    }
}

void AdmissionController::release_wals_below(std::uint64_t generation) {
    const common::MutexLock lock(&mu_);
    const std::uint64_t ceiling = std::min(generation, wal_seq_);
    for (std::uint64_t g = release_floor_; g < ceiling; ++g) {
        try {
            vfs_->unlink(wal_file_path(config_.data_dir, g));
        } catch (const VfsError&) {
            // An un-releasable acked generation is waste, not danger; the
            // next recovery's stale-WAL sweep retries.
        }
    }
    release_floor_ = std::max(release_floor_, ceiling);
}

void AdmissionController::replay_record(const WalRecord& rec, const std::string& path) {
    if (rec.kind == WalRecordKind::kShed) {
        metrics_.shed += 1;
        metrics_.shed_revenue += rec.request.payment;
        mark_covered(rec.seq);
        return;
    }
    // Re-execute the logged decision and cross-check: decide() is
    // deterministic given the restored state, so any divergence means the
    // snapshot and WAL are mutually inconsistent.
    const core::Decision decision = scheduler_->decide(rec.request);
    bool matches = decision.admitted == rec.admitted;
    if (matches && decision.admitted) {
        matches = decision.placement.sites.size() == rec.sites.size();
        for (std::size_t i = 0; matches && i < rec.sites.size(); ++i) {
            matches = decision.placement.sites[i].cloudlet == rec.sites[i].cloudlet &&
                      decision.placement.sites[i].replicas == rec.sites[i].replicas;
        }
    }
    if (matches && !decision.admitted) {
        matches = decision.reject_reason == rec.reject_reason;
    }
    if (!matches) {
        throw CorruptStateError(path, rec.file_offset,
                                "logged decision for seq " + std::to_string(rec.seq) +
                                    " diverges from re-execution — snapshot and WAL "
                                    "are mutually inconsistent");
    }
    apply_decision(rec.seq, rec.request, decision);
}

void AdmissionController::mark_covered(std::uint64_t seq) {
    if (seq == covered_watermark_) {
        // In-order cover, the common case: advance the watermark without
        // a set node, then absorb the sparse seqs it now reaches.
        ++covered_watermark_;
        while (!covered_sparse_.empty() && *covered_sparse_.begin() == covered_watermark_) {
            covered_sparse_.erase(covered_sparse_.begin());
            ++covered_watermark_;
        }
        return;
    }
    if (seq > covered_watermark_) covered_sparse_.insert(seq);
}

bool AdmissionController::is_covered_locked(std::uint64_t seq) const {
    return seq < covered_watermark_ || covered_sparse_.count(seq) != 0;
}

bool AdmissionController::is_covered(std::uint64_t seq) const {
    const common::MutexLock lock(&mu_);
    return is_covered_locked(seq);
}

void AdmissionController::append_wal(const WalRecord& rec) {
    wal_->append(rec);
    ++wal_records_;
}

void AdmissionController::apply_decision(std::uint64_t seq,
                                         const workload::Request& request,
                                         const core::Decision& decision) {
    metrics_.processed += 1;
    if (decision.admitted) {
        metrics_.admitted += 1;
        metrics_.revenue += request.payment;
        AdmittedRecord rec;
        rec.seq = seq;
        rec.request_id = request.id.value;
        rec.payment = request.payment;
        rec.sites.reserve(decision.placement.sites.size());
        for (const core::Site& site : decision.placement.sites) {
            rec.sites.emplace_back(site.cloudlet.value,
                                   static_cast<std::int64_t>(site.replicas));
        }
        admitted_.push_back(std::move(rec));
    } else {
        metrics_.rejected += 1;
    }
    mark_covered(seq);
    decided_since_base_.push_back(request);
}

void AdmissionController::shed(const QueueItem& victim) {
    WalRecord rec;
    rec.kind = WalRecordKind::kShed;
    rec.seq = victim.seq;
    rec.request = victim.request;
    try {
        append_wal(rec);
    } catch (const VfsError& err) {
        // The shed record never became durable, so nothing becomes
        // observable either: the queue is untouched and the caller's
        // submit reports degradation instead of an outcome.
        enter_degraded_locked("shed WAL append", err);
    }
    metrics_.shed += 1;
    metrics_.shed_revenue += victim.request.payment;
    mark_covered(victim.seq);
}

void AdmissionController::require_primary(const char* op) const {
    if (role_ != ControllerRole::kPrimary) {
        throw std::logic_error(std::string("AdmissionController::") + op +
                               " on a standby controller — replicate via "
                               "apply_replicated() or mark_promoted() first");
    }
}

bool AdmissionController::apply_replicated(const WalRecord& rec) {
    const common::MutexLock lock(&mu_);
    if (role_ != ControllerRole::kStandby) {
        throw std::logic_error(
            "AdmissionController::apply_replicated on a primary controller — "
            "primaries decide for themselves");
    }
    if (is_covered_locked(rec.seq)) return false;
    require_storage_healthy_locked("apply_replicated");
    // Durable first, exactly like the primary: the record reaches this
    // standby's own WAL (and its fdatasync returns) before any state
    // change becomes observable. replay_record then re-executes and
    // cross-checks, so a diverged standby dies loudly here.
    try {
        append_wal(rec);
    } catch (const VfsError& err) {
        // Nothing was applied: the record is simply not acked, and the
        // shipper's go-back-N resync re-delivers it after recovery.
        enter_degraded_locked("replicated WAL append", err);
    }
    replay_record(rec, wal_->path());
    // Applied and durable: a failed rotation degrades without throwing,
    // so the record is still acked.
    if (rotation_due_locked()) (void)checkpoint_locked();
    return true;
}

void AdmissionController::mark_promoted() {
    const common::MutexLock lock(&mu_);
    role_ = ControllerRole::kPrimary;
}

WalPosition AdmissionController::wal_position() const {
    const common::MutexLock lock(&mu_);
    WalPosition pos;
    pos.generation = wal_seq_;
    pos.records = wal_records_;
    pos.durable_bytes = wal_->durable_size();
    return pos;
}

SubmitResult AdmissionController::submit(std::uint64_t seq,
                                         const workload::Request& request) {
    // Outside input: a request the schedulers cannot price must never
    // reach the queue, where every pump would throw on it again. The
    // instance is immutable, so this needs no lock.
    core::validate_request(instance_, request);
    const common::MutexLock lock(&mu_);
    require_primary("submit");
    if (is_covered_locked(seq)) return SubmitResult::kAlreadyCovered;
    require_storage_healthy_locked("submit");
    // Uncovered submissions must arrive in stream order — FIFO processing
    // equals seq order, which the recovery protocol relies on.
    VNFR_CHECK(queue_.empty() || seq > queue_.rbegin()->first,
               "submit seq ", seq, " out of stream order (queue tail is ",
               queue_.empty() ? 0 : queue_.rbegin()->first, ")");
    if (queue_.size() < config_.queue_capacity) {
        queue_.emplace(seq, request);
        shed_heap_.push(ShedCandidate{request.payment, seq});
        return SubmitResult::kQueued;
    }
    // Overload: shed the lowest payment among queued + incoming; on a
    // payment tie the younger request (higher seq) loses. After skipping
    // stale entries the heap top is exactly the queued side of that
    // arg-min, making the victim choice O(log n) instead of a scan.
    while (!shed_heap_.empty() && queue_.find(shed_heap_.top().seq) == queue_.end()) {
        shed_heap_.pop();
    }
    VNFR_CHECK(!shed_heap_.empty(), "shed heap lost track of the live queue");
    const ShedCandidate top = shed_heap_.top();
    // The incoming request carries the highest seq, so on a payment tie
    // it is the one shed; a queued victim needs strictly lower payment.
    if (!(top.payment < request.payment)) {
        shed(QueueItem{seq, request});
        return SubmitResult::kShedIncoming;
    }
    const auto victim_it = queue_.find(top.seq);
    VNFR_CHECK(victim_it != queue_.end(), "shed heap points at a dequeued seq");
    shed(QueueItem{victim_it->first, victim_it->second});  // durable first
    shed_heap_.pop();
    queue_.erase(victim_it);
    queue_.emplace(seq, request);
    shed_heap_.push(ShedCandidate{request.payment, seq});
    return SubmitResult::kShedQueued;
}

std::vector<ProcessedOutcome> AdmissionController::pump(std::size_t max_requests) {
    const common::MutexLock lock(&mu_);
    require_primary("pump");
    require_storage_healthy_locked("pump");
    return pump_locked(max_requests);
}

std::vector<ProcessedOutcome> AdmissionController::pump_locked(
    std::size_t max_requests) {
    std::vector<ProcessedOutcome> outcomes;
    const std::size_t take = std::min(max_requests, queue_.size());
    if (take == 0) return outcomes;
    outcomes.reserve(take);
    // Sequential by construction: each decide reads the dual prices the
    // previous admission raised.
    const auto batch_end = std::next(queue_.begin(), static_cast<std::ptrdiff_t>(take));
    for (auto it = queue_.begin(); it != batch_end; ++it) {
        outcomes.push_back(ProcessedOutcome{it->first, it->second,
                                            scheduler_->decide(it->second)});
    }
    try {
        // Durable first: stage the whole batch, one write, one fdatasync.
        for (const ProcessedOutcome& o : outcomes) {
            WalRecord rec;
            rec.kind = WalRecordKind::kDecision;
            rec.seq = o.seq;
            rec.request = o.request;
            rec.admitted = o.decision.admitted;
            rec.reject_reason = o.decision.reject_reason;
            if (o.decision.admitted) rec.sites = o.decision.placement.sites;
            wal_->stage(rec);
        }
        wal_->commit();
    } catch (const VfsError& err) {
        // The batch's fdatasync never returned, so none of its outcomes
        // may become observable. Un-decide the batch (requests stay
        // queued for after recovery), drop the staged bytes, and degrade:
        // partial un-synced writes past the durable prefix are rewound
        // before the next commit — and if they survive a crash instead,
        // recovery replays them as durable-but-unacked outcomes, which
        // resubmission skips.
        wal_->abandon_staged();
        rollback_scheduler_locked();
        enter_degraded_locked("WAL group commit", err);
    }
    wal_records_ += take;
    // Only now — with the batch durable — do the outcomes become
    // observable, in stream order.
    queue_.erase(queue_.begin(), batch_end);
    for (const ProcessedOutcome& o : outcomes) apply_decision(o.seq, o.request, o.decision);
    prune_shed_heap();
    // The batch is durable, applied and covered: a failed rotation
    // degrades without throwing, so the caller still receives it.
    if (rotation_due_locked()) (void)checkpoint_locked();
    return outcomes;
}

void AdmissionController::prune_shed_heap() {
    // Stale entries (pumped or evicted seqs) are skipped lazily at shed
    // time; rebuild once they dominate so heap memory stays O(queue).
    if (shed_heap_.size() <= 2 * queue_.size() + 64) return;
    std::vector<ShedCandidate> live;
    live.reserve(queue_.size());
    for (const auto& [seq, request] : queue_) {
        live.push_back(ShedCandidate{request.payment, seq});
    }
    shed_heap_ = std::priority_queue<ShedCandidate, std::vector<ShedCandidate>,
                                     ShedVictimOrder>(ShedVictimOrder{},
                                                      std::move(live));
}

std::vector<ProcessedOutcome> AdmissionController::drain() {
    return pump(std::numeric_limits<std::size_t>::max());
}

void AdmissionController::checkpoint() {
    const common::MutexLock lock(&mu_);
    if (!checkpoint_locked()) {
        throw StorageDegradedError("storage degraded — " + degraded_reason_);
    }
}

bool AdmissionController::checkpoint_locked() {
    try {
        rotate_checkpoint_locked();
    } catch (const VfsError& err) {
        // Whatever the rotation half-did (a next-generation file, an
        // unreplaced snapshot) is exactly a legal crash window: recovery's
        // stale-WAL sweep absorbs it. The live controller, though, can no
        // longer prove durability — degrade until a rotation succeeds.
        degrade_locked("checkpoint rotation", err);
        return false;
    }
    return true;
}

void AdmissionController::rotate_checkpoint_locked() {
    VNFR_CHECK(wal_->staged_records() == 0,
               "checkpoint with uncommitted staged WAL records");
    // Rotation order keeps every crash window recoverable: (0) append the
    // admissions since the last rotation to the ledger (one write, one
    // fdatasync); (1) create the next WAL generation; (2) atomically
    // replace the snapshot, which now references it and names the new
    // ledger length; (3) drop the old generation. A crash before (2)
    // recovers from the old snapshot + old WAL: the ledger tail no
    // snapshot names is truncated and its admissions replay from the old
    // WAL, and the new WAL file is stale and removed on restart. Between
    // (2) and (3) the old WAL is the stale one.
    if (!ledger_.has_value()) {
        ledger_.emplace(create_ledger(*vfs_, ledger_path(), config_digest_,
                                      config_.storage_retry));
    }
    for (const AdmittedRecord& rec : admitted_) stage_ledger_record(*ledger_, rec);
    try {
        ledger_->commit();
    } catch (...) {
        ledger_->abandon_staged();
        throw;
    }
    // The pending admissions are durable in the ledger now; the live
    // controller reads them from there, whether or not the rest of the
    // rotation succeeds.
    ledger_records_ += admitted_.size();
    admitted_.clear();
    // The snapshot is encoded straight from the live state; only the
    // scheduler state is copied, and that copy becomes the rollback base
    // once the rotation succeeds. The sparse covered set is O(queue).
    core::SchedulerState state = scheduler_->export_state();
    const std::vector<std::uint64_t> covered_sparse(covered_sparse_.begin(),
                                                    covered_sparse_.end());
    SnapshotView snap = snapshot_view_locked(state, covered_sparse);
    snap.wal_seq = wal_seq_ + 1;
    snap.ledger_bytes = ledger_->durable_size();
    WalWriter next =
        WalWriter::create(*vfs_, wal_file_path(config_.data_dir, wal_seq_ + 1),
                          wal_seq_ + 1, config_digest_, config_.storage_retry);
    save_snapshot(*vfs_, snapshot_path(), snap, config_.storage_retry,
                  &storage_stats_.transient_retries);
    storage_stats_.transient_retries += wal_->transient_retries();
    wal_->close();
    // With retention the rotated-out generation stays on disk for the
    // replication shipper; release_wals_below() retires it once acked.
    if (!config_.retain_wals) {
        try {
            vfs_->unlink(wal_file_path(config_.data_dir, wal_seq_));
        } catch (const VfsError&) {
            // The snapshot already supersedes the old generation; the
            // next recovery's stale-WAL sweep retries the unlink.
        }
    }
    wal_.emplace(std::move(next));
    ++wal_seq_;
    wal_records_ = 0;
    snapshot_bytes_ = encoded_snapshot_size(snap);
    rollback_base_ = std::move(state);
    decided_since_base_.clear();
}

SnapshotView AdmissionController::snapshot_view_locked(
    const core::SchedulerState& state, std::span<const std::uint64_t> covered_sparse) const {
    SnapshotView view;
    view.scheme = static_cast<std::uint8_t>(scheme_);
    view.config_digest = config_digest_;
    view.cloudlets = instance_.network.cloudlet_count();
    view.horizon = static_cast<std::uint64_t>(instance_.horizon);
    view.metrics = metrics_;
    view.lambda = state.lambda;
    view.usage = state.usage;
    view.covered_watermark = covered_watermark_;
    view.covered_sparse = covered_sparse;
    return view;
}

bool AdmissionController::rotation_due_locked() const {
    if (config_.checkpoint_every.has_value()) return wal_records_ >= *config_.checkpoint_every;
    const std::uint64_t wal_bytes = wal_->durable_size() - kWalHeaderSize;
    return static_cast<double>(wal_bytes) >=
           kCheckpointWalRatio * static_cast<double>(snapshot_bytes_);
}

void AdmissionController::rollback_scheduler_locked() {
    // decide() is a deterministic function of the scheduler state — the
    // argument WAL replay rests on — so this lands on exactly the state
    // the last applied decision left, bit for bit.
    scheduler_->import_state(rollback_base_);
    for (const workload::Request& request : decided_since_base_) {
        (void)scheduler_->decide(request);
    }
}

void AdmissionController::degrade_locked(const char* what, const VfsError& err) {
    health_ = StorageHealth::kDegraded;
    degraded_reason_ = std::string(what) + ": " + err.what();
    ++storage_stats_.degraded_entries;
}

void AdmissionController::enter_degraded_locked(const char* what,
                                                const VfsError& err) {
    degrade_locked(what, err);
    throw StorageDegradedError("storage degraded — " + degraded_reason_);
}

void AdmissionController::require_storage_healthy_locked(const char* op) {
    if (health_ == StorageHealth::kHealthy) return;
    ++storage_stats_.degraded_refusals;
    if (storage_stats_.degraded_refusals % kDegradedProbeEvery == 0 &&
        try_recover_locked()) {
        return;
    }
    throw StorageDegradedError(std::string("AdmissionController::") + op +
                               " refused, storage degraded — " +
                               degraded_reason_);
}

bool AdmissionController::try_recover_locked() {
    if (health_ == StorageHealth::kHealthy) return true;
    try {
        // A failed commit may have left un-synced garbage past the
        // durable WAL prefix; truncate it away so retained generations
        // end on a clean record boundary for tailers and recovery alike.
        // A failed ledger append leaves the same kind of garbage.
        wal_->repair();
        if (ledger_.has_value()) ledger_->repair();
        // A full rotation is the writability proof: it exercises create,
        // write, fsync, rename, and directory sync — and leaves the
        // freshly-checkpointed state as the durable baseline.
        rotate_checkpoint_locked();
    } catch (const VfsError&) {
        return false;  // still broken; stay degraded
    }
    health_ = StorageHealth::kHealthy;
    degraded_reason_.clear();
    ++storage_stats_.recoveries;
    return true;
}

bool AdmissionController::try_recover_storage() {
    const common::MutexLock lock(&mu_);
    return try_recover_locked();
}

StorageStats AdmissionController::storage_stats() const {
    const common::MutexLock lock(&mu_);
    StorageStats stats = storage_stats_;
    // The live WAL writer's absorbed retries roll into the total at
    // rotation, so count the current generation's on the fly; the ledger
    // writer lives as long as the controller and is counted the same way.
    stats.transient_retries += wal_->transient_retries();
    if (ledger_.has_value()) stats.transient_retries += ledger_->transient_retries();
    return stats;
}

std::vector<AdmittedRecord> AdmissionController::admitted_records() const {
    const common::MutexLock lock(&mu_);
    std::vector<AdmittedRecord> records;
    records.reserve(static_cast<std::size_t>(ledger_records_) + admitted_.size());
    for_each_admitted_locked([&](AdmittedRecord& rec) { records.push_back(std::move(rec)); });
    return records;
}

void AdmissionController::for_each_admitted_locked(
    const std::function<void(AdmittedRecord&)>& on_record) const {
    if (ledger_.has_value()) {
        const LedgerPrefix prefix{ledger_->durable_size(), ledger_records_, config_digest_,
                                  instance_.network.cloudlet_count()};
        (void)read_ledger_prefix(*vfs_, ledger_path(), prefix, on_record);
    }
    for (AdmittedRecord rec : admitted_) on_record(rec);
}

std::uint64_t AdmissionController::state_digest() const {
    const common::MutexLock lock(&mu_);
    common::Fnv1a digest;
    digest.mix(static_cast<std::uint64_t>(scheme_));
    digest.mix(config_digest_);
    digest.mix(metrics_.processed);
    digest.mix(metrics_.admitted);
    digest.mix(metrics_.rejected);
    digest.mix(metrics_.shed);
    digest.mix(metrics_.revenue);
    digest.mix(metrics_.shed_revenue);
    digest.mix(covered_watermark_);
    digest.mix(static_cast<std::uint64_t>(covered_sparse_.size()));
    for (const std::uint64_t seq : covered_sparse_) digest.mix(seq);
    digest.mix(static_cast<std::uint64_t>(ledger_records_ + admitted_.size()));
    for_each_admitted_locked([&](const AdmittedRecord& rec) {
        digest.mix(rec.seq);
        digest.mix(static_cast<std::uint64_t>(rec.request_id));
        digest.mix(rec.payment);
        digest.mix(static_cast<std::uint64_t>(rec.sites.size()));
        for (const auto& [cloudlet, replicas] : rec.sites) {
            digest.mix(static_cast<std::uint64_t>(cloudlet));
            digest.mix(static_cast<std::uint64_t>(replicas));
        }
    });
    const core::SchedulerState state = scheduler_->export_state();
    for (const auto& row : state.lambda) {
        for (const double v : row) digest.mix(v);
    }
    for (const double v : state.usage) digest.mix(v);
    return digest.value();
}

}  // namespace vnfr::serve
