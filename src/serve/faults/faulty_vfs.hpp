// FaultyVfs: a deterministic in-memory Vfs that simulates a disk plus its
// page cache, driven by a replayable seeded DiskFaultPlan — EIO/ENOSPC
// injection, short writes, read-side bit flips, and scripted cuts at a
// mutating-op index: a process crash (the page cache survives) or a
// power cut (every un-fsync'ed byte is discarded). That turns the
// durable-first ordering claims of DESIGN.md 6c–6f into properties a
// test can falsify instead of assumptions about the disk.
//
// A scripted cut throws CrashInjected, which deliberately is NOT a
// VfsError: the serve layer's retry loops and cleanup handlers catch
// VfsError only, so no production code can swallow the simulated death
// of the process.
//
// Test and bench code only: this is part of vnfr_serve_faults, which no
// production binary links.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/annotations.hpp"
#include "common/mutex.hpp"
#include "serve/vfs.hpp"

namespace vnfr::serve {

/// How a scripted cut ends the simulated process. Every kind skips the
/// op it fires at and stales every open fd; they differ in what the
/// page cache keeps.
enum class CutKind : std::uint8_t {
    /// The process dies, the machine stays up: un-fsync'ed bytes and
    /// un-dirsynced namespace changes (creates, renames, unlinks) all
    /// survive in the page cache — what `kill -9` leaves behind.
    kProcessCrash,
    /// Power is lost: the cache collapses to its durable view, except
    /// that a file whose durable bytes prefix its cached bytes keeps a
    /// random prefix of the un-synced suffix — the torn tail an
    /// interrupted append leaves on a real disk.
    kPowerCutTornTail,
    /// Power is lost and only durable bytes and names survive.
    kPowerCutClean,
};

[[nodiscard]] const char* cut_kind_name(CutKind kind);

/// Thrown by FaultyVfs when a scripted cut fires: the simulated process
/// is gone, mid-operation. Carries where it died (the 1-based mutating
/// op index, that op's name and path) so a failing trial names its cut.
/// Deliberately not a VfsError — retry/backoff wrappers catch VfsError
/// only, so a cut always propagates to the harness the way a real crash
/// ends the process.
class CrashInjected : public std::runtime_error {
  public:
    CrashInjected(CutKind kind, std::uint64_t op_index, std::string op,
                  std::string path)
        : std::runtime_error(std::string(cut_kind_name(kind)) +
                             " injected at storage op " +
                             std::to_string(op_index) + " (" + op + " " + path +
                             ")"),
          kind_(kind),
          op_index_(op_index),
          op_(std::move(op)),
          path_(std::move(path)) {}

    [[nodiscard]] CutKind kind() const { return kind_; }
    [[nodiscard]] std::uint64_t op_index() const { return op_index_; }
    [[nodiscard]] const std::string& op() const { return op_; }
    [[nodiscard]] const std::string& path() const { return path_; }

  private:
    CutKind kind_;
    std::uint64_t op_index_;
    std::string op_;
    std::string path_;
};

/// Operation categories of FaultyVfs, for scripted faults.
enum class VfsOp : std::uint8_t {
    kCreate,    ///< create_truncate
    kOpen,      ///< open_append
    kRead,      ///< read_file / read_range
    kWrite,     ///< write_all
    kSync,      ///< fsync / fdatasync
    kTruncate,  ///< ftruncate
    kRename,    ///< rename
    kUnlink,    ///< unlink
    kDirSync,   ///< fsync_parent_dir
};

/// Replayable random fault mix for FaultyVfs. Every probability draw
/// comes from a counter-based stream of `seed` (common::stream_rng), so
/// a plan replays bit-identically regardless of call interleaving
/// differences elsewhere — the same contract as recovery_faults.
struct DiskFaultPlan {
    std::uint64_t seed{0};
    /// Per-write probability of a transient EIO (nothing written).
    double write_error_rate{0.0};
    /// Per-sync probability of a transient EIO (data stays volatile).
    double sync_error_rate{0.0};
    /// Per-write probability of a short write: a random strict prefix of
    /// the buffer lands in the cache, then transient EIO.
    double short_write_rate{0.0};
    /// Consecutive failures per fired write/sync fault (a burst length):
    /// 1 = single spurious error, larger values make retries work for it.
    int transient_failures{1};
    /// Per-read probability of one flipped bit in the *returned copy*
    /// (latent media corruption surfacing on read; the stored bytes are
    /// unchanged).
    double read_flip_rate{0.0};
    /// 1-based index of the mutating operation (write/sync/truncate/
    /// create/rename/unlink/dirsync) at which the process is cut: the op
    /// does not happen, the page cache is treated per `cut_kind`, and
    /// CrashInjected is thrown. 0 = never. One-shot.
    std::uint64_t cut_at_op{0};
    /// What the cut at `cut_at_op` does to the page cache.
    CutKind cut_kind{CutKind::kPowerCutTornTail};
};

/// Observable counters of a FaultyVfs (for gates and assertions).
struct FaultyVfsStats {
    std::uint64_t creates{0};
    std::uint64_t opens{0};
    std::uint64_t reads{0};
    std::uint64_t writes{0};
    std::uint64_t syncs{0};
    std::uint64_t truncates{0};
    std::uint64_t renames{0};
    std::uint64_t unlinks{0};
    std::uint64_t dirsyncs{0};
    std::uint64_t injected_errors{0};
    std::uint64_t short_writes{0};
    std::uint64_t bit_flips{0};
    std::uint64_t cuts{0};
    std::uint64_t sleeps{0};
};

/// Deterministic in-memory filesystem with an explicit page-cache model:
/// each inode holds cached bytes (`data`) and durable bytes
/// (`durable_data`, advanced only by fsync/fdatasync), and the namespace
/// itself has a cached and a durable view (renames/creates/unlinks
/// become durable only via fsync_parent_dir). A power cut resets both to
/// their durable views and a process crash keeps both, so exactly the
/// crash states the real protocol can produce — and no friendlier ones —
/// are reachable.
///
/// Faults come from the DiskFaultPlan (seeded random mix) and from
/// script_fault() (precise, counted injections for targeted tests).
/// Thread-safe; vfs_mu_ is a leaf lock in tools/lock_hierarchy.txt.
class FaultyVfs : public Vfs {
  public:
    explicit FaultyVfs(DiskFaultPlan plan = {});

    [[nodiscard]] bool file_exists(const std::string& path) override;
    [[nodiscard]] bool dir_exists(const std::string& path) override;
    [[nodiscard]] std::string read_file(const std::string& path) override;
    [[nodiscard]] FileRange read_range(const std::string& path, std::uint64_t offset,
                                       std::uint64_t length) override;
    [[nodiscard]] std::vector<std::string> list_dir(const std::string& dir) override;
    [[nodiscard]] int create_truncate(const std::string& path) override;
    [[nodiscard]] int open_append(const std::string& path) override;
    void write_all(int fd, const std::string& path, std::string_view bytes) override;
    void fsync(int fd, const std::string& path) override;
    void fdatasync(int fd, const std::string& path) override;
    void ftruncate(int fd, const std::string& path, std::uint64_t size) override;
    void close(int fd) noexcept override;
    void rename(const std::string& from, const std::string& to) override;
    void unlink(const std::string& path) override;
    void fsync_parent_dir(const std::string& path) override;
    void sleep_for_micros(std::uint64_t micros) override;

    /// Scripts a precise fault: after `skip` further operations of
    /// category `op`, the next `count` of them (count < 0 = all of them,
    /// forever) fail with `error_code`/`transient`. Scripted faults are
    /// checked before the plan's random draws, in the order added.
    void script_fault(VfsOp op, std::uint64_t skip, std::int64_t count,
                      int error_code, bool transient);

    /// Drops every scripted fault (plan faults keep applying).
    void clear_scripted_faults();

    /// Cuts the process now (between operations) with `kind`: the page
    /// cache is treated as for a plan-scripted cut and all open fds go
    /// stale — a later write through one fails with a persistent error,
    /// close is tolerated. Unlike a plan-scripted cut, nothing is thrown;
    /// the caller is the harness, not the victim.
    void cut(CutKind kind);

    /// XORs `mask` into byte `byte_index` of the stored file (both the
    /// cached and durable images): simulated latent media corruption for
    /// scrubber tests. Throws std::invalid_argument when out of range.
    void corrupt_durable_byte(const std::string& path, std::uint64_t byte_index,
                              std::uint8_t mask);

    /// Mutating operations performed so far (the cut_at_op scale).
    [[nodiscard]] std::uint64_t op_count() const;

    [[nodiscard]] FaultyVfsStats stats() const;

  private:
    struct Inode {
        std::string data;          ///< cached bytes (the page cache view)
        std::string durable_data;  ///< bytes guaranteed to survive a cut
    };
    struct OpenFile {
        std::string path;
        std::shared_ptr<Inode> inode;
        bool stale{false};  ///< fd belonged to a process that was cut
    };
    struct ScriptedFault {
        VfsOp op;
        std::uint64_t skip;
        std::int64_t count;
        int error_code;
        bool transient;
    };

    /// Counts a mutating op, firing the plan's cut when its index comes
    /// up (the op itself then never happens).
    void count_mutating_op_locked(const char* op_name, const std::string& path)
        VNFR_REQUIRES(vfs_mu_);
    /// Applies scripted faults, then the plan's random draws, for one
    /// operation of category `op`. Throws VfsError when one fires.
    void maybe_fail_locked(VfsOp op, const std::string& path,
                           const char* op_name) VNFR_REQUIRES(vfs_mu_);
    [[nodiscard]] bool draw_locked(std::uint64_t category, double rate)
        VNFR_REQUIRES(vfs_mu_);
    void apply_cut_locked(CutKind kind) VNFR_REQUIRES(vfs_mu_);
    /// One read: counts it, applies read faults and returns `length`
    /// bytes of `path` from `offset`, perhaps with one bit flipped per
    /// the plan. Sets `file_size` when given.
    [[nodiscard]] std::string read_locked(const std::string& path, std::uint64_t offset,
                                          std::uint64_t length, std::uint64_t* file_size)
        VNFR_REQUIRES(vfs_mu_);
    [[nodiscard]] std::shared_ptr<Inode> require_inode_locked(
        const std::string& path, const char* op_name) VNFR_REQUIRES(vfs_mu_);
    [[nodiscard]] OpenFile& require_live_fd_locked(int fd, const std::string& path,
                                                   const char* op_name)
        VNFR_REQUIRES(vfs_mu_);

    mutable common::Mutex vfs_mu_;
    DiskFaultPlan plan_ VNFR_GUARDED_BY(vfs_mu_);
    std::map<std::string, std::shared_ptr<Inode>> namespace_ VNFR_GUARDED_BY(vfs_mu_);
    std::map<std::string, std::shared_ptr<Inode>> durable_namespace_
        VNFR_GUARDED_BY(vfs_mu_);
    std::map<int, OpenFile> fds_ VNFR_GUARDED_BY(vfs_mu_);
    int next_fd_ VNFR_GUARDED_BY(vfs_mu_){3};
    std::vector<ScriptedFault> scripted_ VNFR_GUARDED_BY(vfs_mu_);
    std::uint64_t op_count_ VNFR_GUARDED_BY(vfs_mu_){0};
    /// Draw counters per plan category (write error, sync error, short
    /// write, read flip) — counter-based streams, not a shared RNG.
    std::uint64_t draw_counts_[4] VNFR_GUARDED_BY(vfs_mu_){0, 0, 0, 0};
    /// Remaining consecutive failures per category (plan burst model).
    int burst_left_[4] VNFR_GUARDED_BY(vfs_mu_){0, 0, 0, 0};
    FaultyVfsStats stats_ VNFR_GUARDED_BY(vfs_mu_);
};

}  // namespace vnfr::serve
