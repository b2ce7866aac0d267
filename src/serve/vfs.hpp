// Virtual filesystem layer for the serve path's durable state.
//
// Every storage syscall in src/serve/ routes through the Vfs interface
// (tools/vnfr_asa.py's durability-vfs-routing rule enforces this): the
// production PosixVfs forwards to the real syscalls with EINTR retry,
// while the deterministic FaultyVfs simulates a disk plus its page
// cache entirely in memory, driven by a replayable seeded DiskFaultPlan
// — EIO/ENOSPC injection, short writes, read-side bit flips, and
// scripted cuts at a mutating-op index: a process crash (the page cache
// survives) or a power cut (every un-fsync'ed byte is discarded). That
// turns the durable-first ordering claims of DESIGN.md 6c–6f into
// properties a test can falsify instead of assumptions about the disk.
//
// Error model: every failed operation throws VfsError carrying the
// path, operation, and errno-style code, plus a transient() bit —
// transient errors (EIO, EAGAIN, ...) are worth a bounded retry with
// backoff (with_storage_retries below), non-transient ones (ENOSPC)
// should degrade the caller instead. A scripted cut throws
// CrashInjected, which deliberately is NOT a VfsError so no retry loop
// can swallow the simulated death of the process.
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

namespace vnfr::serve {

/// Thrown by Vfs operations on failure. `transient()` distinguishes
/// retry-worthy conditions (spurious EIO, EAGAIN) from persistent ones
/// (ENOSPC): retry loops must give up immediately on the latter.
class VfsError : public std::runtime_error {
  public:
    VfsError(std::string path, std::string op, int code, bool transient)
        : std::runtime_error(path + ": " + op + " failed (errno " +
                             std::to_string(code) +
                             (transient ? ", transient)" : ", persistent)")),
          path_(std::move(path)),
          op_(std::move(op)),
          code_(code),
          transient_(transient) {}

    [[nodiscard]] const std::string& path() const { return path_; }
    [[nodiscard]] const std::string& op() const { return op_; }
    [[nodiscard]] int code() const { return code_; }
    [[nodiscard]] bool transient() const { return transient_; }

  private:
    std::string path_;
    std::string op_;
    int code_;
    bool transient_;
};

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

/// Bounded exponential backoff for transient storage errors. Attempt n
/// sleeps initial_backoff_micros * multiplier^(n-1), capped; after
/// max_attempts total attempts the error propagates.
struct StorageRetryPolicy {
    int max_attempts{4};
    std::uint64_t initial_backoff_micros{50};
    double multiplier{8.0};
    std::uint64_t max_backoff_micros{5000};
};

/// What Vfs::read_range returns: the bytes read and the file's size.
struct FileRange {
    std::string bytes;
    std::uint64_t file_size{0};
};

/// Abstract storage interface. Paths are plain strings (the serve layer
/// only ever uses flat data directories); fds are opaque ints scoped to
/// the Vfs instance that issued them. All methods throw VfsError on
/// failure unless noted.
class Vfs {
  public:
    virtual ~Vfs() = default;

    /// True when `path` exists (any file type).
    [[nodiscard]] virtual bool file_exists(const std::string& path) = 0;

    /// True when `path` exists and is a directory.
    [[nodiscard]] virtual bool dir_exists(const std::string& path) = 0;

    /// Reads the whole file. A missing file throws VfsError with code
    /// ENOENT (transient() false).
    [[nodiscard]] virtual std::string read_file(const std::string& path) = 0;

    /// Reads at most `length` bytes of `path` from byte `offset` (fewer
    /// where the file ends first) together with the file's size, so a
    /// caller that needs a header or a prefix pays only for those bytes.
    /// A missing file throws as read_file does. The default reads the
    /// whole file; backends that can seek override it.
    [[nodiscard]] virtual FileRange read_range(const std::string& path, std::uint64_t offset,
                                               std::uint64_t length);

    /// Names (not paths) of the entries directly under `dir`, sorted.
    /// Non-throwing: an unreadable or missing directory yields empty.
    [[nodiscard]] virtual std::vector<std::string> list_dir(
        const std::string& dir) = 0;

    /// Opens `path` for writing, creating it or truncating an existing
    /// file to zero length. Returns the fd.
    [[nodiscard]] virtual int create_truncate(const std::string& path) = 0;

    /// Opens an existing `path` in append mode (every write lands at the
    /// current end of file, O_APPEND semantics). Returns the fd.
    [[nodiscard]] virtual int open_append(const std::string& path) = 0;

    /// Writes all of `bytes` to `fd` (looping over partial writes).
    virtual void write_all(int fd, const std::string& path,
                           std::string_view bytes) = 0;

    /// Flushes data and metadata of `fd` to stable storage.
    virtual void fsync(int fd, const std::string& path) = 0;

    /// Flushes the data of `fd` to stable storage.
    virtual void fdatasync(int fd, const std::string& path) = 0;

    /// Truncates (or zero-extends) the file behind `fd` to `size` bytes.
    virtual void ftruncate(int fd, const std::string& path,
                           std::uint64_t size) = 0;

    /// Closes `fd`. Best-effort: never throws, unknown fds are ignored
    /// (after an fsync has confirmed durability, a close error carries
    /// no information the caller can act on).
    virtual void close(int fd) noexcept = 0;

    /// Atomically replaces `to` with `from` (same directory).
    virtual void rename(const std::string& from, const std::string& to) = 0;

    /// Removes `path`. A missing file is not an error (idempotent
    /// cleanup); other failures throw.
    virtual void unlink(const std::string& path) = 0;

    /// Fsyncs the directory containing `path`, making its directory
    /// entries (renames, unlinks, creations) durable.
    virtual void fsync_parent_dir(const std::string& path) = 0;

    /// Backoff sleep hook. PosixVfs really sleeps; FaultyVfs only counts
    /// the call, keeping fault-injection runs fast and deterministic.
    virtual void sleep_for_micros(std::uint64_t micros) = 0;
};

/// The shared process-wide PosixVfs (stateless, thread-safe).
[[nodiscard]] Vfs& posix_vfs();

/// RAII fd ownership over a Vfs fd: closes on destruction unless
/// release()d. The serve layer's answer to descriptor leaks on throw
/// paths.
class VfsFdGuard {
  public:
    VfsFdGuard(Vfs& vfs, int fd) : vfs_(&vfs), fd_(fd) {}
    ~VfsFdGuard() { close(); }

    VfsFdGuard(const VfsFdGuard&) = delete;
    VfsFdGuard& operator=(const VfsFdGuard&) = delete;

    [[nodiscard]] int get() const { return fd_; }

    /// Hands ownership to the caller; the guard will no longer close.
    [[nodiscard]] int release() {
        const int fd = fd_;
        fd_ = -1;
        return fd;
    }

    /// Closes now (idempotent; the destructor becomes a no-op).
    void close() noexcept {
        if (fd_ >= 0) {
            vfs_->close(fd_);
            fd_ = -1;
        }
    }

  private:
    Vfs* vfs_;
    int fd_;
};

/// Runs `fn`, retrying transient VfsErrors per `policy` with exponential
/// backoff. Non-transient errors, exhausted attempts, and every
/// non-VfsError exception (CrashInjected in particular) propagate
/// unchanged. `retries`, when given, is incremented once per retry.
template <typename Fn>
auto with_storage_retries(Vfs& vfs, const StorageRetryPolicy& policy, Fn&& fn,
                          std::uint64_t* retries = nullptr) -> decltype(fn()) {
    std::uint64_t backoff = policy.initial_backoff_micros;
    for (int attempt = 1;; ++attempt) {
        try {
            return fn();
        } catch (const VfsError& err) {
            if (!err.transient() || attempt >= policy.max_attempts) throw;
            if (retries != nullptr) ++*retries;
            vfs.sleep_for_micros(backoff);
            const double next = static_cast<double>(backoff) * policy.multiplier;
            backoff = next > static_cast<double>(policy.max_backoff_micros)
                          ? policy.max_backoff_micros
                          : static_cast<std::uint64_t>(next);
        }
    }
}

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

    /// Replaces the fault plan (counters keep running; the cut index of
    /// the new plan is compared against the ongoing op count).
    void set_plan(const DiskFaultPlan& plan);

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
