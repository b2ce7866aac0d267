// Virtual filesystem layer for the serve path's durable state.
//
// Every storage syscall in src/serve/ routes through the Vfs interface
// (tools/vnfr_asa.py's durability-vfs-routing rule enforces this): the
// production PosixVfs forwards to the real syscalls with EINTR retry.
// Because nothing else touches the disk, an in-memory backend can stand
// in for it: the deterministic fault-injecting disk the crash tests run
// on lives in src/serve/faults/ and is not part of this library.
//
// Error model: every failed operation throws VfsError carrying the
// path, operation, and errno-style code, plus a transient() bit —
// transient errors (EIO, EAGAIN, ...) are worth a bounded retry with
// backoff (with_storage_retries below), non-transient ones (ENOSPC)
// should degrade the caller instead. Any other exception is not a
// storage failure and propagates untouched: no retry loop or cleanup
// handler in the serve layer catches it.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

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

    /// Backoff sleep hook. PosixVfs really sleeps; an in-memory test
    /// backend may only count the call, keeping its runs fast and
    /// deterministic.
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
/// non-VfsError exception (the fault tests' simulated process death
/// among them) propagate unchanged. `retries`, when given, is
/// incremented once per retry.
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

}  // namespace vnfr::serve
