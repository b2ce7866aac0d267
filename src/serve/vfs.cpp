// The two Vfs implementations: PosixVfs (real syscalls, EINTR-retried,
// RAII-guarded) and FaultyVfs (deterministic in-memory disk + page cache
// with seeded fault injection). This file is the single place in
// src/serve/ where raw storage syscalls are allowed — everything else
// must route through the Vfs interface (tools/vnfr_asa.py rule
// durability-vfs-routing).
#include "serve/vfs.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <limits>
#include <thread>

#include "common/rng.hpp"

namespace vnfr::serve {

FileRange Vfs::read_range(const std::string& path, std::uint64_t offset,
                          std::uint64_t length) {
    FileRange out;
    std::string whole = read_file(path);
    out.file_size = whole.size();
    if (offset < whole.size()) out.bytes = whole.substr(offset, length);
    return out;
}

namespace {

/// Errno values worth a bounded retry: spurious I/O errors and resource
/// pressure that may clear. ENOSPC is deliberately absent — a full disk
/// does not heal on a 50us backoff; callers degrade instead.
bool errno_is_transient(int code) {
    return code == EIO || code == EAGAIN || code == ENOMEM || code == EBUSY;
}

[[noreturn]] void throw_vfs_errno(const std::string& path, const char* op) {
    const int code = errno;
    throw VfsError(path, op, code, errno_is_transient(code));
}

int open_retry(const std::string& path, int flags, mode_t mode) {
    for (;;) {
        const int fd = ::open(path.c_str(), flags, mode);
        if (fd >= 0 || errno != EINTR) return fd;
    }
}

class PosixVfs final : public Vfs {
  public:
    [[nodiscard]] bool file_exists(const std::string& path) override {
        struct stat st{};
        return ::stat(path.c_str(), &st) == 0;
    }

    [[nodiscard]] bool dir_exists(const std::string& path) override {
        struct stat st{};
        return ::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
    }

    [[nodiscard]] std::string read_file(const std::string& path) override {
        const int raw = open_retry(path, O_RDONLY | O_CLOEXEC, 0);
        if (raw < 0) throw_vfs_errno(path, "open");
        VfsFdGuard fd(*this, raw);
        std::string out;
        char buf[1 << 16];
        for (;;) {
            const ssize_t n = ::read(fd.get(), buf, sizeof buf);
            if (n < 0) {
                if (errno == EINTR) continue;
                throw_vfs_errno(path, "read");
            }
            if (n == 0) break;
            out.append(buf, static_cast<std::size_t>(n));
        }
        return out;
    }

    [[nodiscard]] FileRange read_range(const std::string& path, std::uint64_t offset,
                                       std::uint64_t length) override {
        const int raw = open_retry(path, O_RDONLY | O_CLOEXEC, 0);
        if (raw < 0) throw_vfs_errno(path, "open");
        VfsFdGuard fd(*this, raw);
        struct stat st{};
        if (::fstat(fd.get(), &st) != 0) throw_vfs_errno(path, "fstat");
        FileRange out;
        out.file_size = static_cast<std::uint64_t>(st.st_size);
        if (offset >= out.file_size) return out;
        out.bytes.resize(static_cast<std::size_t>(std::min(length, out.file_size - offset)));
        std::size_t done = 0;
        while (done < out.bytes.size()) {
            const ssize_t n = ::pread(fd.get(), out.bytes.data() + done, out.bytes.size() - done,
                                      static_cast<off_t>(offset + done));
            if (n < 0) {
                if (errno == EINTR) continue;
                throw_vfs_errno(path, "read");
            }
            if (n == 0) break;  // the file shrank under us
            done += static_cast<std::size_t>(n);
        }
        out.bytes.resize(done);
        return out;
    }

    [[nodiscard]] std::vector<std::string> list_dir(const std::string& dir) override {
        std::vector<std::string> names;
        DIR* handle = ::opendir(dir.c_str());
        if (handle == nullptr) return names;
        while (const dirent* entry = ::readdir(handle)) {
            const std::string name = entry->d_name;
            if (name == "." || name == "..") continue;
            names.push_back(name);
        }
        ::closedir(handle);
        std::sort(names.begin(), names.end());
        return names;
    }

    [[nodiscard]] int create_truncate(const std::string& path) override {
        const int fd =
            open_retry(path, O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
        if (fd < 0) throw_vfs_errno(path, "create");
        return fd;
    }

    [[nodiscard]] int open_append(const std::string& path) override {
        const int fd = open_retry(path, O_WRONLY | O_APPEND | O_CLOEXEC, 0);
        if (fd < 0) throw_vfs_errno(path, "open for append");
        return fd;
    }

    void write_all(int fd, const std::string& path, std::string_view bytes) override {
        std::size_t done = 0;
        while (done < bytes.size()) {
            const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
            if (n < 0) {
                if (errno == EINTR) continue;
                throw_vfs_errno(path, "write");
            }
            done += static_cast<std::size_t>(n);
        }
    }

    void fsync(int fd, const std::string& path) override {
        while (::fsync(fd) != 0) {
            if (errno == EINTR) continue;
            throw_vfs_errno(path, "fsync");
        }
    }

    void fdatasync(int fd, const std::string& path) override {
        while (::fdatasync(fd) != 0) {
            if (errno == EINTR) continue;
            throw_vfs_errno(path, "fdatasync");
        }
    }

    void ftruncate(int fd, const std::string& path, std::uint64_t size) override {
        while (::ftruncate(fd, static_cast<off_t>(size)) != 0) {
            if (errno == EINTR) continue;
            throw_vfs_errno(path, "ftruncate");
        }
    }

    void close(int fd) noexcept override {
        // Best-effort by contract: callers fsync before relying on the
        // bytes, so a close error carries nothing actionable.
        ::close(fd);
    }

    void rename(const std::string& from, const std::string& to) override {
        if (::rename(from.c_str(), to.c_str()) != 0) {
            throw_vfs_errno(from, "rename");
        }
    }

    void unlink(const std::string& path) override {
        if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
            throw_vfs_errno(path, "unlink");
        }
    }

    void fsync_parent_dir(const std::string& path) override {
        const std::size_t slash = path.find_last_of('/');
        const std::string dir =
            slash == std::string::npos ? "." : path.substr(0, slash);
        const int raw = open_retry(dir, O_RDONLY | O_DIRECTORY | O_CLOEXEC, 0);
        if (raw < 0) throw_vfs_errno(dir, "open directory");
        VfsFdGuard fd(*this, raw);
        while (::fsync(fd.get()) != 0) {
            if (errno == EINTR) continue;
            throw_vfs_errno(dir, "fsync directory");
        }
    }

    void sleep_for_micros(std::uint64_t micros) override {
        std::this_thread::sleep_for(std::chrono::microseconds(micros));
    }
};

/// Directory part of a flat-namespace path ("" for bare names).
std::string parent_of(const std::string& path) {
    const std::size_t slash = path.find_last_of('/');
    return slash == std::string::npos ? std::string() : path.substr(0, slash);
}

/// Plan draw categories (indices into draw_counts_ / burst_left_).
constexpr std::uint64_t kCatWriteError = 0;
constexpr std::uint64_t kCatSyncError = 1;
constexpr std::uint64_t kCatShortWrite = 2;
constexpr std::uint64_t kCatReadFlip = 3;

}  // namespace

const char* cut_kind_name(CutKind kind) {
    switch (kind) {
        case CutKind::kProcessCrash:
            return "process crash";
        case CutKind::kPowerCutTornTail:
            return "power cut (torn tail)";
        case CutKind::kPowerCutClean:
            return "power cut (clean)";
    }
    return "unknown cut";
}

Vfs& posix_vfs() {
    static PosixVfs vfs;
    return vfs;
}

// ---------------------------------------------------------------------------
// FaultyVfs
// ---------------------------------------------------------------------------

FaultyVfs::FaultyVfs(DiskFaultPlan plan) {
    common::MutexLock lock(&vfs_mu_);
    plan_ = plan;
}

void FaultyVfs::count_mutating_op_locked(const char* op_name,
                                         const std::string& path) {
    ++op_count_;
    if (plan_.cut_at_op != 0 && op_count_ == plan_.cut_at_op) {
        plan_.cut_at_op = 0;  // one-shot
        apply_cut_locked(plan_.cut_kind);
        throw CrashInjected(plan_.cut_kind, op_count_, op_name, path);
    }
}

bool FaultyVfs::draw_locked(std::uint64_t category, double rate) {
    const std::uint64_t counter = draw_counts_[category]++;
    if (rate <= 0.0) return false;
    common::Rng rng = common::stream_rng(
        plan_.seed, (category + 1) * 0x100000000ULL + counter);
    return rng.bernoulli(rate);
}

void FaultyVfs::maybe_fail_locked(VfsOp op, const std::string& path,
                                  const char* op_name) {
    for (ScriptedFault& fault : scripted_) {
        if (fault.op != op || fault.count == 0) continue;
        if (fault.skip > 0) {
            --fault.skip;
            break;  // this op is absorbed by the leading skip window
        }
        if (fault.count > 0) --fault.count;
        ++stats_.injected_errors;
        throw VfsError(path, op_name, fault.error_code, fault.transient);
    }
    const std::uint64_t category = op == VfsOp::kWrite  ? kCatWriteError
                                   : op == VfsOp::kSync ? kCatSyncError
                                                        : ~0ULL;
    if (category == ~0ULL) return;  // plan rates cover writes and syncs only
    if (burst_left_[category] > 0) {
        --burst_left_[category];
        ++stats_.injected_errors;
        throw VfsError(path, op_name, EIO, true);
    }
    const double rate = category == kCatWriteError ? plan_.write_error_rate
                                                   : plan_.sync_error_rate;
    if (draw_locked(category, rate)) {
        burst_left_[category] = plan_.transient_failures - 1;
        ++stats_.injected_errors;
        throw VfsError(path, op_name, EIO, true);
    }
}

std::shared_ptr<FaultyVfs::Inode> FaultyVfs::require_inode_locked(
    const std::string& path, const char* op_name) {
    const auto it = namespace_.find(path);
    if (it == namespace_.end()) {
        throw VfsError(path, op_name, ENOENT, false);
    }
    return it->second;
}

FaultyVfs::OpenFile& FaultyVfs::require_live_fd_locked(int fd,
                                                       const std::string& path,
                                                       const char* op_name) {
    const auto it = fds_.find(fd);
    if (it == fds_.end()) {
        throw VfsError(path, op_name, EBADF, false);
    }
    if (it->second.stale) {
        // The fd belonged to the pre-cut process: its writes can never
        // reach the (rebooted) disk. Persistent by construction.
        throw VfsError(path, op_name, EIO, false);
    }
    return it->second;
}

void FaultyVfs::apply_cut_locked(CutKind kind) {
    const std::uint64_t cut_index = stats_.cuts++;
    for (auto& [fd, open_file] : fds_) {
        open_file.stale = true;
    }
    // A process crash ends here: the page cache belongs to the kernel,
    // which is still up, so cached bytes and names stay visible.
    if (kind == CutKind::kProcessCrash) return;
    // The namespace collapses to its durable view: renames, creations,
    // and unlinks that never saw a directory sync un-happen.
    namespace_ = durable_namespace_;
    common::Rng rng = common::stream_rng(plan_.seed, 0x700000000ULL + cut_index);
    for (const auto& [path, inode] : namespace_) {
        if (kind == CutKind::kPowerCutTornTail &&
            inode->durable_data.size() < inode->data.size() &&
            inode->data.compare(0, inode->durable_data.size(),
                                inode->durable_data) == 0) {
            // Torn tail: the durable bytes plus a random prefix of the
            // un-synced suffix survived — what an interrupted append
            // leaves behind on a real disk.
            const std::uint64_t suffix =
                inode->data.size() - inode->durable_data.size();
            const std::uint64_t keep = static_cast<std::uint64_t>(
                rng.uniform_int(0, static_cast<std::int64_t>(suffix)));
            inode->data.resize(inode->durable_data.size() + keep);
        } else {
            inode->data = inode->durable_data;
        }
    }
}

bool FaultyVfs::file_exists(const std::string& path) {
    common::MutexLock lock(&vfs_mu_);
    return namespace_.count(path) != 0;
}

bool FaultyVfs::dir_exists(const std::string&) {
    // Flat namespace: every directory implicitly exists.
    return true;
}

std::string FaultyVfs::read_file(const std::string& path) {
    common::MutexLock lock(&vfs_mu_);
    return read_locked(path, 0, std::numeric_limits<std::uint64_t>::max(), nullptr);
}

FileRange FaultyVfs::read_range(const std::string& path, std::uint64_t offset,
                                std::uint64_t length) {
    common::MutexLock lock(&vfs_mu_);
    FileRange out;
    out.bytes = read_locked(path, offset, length, &out.file_size);
    return out;
}

std::string FaultyVfs::read_locked(const std::string& path, std::uint64_t offset,
                                   std::uint64_t length, std::uint64_t* file_size) {
    ++stats_.reads;
    maybe_fail_locked(VfsOp::kRead, path, "read");
    const std::shared_ptr<Inode> inode = require_inode_locked(path, "open");
    if (file_size != nullptr) *file_size = inode->data.size();
    std::string out = offset < inode->data.size() ? inode->data.substr(offset, length)
                                                  : std::string();
    if (!out.empty() && draw_locked(kCatReadFlip, plan_.read_flip_rate)) {
        // One flipped bit in the returned copy only: latent corruption
        // surfacing on read. The stored image is untouched.
        common::Rng rng =
            common::stream_rng(plan_.seed, 0x500000000ULL + stats_.bit_flips);
        const auto byte = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(out.size()) - 1));
        const auto bit = static_cast<int>(rng.uniform_int(0, 7));
        out[byte] = static_cast<char>(static_cast<unsigned char>(out[byte]) ^
                                      (1U << bit));
        ++stats_.bit_flips;
    }
    return out;
}

std::vector<std::string> FaultyVfs::list_dir(const std::string& dir) {
    common::MutexLock lock(&vfs_mu_);
    std::vector<std::string> names;
    for (const auto& [path, inode] : namespace_) {
        if (parent_of(path) != dir) continue;
        const std::size_t slash = path.find_last_of('/');
        names.push_back(slash == std::string::npos ? path
                                                   : path.substr(slash + 1));
    }
    return names;  // std::map iteration: already sorted
}

int FaultyVfs::create_truncate(const std::string& path) {
    common::MutexLock lock(&vfs_mu_);
    ++stats_.creates;
    count_mutating_op_locked("create", path);
    maybe_fail_locked(VfsOp::kCreate, path, "create");
    std::shared_ptr<Inode> inode;
    const auto it = namespace_.find(path);
    if (it != namespace_.end()) {
        inode = it->second;
        // O_TRUNC clears the cache view; durable bytes shrink only via a
        // later fsync (an un-synced truncation does not survive a cut).
        inode->data.clear();
    } else {
        inode = std::make_shared<Inode>();
        namespace_[path] = inode;
    }
    const int fd = next_fd_++;
    fds_[fd] = OpenFile{path, std::move(inode), false};
    return fd;
}

int FaultyVfs::open_append(const std::string& path) {
    common::MutexLock lock(&vfs_mu_);
    ++stats_.opens;
    maybe_fail_locked(VfsOp::kOpen, path, "open for append");
    std::shared_ptr<Inode> inode = require_inode_locked(path, "open for append");
    const int fd = next_fd_++;
    fds_[fd] = OpenFile{path, std::move(inode), false};
    return fd;
}

void FaultyVfs::write_all(int fd, const std::string& path, std::string_view bytes) {
    common::MutexLock lock(&vfs_mu_);
    ++stats_.writes;
    count_mutating_op_locked("write", path);
    OpenFile& open_file = require_live_fd_locked(fd, path, "write");
    maybe_fail_locked(VfsOp::kWrite, path, "write");
    bool short_write = false;
    if (burst_left_[kCatShortWrite] > 0) {
        --burst_left_[kCatShortWrite];
        short_write = true;
    } else if (draw_locked(kCatShortWrite, plan_.short_write_rate)) {
        burst_left_[kCatShortWrite] = plan_.transient_failures - 1;
        short_write = true;
    }
    if (short_write && !bytes.empty()) {
        // A strict prefix reaches the cache, then the write errors out —
        // the torn shape retry paths must rewind before rewriting.
        common::Rng rng =
            common::stream_rng(plan_.seed, 0x600000000ULL + stats_.short_writes);
        const auto keep = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(bytes.size()) - 1));
        open_file.inode->data.append(bytes.substr(0, keep));
        ++stats_.short_writes;
        ++stats_.injected_errors;
        throw VfsError(path, "write", EIO, true);
    }
    open_file.inode->data.append(bytes);
}

void FaultyVfs::fsync(int fd, const std::string& path) {
    common::MutexLock lock(&vfs_mu_);
    ++stats_.syncs;
    count_mutating_op_locked("fsync", path);
    OpenFile& open_file = require_live_fd_locked(fd, path, "fsync");
    maybe_fail_locked(VfsOp::kSync, path, "fsync");
    open_file.inode->durable_data = open_file.inode->data;
}

void FaultyVfs::fdatasync(int fd, const std::string& path) {
    common::MutexLock lock(&vfs_mu_);
    ++stats_.syncs;
    count_mutating_op_locked("fdatasync", path);
    OpenFile& open_file = require_live_fd_locked(fd, path, "fdatasync");
    maybe_fail_locked(VfsOp::kSync, path, "fdatasync");
    open_file.inode->durable_data = open_file.inode->data;
}

void FaultyVfs::ftruncate(int fd, const std::string& path, std::uint64_t size) {
    common::MutexLock lock(&vfs_mu_);
    ++stats_.truncates;
    count_mutating_op_locked("ftruncate", path);
    OpenFile& open_file = require_live_fd_locked(fd, path, "ftruncate");
    maybe_fail_locked(VfsOp::kTruncate, path, "ftruncate");
    open_file.inode->data.resize(size, '\0');
}

void FaultyVfs::close(int fd) noexcept {
    common::MutexLock lock(&vfs_mu_);
    fds_.erase(fd);
}

void FaultyVfs::rename(const std::string& from, const std::string& to) {
    common::MutexLock lock(&vfs_mu_);
    ++stats_.renames;
    count_mutating_op_locked("rename", from);
    maybe_fail_locked(VfsOp::kRename, from, "rename");
    std::shared_ptr<Inode> inode = require_inode_locked(from, "rename");
    namespace_[to] = std::move(inode);
    if (from != to) namespace_.erase(from);
}

void FaultyVfs::unlink(const std::string& path) {
    common::MutexLock lock(&vfs_mu_);
    ++stats_.unlinks;
    count_mutating_op_locked("unlink", path);
    maybe_fail_locked(VfsOp::kUnlink, path, "unlink");
    namespace_.erase(path);  // missing files are tolerated by contract
}

void FaultyVfs::fsync_parent_dir(const std::string& path) {
    common::MutexLock lock(&vfs_mu_);
    ++stats_.dirsyncs;
    count_mutating_op_locked("fsync directory", path);
    maybe_fail_locked(VfsOp::kDirSync, path, "fsync directory");
    // The durable view of this directory becomes its cached view: new
    // entries appear, renamed-away and unlinked entries disappear.
    const std::string dir = parent_of(path);
    for (auto it = durable_namespace_.begin(); it != durable_namespace_.end();) {
        if (parent_of(it->first) == dir) {
            it = durable_namespace_.erase(it);
        } else {
            ++it;
        }
    }
    for (const auto& [entry, inode] : namespace_) {
        if (parent_of(entry) == dir) durable_namespace_[entry] = inode;
    }
}

void FaultyVfs::sleep_for_micros(std::uint64_t) {
    common::MutexLock lock(&vfs_mu_);
    ++stats_.sleeps;  // deterministic runs never really sleep
}

void FaultyVfs::set_plan(const DiskFaultPlan& plan) {
    common::MutexLock lock(&vfs_mu_);
    plan_ = plan;
    for (int& burst : burst_left_) burst = 0;
}

void FaultyVfs::script_fault(VfsOp op, std::uint64_t skip, std::int64_t count,
                             int error_code, bool transient) {
    common::MutexLock lock(&vfs_mu_);
    scripted_.push_back(ScriptedFault{op, skip, count, error_code, transient});
}

void FaultyVfs::clear_scripted_faults() {
    common::MutexLock lock(&vfs_mu_);
    scripted_.clear();
}

void FaultyVfs::cut(CutKind kind) {
    common::MutexLock lock(&vfs_mu_);
    apply_cut_locked(kind);
}

void FaultyVfs::corrupt_durable_byte(const std::string& path,
                                     std::uint64_t byte_index, std::uint8_t mask) {
    common::MutexLock lock(&vfs_mu_);
    const auto it = namespace_.find(path);
    if (it == namespace_.end()) {
        throw std::invalid_argument("corrupt_durable_byte: no such file " + path);
    }
    Inode& inode = *it->second;
    if (byte_index >= inode.data.size()) {
        throw std::invalid_argument("corrupt_durable_byte: offset " +
                                    std::to_string(byte_index) + " outside " +
                                    path);
    }
    inode.data[byte_index] = static_cast<char>(
        static_cast<unsigned char>(inode.data[byte_index]) ^ mask);
    if (byte_index < inode.durable_data.size()) {
        inode.durable_data[byte_index] = static_cast<char>(
            static_cast<unsigned char>(inode.durable_data[byte_index]) ^ mask);
    }
}

std::uint64_t FaultyVfs::op_count() const {
    common::MutexLock lock(&vfs_mu_);
    return op_count_;
}

FaultyVfsStats FaultyVfs::stats() const {
    common::MutexLock lock(&vfs_mu_);
    return stats_;
}

}  // namespace vnfr::serve
