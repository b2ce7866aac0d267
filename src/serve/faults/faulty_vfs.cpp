// FaultyVfs: the in-memory disk and page-cache model with seeded and
// scripted fault injection (see faulty_vfs.hpp).
#include "serve/faults/faulty_vfs.hpp"

#include <cerrno>
#include <limits>

#include "common/rng.hpp"

namespace vnfr::serve {

namespace {

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
