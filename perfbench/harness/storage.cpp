#include "storage.hpp"

#include <cerrno>
#include <chrono>
#include <thread>

namespace perfbench {

using vnfr::serve::VfsError;

namespace {

std::string parent_of(const std::string& path) {
    const std::size_t slash = path.rfind('/');
    return slash == std::string::npos ? std::string(".") : path.substr(0, slash);
}

bool is_snapshot_file(const std::string& path) {
    const std::size_t slash = path.rfind('/');
    const std::string_view name = slash == std::string::npos
                                      ? std::string_view(path)
                                      : std::string_view(path).substr(slash + 1);
    return name.starts_with("snapshot");
}

}  // namespace

// --- MemVfs -----------------------------------------------------------------

bool MemVfs::file_exists(const std::string& path) {
    return files_.contains(path) || dirs_.contains(path);
}

bool MemVfs::dir_exists(const std::string& path) { return dirs_.contains(path); }

std::string MemVfs::read_file(const std::string& path) {
    const auto it = files_.find(path);
    if (it == files_.end()) throw VfsError(path, "read", ENOENT, false);
    return *it->second;
}

std::vector<std::string> MemVfs::list_dir(const std::string& dir) {
    std::vector<std::string> names;
    const std::string prefix = dir + "/";
    for (auto it = files_.lower_bound(prefix);
         it != files_.end() && it->first.starts_with(prefix); ++it) {
        std::string name = it->first.substr(prefix.size());
        if (name.find('/') == std::string::npos) names.push_back(std::move(name));
    }
    return names;
}

int MemVfs::create_truncate(const std::string& path) {
    if (!dirs_.contains(parent_of(path))) throw VfsError(path, "create", ENOENT, false);
    std::shared_ptr<std::string>& file = files_[path];
    if (file) {
        file->clear();
    } else {
        file = std::make_shared<std::string>();
    }
    fds_[next_fd_] = file;
    return next_fd_++;
}

int MemVfs::open_append(const std::string& path) {
    const auto it = files_.find(path);
    if (it == files_.end()) throw VfsError(path, "open", ENOENT, false);
    fds_[next_fd_] = it->second;
    return next_fd_++;
}

std::string& MemVfs::open_file(int fd, const std::string& path, const char* op) {
    const auto it = fds_.find(fd);
    if (it == fds_.end()) throw VfsError(path, op, EBADF, false);
    return *it->second;
}

void MemVfs::write_all(int fd, const std::string& path, std::string_view bytes) {
    open_file(fd, path, "write").append(bytes);
}

void MemVfs::fsync(int fd, const std::string& path) { open_file(fd, path, "fsync"); }

void MemVfs::fdatasync(int fd, const std::string& path) {
    open_file(fd, path, "fdatasync");
}

void MemVfs::ftruncate(int fd, const std::string& path, std::uint64_t size) {
    open_file(fd, path, "ftruncate").resize(size);
}

void MemVfs::close(int fd) noexcept { fds_.erase(fd); }

void MemVfs::rename(const std::string& from, const std::string& to) {
    auto node = files_.extract(from);
    if (node.empty()) throw VfsError(from, "rename", ENOENT, false);
    files_[to] = std::move(node.mapped());
}

void MemVfs::unlink(const std::string& path) { files_.erase(path); }

void MemVfs::fsync_parent_dir(const std::string& path) {
    if (!dirs_.contains(parent_of(path))) throw VfsError(path, "dirsync", ENOENT, false);
}

void MemVfs::sleep_for_micros(std::uint64_t micros) {
    std::this_thread::sleep_for(std::chrono::microseconds(micros));
}

// --- counts -----------------------------------------------------------------

const char* storage_op_name(StorageOp op) {
    switch (op) {
        case StorageOp::kWrite: return "write";
        case StorageOp::kFdatasync: return "fdatasync";
        case StorageOp::kFsync: return "fsync";
        case StorageOp::kDirSync: return "dirsync";
        case StorageOp::kRename: return "rename";
        case StorageOp::kCreate: return "create";
        case StorageOp::kUnlink: return "unlink";
        case StorageOp::kRead: return "read";
    }
    return "?";
}

std::uint64_t StorageCounts::syncs() const {
    return op(StorageOp::kFdatasync).count + op(StorageOp::kFsync).count +
           op(StorageOp::kDirSync).count;
}

bool StorageCounts::same_counts(const StorageCounts& other) const {
    for (std::size_t i = 0; i < kStorageOpCount; ++i) {
        if (ops[i].count != other.ops[i].count) return false;
    }
    return snapshot_bytes == other.snapshot_bytes && wal_bytes == other.wal_bytes;
}

StorageCounts StorageCounts::since(const StorageCounts& earlier) const {
    StorageCounts out;
    for (std::size_t i = 0; i < kStorageOpCount; ++i) {
        out.ops[i].count = ops[i].count - earlier.ops[i].count;
        out.ops[i].busy_ns = ops[i].busy_ns - earlier.ops[i].busy_ns;
    }
    out.snapshot_bytes = snapshot_bytes - earlier.snapshot_bytes;
    out.wal_bytes = wal_bytes - earlier.wal_bytes;
    return out;
}

// --- CountingVfs ------------------------------------------------------------

template <typename Fn>
auto CountingVfs::counted(StorageOp op, Fn&& fn) -> decltype(fn()) {
    StorageCounts::Op& slot = counts_.ops[static_cast<std::size_t>(op)];
    ++slot.count;
    if (!timed_) return fn();
    struct AddElapsed {
        std::uint64_t& busy_ns;
        std::chrono::steady_clock::time_point start = std::chrono::steady_clock::now();
        ~AddElapsed() {
            busy_ns += static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - start)
                    .count());
        }
    } timer{slot.busy_ns};
    return fn();
}

bool CountingVfs::file_exists(const std::string& path) { return inner_.file_exists(path); }

bool CountingVfs::dir_exists(const std::string& path) { return inner_.dir_exists(path); }

std::string CountingVfs::read_file(const std::string& path) {
    return counted(StorageOp::kRead, [&] { return inner_.read_file(path); });
}

std::vector<std::string> CountingVfs::list_dir(const std::string& dir) {
    return inner_.list_dir(dir);
}

int CountingVfs::create_truncate(const std::string& path) {
    return counted(StorageOp::kCreate, [&] { return inner_.create_truncate(path); });
}

int CountingVfs::open_append(const std::string& path) { return inner_.open_append(path); }

void CountingVfs::write_all(int fd, const std::string& path, std::string_view bytes) {
    counted(StorageOp::kWrite, [&] { inner_.write_all(fd, path, bytes); });
    (is_snapshot_file(path) ? counts_.snapshot_bytes : counts_.wal_bytes) += bytes.size();
}

void CountingVfs::fsync(int fd, const std::string& path) {
    counted(StorageOp::kFsync, [&] { inner_.fsync(fd, path); });
}

void CountingVfs::fdatasync(int fd, const std::string& path) {
    counted(StorageOp::kFdatasync, [&] { inner_.fdatasync(fd, path); });
}

void CountingVfs::ftruncate(int fd, const std::string& path, std::uint64_t size) {
    inner_.ftruncate(fd, path, size);
}

void CountingVfs::close(int fd) noexcept { inner_.close(fd); }

void CountingVfs::rename(const std::string& from, const std::string& to) {
    counted(StorageOp::kRename, [&] { inner_.rename(from, to); });
}

void CountingVfs::unlink(const std::string& path) {
    counted(StorageOp::kUnlink, [&] { inner_.unlink(path); });
}

void CountingVfs::fsync_parent_dir(const std::string& path) {
    counted(StorageOp::kDirSync, [&] { inner_.fsync_parent_dir(path); });
}

void CountingVfs::sleep_for_micros(std::uint64_t micros) { inner_.sleep_for_micros(micros); }

}  // namespace perfbench
