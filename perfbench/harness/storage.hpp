// Storage under the serve workloads.
//
// MemVfs keeps a controller's data directory in process memory. Every byte
// the serve layer writes lands in a std::string, and the durability
// barriers (fsync, fdatasync, directory fsync) return at once, as they do
// on tmpfs. The benchmark writes only inside its checkout, and a disk's
// sync latency varies about 2x from run to run, so the serve workloads
// keep their state here. Device cost is tracked instead by the exact
// per-request operation and byte counts CountingVfs takes.
//
// CountingVfs forwards every call to another Vfs (MemVfs, or posix_vfs()
// in the storage self-check and the traced disk pass) and counts
// operations and bytes written, split into snapshot and WAL files. With
// timing on, which only the disk pass over posix_vfs() uses, it also adds
// up the wall time spent inside each forwarded operation.
//
// Neither class locks: the admission controller calls its Vfs only while
// holding its own mutex, and the harness reads the counters after the
// serving threads have joined.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "serve/vfs.hpp"

namespace perfbench {

class MemVfs final : public vnfr::serve::Vfs {
  public:
    /// Creates an (empty) directory; files may be created directly under it.
    void make_dir(const std::string& dir) { dirs_.insert(dir); }

    [[nodiscard]] bool file_exists(const std::string& path) override;
    [[nodiscard]] bool dir_exists(const std::string& path) override;
    [[nodiscard]] std::string read_file(const std::string& path) override;
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

  private:
    std::string& open_file(int fd, const std::string& path, const char* op);

    std::set<std::string> dirs_;
    /// Files are shared with open fds, so an fd keeps its file across a
    /// rename, as an inode would.
    std::map<std::string, std::shared_ptr<std::string>> files_;
    std::map<int, std::shared_ptr<std::string>> fds_;
    int next_fd_{3};
};

/// The storage operations CountingVfs counts (perfbench metric names).
enum class StorageOp : std::uint8_t {
    kWrite,
    kFdatasync,
    kFsync,
    kDirSync,
    kRename,
    kCreate,
    kUnlink,
    kRead,
};
inline constexpr std::size_t kStorageOpCount = 8;
const char* storage_op_name(StorageOp op);

struct StorageCounts {
    struct Op {
        std::uint64_t count{0};
        std::uint64_t busy_ns{0};  ///< only with timing on
    };
    std::array<Op, kStorageOpCount> ops{};
    std::uint64_t snapshot_bytes{0};  ///< written to snapshot.bin and its temp
    std::uint64_t wal_bytes{0};       ///< written to wal-*.log and their temps

    [[nodiscard]] const Op& op(StorageOp which) const {
        return ops[static_cast<std::size_t>(which)];
    }
    [[nodiscard]] std::uint64_t syncs() const;
    [[nodiscard]] std::uint64_t bytes() const { return snapshot_bytes + wal_bytes; }
    /// Same operation counts and bytes written (timings aside).
    [[nodiscard]] bool same_counts(const StorageCounts& other) const;
    /// Counts accumulated since `earlier` was taken.
    [[nodiscard]] StorageCounts since(const StorageCounts& earlier) const;
};

class CountingVfs final : public vnfr::serve::Vfs {
  public:
    CountingVfs(vnfr::serve::Vfs& inner, bool timed) : inner_(inner), timed_(timed) {}

    [[nodiscard]] const StorageCounts& counts() const { return counts_; }

    [[nodiscard]] bool file_exists(const std::string& path) override;
    [[nodiscard]] bool dir_exists(const std::string& path) override;
    [[nodiscard]] std::string read_file(const std::string& path) override;
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

  private:
    /// Counts one `op` and, with timing on, the time `fn` takes.
    template <typename Fn>
    auto counted(StorageOp op, Fn&& fn) -> decltype(fn());

    vnfr::serve::Vfs& inner_;
    bool timed_;
    StorageCounts counts_;
};

}  // namespace perfbench
