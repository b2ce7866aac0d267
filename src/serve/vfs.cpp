// The production Vfs: PosixVfs (real syscalls, EINTR-retried,
// RAII-guarded). This file is the single place in src/serve/ where raw
// storage syscalls are allowed — everything else must route through the
// Vfs interface (tools/vnfr_asa.py rule durability-vfs-routing).
#include "serve/vfs.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <thread>

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

}  // namespace

Vfs& posix_vfs() {
    static PosixVfs vfs;
    return vfs;
}

}  // namespace vnfr::serve
