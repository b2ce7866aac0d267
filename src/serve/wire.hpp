// Binary framing primitives for the serve layer's durable state files:
// little-endian encode/decode buffers, CRC-32 (IEEE 802.3, the zlib
// polynomial) for integrity guards, and the error type every corrupt
// snapshot/WAL path reports through.
//
// Every multi-byte value is written little-endian regardless of host
// order, and doubles travel as their IEEE-754 bit pattern, so files are
// byte-identical across machines and re-reading them reconstructs values
// bit-for-bit — the foundation of the controller's bit-identical
// recovery guarantee. On a little-endian host a field is one memcpy and a
// run of doubles one bulk copy; a big-endian host byte-swaps each field.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

namespace vnfr::serve {

/// Thrown whenever a snapshot or WAL file fails validation. Always
/// carries the file (or a label for in-memory buffers), the byte offset
/// of the first inconsistent byte, and a description — fuzzed inputs
/// must die here with a diagnosable position, never as UB.
class CorruptStateError : public std::runtime_error {
  public:
    CorruptStateError(std::string file, std::uint64_t offset, const std::string& what)
        : std::runtime_error(file + ": " + what + " (at byte offset " +
                             std::to_string(offset) + ")"),
          file_(std::move(file)),
          offset_(offset) {}

    [[nodiscard]] const std::string& file() const { return file_; }
    [[nodiscard]] std::uint64_t offset() const { return offset_; }

  private:
    std::string file_;
    std::uint64_t offset_;
};

/// CRC-32 of `data` (reflected polynomial 0xEDB88320, slicing-by-8).
/// `seed` chains incremental computation: crc32(a + b) == crc32(b, crc32(a)).
[[nodiscard]] std::uint32_t crc32(std::string_view data, std::uint32_t seed = 0);

namespace wire_detail {

/// `v` in little-endian byte order, as the host stores it: the identity on
/// a little-endian host, a byte swap on a big-endian one.
template <typename T>
[[nodiscard]] constexpr T to_le(T v) {
    if constexpr (std::endian::native == std::endian::big) {
        T out = 0;
        for (std::size_t i = 0; i < sizeof(T); ++i) {
            out = static_cast<T>((out << 8) | ((v >> (8 * i)) & 0xFFU));
        }
        return out;
    }
    return v;
}

}  // namespace wire_detail

/// Append-only little-endian encoder over a growable byte buffer. Fields
/// are copied whole through a write cursor; callers that know their
/// encoded size pass it to the constructor, so encoding is one allocation
/// and a run of fixed-size copies.
class WireWriter {
  public:
    WireWriter() = default;
    explicit WireWriter(std::size_t reserve) : buffer_(reserve, '\0') {}
    /// A moved-from writer is empty, never a cursor past its buffer.
    WireWriter(WireWriter&& other) noexcept
        : buffer_(std::move(other.buffer_)), size_(std::exchange(other.size_, 0)) {}
    WireWriter& operator=(WireWriter&& other) noexcept {
        buffer_ = std::move(other.buffer_);
        size_ = std::exchange(other.size_, 0);
        return *this;
    }

    void put_u8(std::uint8_t v) { *extend(1) = static_cast<char>(v); }
    void put_u32(std::uint32_t v) { put_le(v); }
    void put_u64(std::uint64_t v) { put_le(v); }
    void put_i64(std::int64_t v) { put_le(static_cast<std::uint64_t>(v)); }
    /// IEEE-754 bit pattern, so round-trips are bit-exact (NaNs included).
    void put_f64(double v) { put_le(std::bit_cast<std::uint64_t>(v)); }
    /// put_f64 over every element, in order.
    void put_f64s(std::span<const double> values);
    void put_bytes(std::string_view bytes);
    /// Appends the u32 CRC-32 of every byte written from offset `from` on
    /// — the trailer that frames a payload, computed in place.
    void put_crc32(std::size_t from = 0);

    /// Drops the contents and keeps the capacity.
    void clear() { size_ = 0; }

    [[nodiscard]] std::string_view bytes() const { return {buffer_.data(), size_}; }
    [[nodiscard]] std::size_t size() const { return size_; }
    /// Moves the encoded bytes out.
    [[nodiscard]] std::string take() && {
        buffer_.resize(size_);
        size_ = 0;
        return std::move(buffer_);
    }

  private:
    /// Claims the next `n` bytes and returns where they start.
    char* extend(std::size_t n) {
        if (buffer_.size() - size_ < n) grow(n);
        char* at = buffer_.data() + size_;
        size_ += n;
        return at;
    }
    /// Enlarges the buffer geometrically so `n` more bytes fit.
    void grow(std::size_t n);

    template <typename T>
    void put_le(T v) {
        v = wire_detail::to_le(v);
        std::memcpy(extend(sizeof(T)), &v, sizeof(T));
    }

    /// Bytes [0, size_) are written; the rest is spare room.
    std::string buffer_;
    std::size_t size_{0};
};

/// Little-endian decoder over a byte buffer. Every getter names what it
/// is reading; running past the end throws CorruptStateError pointing at
/// the exact offset where the bytes ran out.
class WireReader {
  public:
    /// `label` names the source in errors; `base_offset` is added to all
    /// reported offsets (so a reader over one WAL record payload reports
    /// file-absolute positions).
    WireReader(std::string_view data, std::string label, std::uint64_t base_offset = 0)
        : data_(data), label_(std::move(label)), base_(base_offset) {}

    std::uint8_t get_u8(const char* what);
    std::uint32_t get_u32(const char* what);
    std::uint64_t get_u64(const char* what);
    std::int64_t get_i64(const char* what);
    double get_f64(const char* what);
    std::string_view get_bytes(std::size_t n, const char* what);
    /// get_f64 into every element of `out`, in order.
    void get_f64s(std::span<double> out, const char* what);

    /// Throws unless the buffer was consumed exactly.
    void require_end(const char* what) const;

    /// Re-points the reader at `data`, reported from `base_offset`, and
    /// keeps its label: one reader decodes a run of record payloads
    /// without copying the label for each.
    void reset(std::string_view data, std::uint64_t base_offset) {
        data_ = data;
        base_ = base_offset;
        pos_ = 0;
    }

    /// File-absolute offset of the next unread byte.
    [[nodiscard]] std::uint64_t offset() const { return base_ + pos_; }
    [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

    [[noreturn]] void fail(const std::string& what) const;

  private:
    std::string_view data_;
    std::string label_;
    std::uint64_t base_;
    std::size_t pos_{0};
};

class Vfs;

/// Reads a whole file into memory through `vfs`. Throws VfsError on IO
/// errors and CorruptStateError (offset 0) if the file does not exist.
[[nodiscard]] std::string read_file(Vfs& vfs, const std::string& path);

/// Crash-consistent whole-file replace through `vfs`: writes `bytes` to
/// `path + ".tmp"`, fsyncs it, renames over `path`, then fsyncs the
/// parent directory. After a crash anywhere in the sequence, `path`
/// holds either the old or the new content in full, never a mix. On a
/// VfsError the temporary file is removed (best effort) and the error
/// rethrown; no fd leaks on any path. Any other exception propagates
/// with no cleanup and may leave `path + ".tmp"` behind, which the next
/// write of `path` truncates and overwrites.
void atomic_write_file(Vfs& vfs, const std::string& path, std::string_view bytes);

}  // namespace vnfr::serve
