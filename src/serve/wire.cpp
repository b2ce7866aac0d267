#include "serve/wire.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cerrno>
#include <cstring>

#include "serve/vfs.hpp"

namespace vnfr::serve {

namespace {

using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

/// Slicing-by-8 tables for the reflected IEEE 802.3 polynomial 0xEDB88320.
/// Row 0 is the classic bytewise table; row k advances a byte's
/// contribution through k further zero bytes, so eight input bytes fold
/// into the CRC with eight independent lookups.
constexpr CrcTables make_crc_tables() {
    CrcTables tables{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int bit = 0; bit < 8; ++bit) {
            c = (c & 1U) != 0 ? 0xEDB88320U ^ (c >> 1) : c >> 1;
        }
        tables[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k) {
        for (std::size_t i = 0; i < 256; ++i) {
            const std::uint32_t prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFU];
        }
    }
    return tables;
}

constexpr CrcTables kCrcTables = make_crc_tables();

constexpr bool kBigEndian = std::endian::native == std::endian::big;

template <typename T>
T load_le(const char* p) {
    T v;
    std::memcpy(&v, p, sizeof(T));
    return wire_detail::to_le(v);
}

}  // namespace

std::uint32_t crc32(std::string_view data, std::uint32_t seed) {
    const auto& t = kCrcTables;
    std::uint32_t c = seed ^ 0xFFFFFFFFU;
    const char* p = data.data();
    std::size_t n = data.size();
    for (; n >= 8; p += 8, n -= 8) {
        const std::uint32_t lo = load_le<std::uint32_t>(p) ^ c;
        const std::uint32_t hi = load_le<std::uint32_t>(p + 4);
        c = t[7][lo & 0xFFU] ^ t[6][(lo >> 8) & 0xFFU] ^ t[5][(lo >> 16) & 0xFFU] ^
            t[4][lo >> 24] ^ t[3][hi & 0xFFU] ^ t[2][(hi >> 8) & 0xFFU] ^
            t[1][(hi >> 16) & 0xFFU] ^ t[0][hi >> 24];
    }
    for (; n > 0; ++p, --n) {
        c = t[0][(c ^ static_cast<unsigned char>(*p)) & 0xFFU] ^ (c >> 8);
    }
    return c ^ 0xFFFFFFFFU;
}

void WireWriter::grow(std::size_t n) {
    buffer_.resize(std::max({2 * buffer_.size(), size_ + n, std::size_t{64}}));
}

void WireWriter::put_f64s(std::span<const double> values) {
    if constexpr (kBigEndian) {
        for (const double v : values) put_f64(v);
    } else if (!values.empty()) {
        std::memcpy(extend(values.size_bytes()), values.data(), values.size_bytes());
    }
}

void WireWriter::put_bytes(std::string_view bytes) {
    if (!bytes.empty()) std::memcpy(extend(bytes.size()), bytes.data(), bytes.size());
}

void WireWriter::put_crc32(std::size_t from) { put_u32(crc32(this->bytes().substr(from))); }

void WireReader::fail(const std::string& what) const {
    throw CorruptStateError(label_, offset(), what);
}

std::string_view WireReader::get_bytes(std::size_t n, const char* what) {
    if (remaining() < n) {
        fail(std::string("truncated while reading ") + what + ": need " +
             std::to_string(n) + " bytes, have " + std::to_string(remaining()));
    }
    const std::string_view out = data_.substr(pos_, n);
    pos_ += n;
    return out;
}

std::uint8_t WireReader::get_u8(const char* what) {
    return static_cast<std::uint8_t>(get_bytes(1, what)[0]);
}

std::uint32_t WireReader::get_u32(const char* what) {
    return load_le<std::uint32_t>(get_bytes(4, what).data());
}

std::uint64_t WireReader::get_u64(const char* what) {
    return load_le<std::uint64_t>(get_bytes(8, what).data());
}

std::int64_t WireReader::get_i64(const char* what) {
    return static_cast<std::int64_t>(get_u64(what));
}

double WireReader::get_f64(const char* what) {
    return std::bit_cast<double>(get_u64(what));
}

void WireReader::get_f64s(std::span<double> out, const char* what) {
    const std::string_view raw = get_bytes(out.size_bytes(), what);
    if constexpr (kBigEndian) {
        for (std::size_t i = 0; i < out.size(); ++i) {
            out[i] = std::bit_cast<double>(load_le<std::uint64_t>(raw.data() + 8 * i));
        }
    } else if (!out.empty()) {
        std::memcpy(out.data(), raw.data(), raw.size());
    }
}

void WireReader::require_end(const char* what) const {
    if (pos_ != data_.size()) {
        throw CorruptStateError(label_, offset(),
                                std::string(what) + ": " + std::to_string(remaining()) +
                                    " trailing bytes after the last field");
    }
}

std::string read_file(Vfs& vfs, const std::string& path) {
    try {
        return vfs.read_file(path);
    } catch (const VfsError& err) {
        if (err.code() == ENOENT) {
            throw CorruptStateError(path, 0, "file does not exist");
        }
        throw;
    }
}

void atomic_write_file(Vfs& vfs, const std::string& path, std::string_view bytes) {
    const std::string tmp = path + ".tmp";
    {
        VfsFdGuard fd(vfs, vfs.create_truncate(tmp));
        try {
            vfs.write_all(fd.get(), tmp, bytes);
            vfs.fsync(fd.get(), tmp);
        } catch (const VfsError&) {
            fd.close();
            try {
                vfs.unlink(tmp);
            } catch (const VfsError&) {
                // Best-effort cleanup; the original error matters more.
            }
            throw;
        }
    }
    try {
        vfs.rename(tmp, path);
    } catch (const VfsError&) {
        try {
            vfs.unlink(tmp);
        } catch (const VfsError&) {
            // Best-effort cleanup; the original error matters more.
        }
        throw;
    }
    vfs.fsync_parent_dir(path);
}

}  // namespace vnfr::serve
