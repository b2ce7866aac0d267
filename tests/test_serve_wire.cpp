#include "serve/wire.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

#include "common/rng.hpp"
#include "serve/vfs.hpp"

namespace vnfr::serve {
namespace {

TEST(Crc32, MatchesKnownVectors) {
    // Standard IEEE 802.3 / zlib check value.
    EXPECT_EQ(crc32("123456789"), 0xCBF43926U);
    EXPECT_EQ(crc32(""), 0x00000000U);
}

TEST(Crc32, SeedChainsIncrementally) {
    const std::string a = "hello, ";
    const std::string b = "world";
    EXPECT_EQ(crc32(a + b), crc32(b, crc32(a)));
}

/// The classic one-table, one-byte-per-step CRC-32 over the reflected
/// polynomial 0xEDB88320, written out independently of the library.
std::uint32_t bytewise_crc32(std::string_view data, std::uint32_t seed = 0) {
    std::array<std::uint32_t, 256> table{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int bit = 0; bit < 8; ++bit) {
            c = (c & 1U) != 0 ? 0xEDB88320U ^ (c >> 1) : c >> 1;
        }
        table[i] = c;
    }
    std::uint32_t c = seed ^ 0xFFFFFFFFU;
    for (const char ch : data) {
        c = table[(c ^ static_cast<unsigned char>(ch)) & 0xFFU] ^ (c >> 8);
    }
    return c ^ 0xFFFFFFFFU;
}

std::string random_bytes(std::size_t n, std::uint64_t stream) {
    common::Rng rng = common::stream_rng(0xC3C32, stream);
    std::string out(n, '\0');
    for (char& c : out) c = static_cast<char>(rng.uniform_int(0, 255));
    return out;
}

TEST(Crc32, MatchesTheBytewiseReferenceAtEveryLengthAndAlignment) {
    constexpr std::size_t kMaxLength = 1024;
    const std::string buffer = random_bytes(kMaxLength + 8, 1);
    std::size_t mismatches = 0;
    for (std::size_t align = 0; align < 8; ++align) {
        for (std::size_t length = 0; length <= kMaxLength; ++length) {
            const std::string_view data = std::string_view(buffer).substr(align, length);
            const std::uint32_t seed = static_cast<std::uint32_t>(length * 2654435761U);
            if (crc32(data) != bytewise_crc32(data) ||
                crc32(data, seed) != bytewise_crc32(data, seed)) {
                ADD_FAILURE() << "mismatch at alignment " << align << ", length " << length;
                if (++mismatches > 10) return;
            }
        }
    }
}

TEST(Crc32, ChainsAcrossRandomSplits) {
    common::Rng rng = common::stream_rng(0xC3C32, 2);
    for (int trial = 0; trial < 500; ++trial) {
        const auto length = static_cast<std::size_t>(rng.uniform_int(0, 4096));
        const auto split = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(length)));
        const std::string whole = random_bytes(length, 100 + static_cast<std::uint64_t>(trial));
        const std::string_view a = std::string_view(whole).substr(0, split);
        const std::string_view b = std::string_view(whole).substr(split);
        EXPECT_EQ(crc32(whole), crc32(b, crc32(a)))
            << "length " << length << ", split " << split;
    }
}

TEST(Wire, RoundTripsEveryFieldType) {
    WireWriter w;
    w.put_u8(0xAB);
    w.put_u32(0xDEADBEEFU);
    w.put_u64(0x0123456789ABCDEFULL);
    w.put_i64(-42);
    w.put_f64(3.141592653589793);
    w.put_f64(-0.0);
    w.put_bytes("tail");

    WireReader r(w.bytes(), "buffer");
    EXPECT_EQ(r.get_u8("u8"), 0xAB);
    EXPECT_EQ(r.get_u32("u32"), 0xDEADBEEFU);
    EXPECT_EQ(r.get_u64("u64"), 0x0123456789ABCDEFULL);
    EXPECT_EQ(r.get_i64("i64"), -42);
    EXPECT_EQ(r.get_f64("f64"), 3.141592653589793);
    const double neg_zero = r.get_f64("negative zero");
    EXPECT_EQ(neg_zero, 0.0);
    EXPECT_TRUE(std::signbit(neg_zero));  // bit-exact, not value-equal
    EXPECT_EQ(r.get_bytes(4, "tail"), "tail");
    EXPECT_NO_THROW(r.require_end("buffer"));
}

TEST(Wire, LittleEndianLayoutIsFixed) {
    WireWriter w;
    w.put_u32(0x01020304U);
    const std::string_view b = w.bytes();
    ASSERT_EQ(b.size(), 4u);
    EXPECT_EQ(static_cast<unsigned char>(b[0]), 0x04);
    EXPECT_EQ(static_cast<unsigned char>(b[3]), 0x01);
}

TEST(Wire, TruncatedReadThrowsWithOffsetAndFieldName) {
    WireWriter w;
    w.put_u64(7);
    WireReader r(w.bytes(), "short-buffer");
    r.get_u32("first half");
    try {
        r.get_u64("the wide field");
        FAIL() << "expected CorruptStateError";
    } catch (const CorruptStateError& e) {
        EXPECT_EQ(e.file(), "short-buffer");
        EXPECT_EQ(e.offset(), 4u);
        EXPECT_NE(std::string(e.what()).find("the wide field"), std::string::npos);
    }
}

TEST(Wire, TrailingBytesFailRequireEnd) {
    WireWriter w;
    w.put_u32(1);
    w.put_u32(2);
    WireReader r(w.bytes(), "buffer");
    r.get_u32("only field");
    EXPECT_THROW(r.require_end("payload"), CorruptStateError);
}

TEST(Wire, BaseOffsetShiftsReportedPositions) {
    WireReader r("", "wal", 100);
    try {
        r.get_u8("kind");
        FAIL() << "expected CorruptStateError";
    } catch (const CorruptStateError& e) {
        EXPECT_EQ(e.offset(), 100u);
    }
}

TEST(WireFiles, AtomicWriteThenReadRoundTrips) {
    const std::string path = ::testing::TempDir() + "wire_roundtrip.bin";
    const std::string payload("\x00\x01\xFFzzz", 6);
    Vfs& disk = posix_vfs();
    atomic_write_file(disk, path, payload);
    EXPECT_EQ(read_file(disk, path), payload);
    // Replacement is atomic: rewriting leaves only the new content.
    atomic_write_file(disk, path, "second");
    EXPECT_EQ(read_file(disk, path), "second");
    EXPECT_FALSE(disk.file_exists(path + ".tmp"));
    std::remove(path.c_str());
}

TEST(WireFiles, MissingFileThrowsCorruptStateError) {
    EXPECT_THROW(read_file(posix_vfs(), ::testing::TempDir() + "does_not_exist.bin"),
                 CorruptStateError);
}

}  // namespace
}  // namespace vnfr::serve
