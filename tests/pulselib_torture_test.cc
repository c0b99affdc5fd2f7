/**
 * @file
 * Torn-write torture for the pulse-library on-disk format: every
 * truncation depth and a bit-flip sweep across the whole file must
 * yield a precise kDataLoss with quarantine — never a crash, never a
 * silently wrong load, never a poisoned subsequent save. Also pins the
 * v2 format guarantees: the checksum covers the header (a v1 gap) and
 * v1 legacy files are still read.
 */
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "oracle/pulselib.h"

namespace qaic {
namespace {

/**
 * Backing file of the running test. `ctest -j` runs each test as its
 * own process, in parallel and in one working directory, so every test
 * needs a file of its own.
 */
std::string
libraryPath()
{
    return std::string("pulselib_torture_") +
           ::testing::UnitTest::GetInstance()->current_test_info()->name() +
           ".qplb";
}

/** Where PulseLibrary::load moves a corrupt libraryPath() aside. */
std::string
quarantinePath()
{
    return libraryPath() + ".corrupt";
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

bool
fileExists(const std::string &path)
{
    return static_cast<bool>(std::ifstream(path, std::ios::binary));
}

/** FNV-1a mirror of the library's checksum, for crafting v1 files. */
std::uint64_t
fnv1a(const char *data, std::size_t size,
      std::uint64_t seed = 1469598103934665603ull)
{
    std::uint64_t h = seed;
    for (std::size_t i = 0; i < size; ++i) {
        h ^= static_cast<unsigned char>(data[i]);
        h *= 1099511628211ull;
    }
    return h;
}

/** A valid flushed library file's bytes (three entries, one rich). */
std::string
validLibraryBytes()
{
    std::remove(libraryPath().c_str());
    PulseLibrary lib(libraryPath());
    PulseLibraryEntry rich;
    rich.origin = "grape";
    rich.latencyNs = 17.5;
    rich.fidelity = 0.999;
    rich.iterations = 12;
    rich.shapeKey = "s2:cnot.0.1;";
    rich.waveforms = {{0.1, 0.2, 0.3}, {-0.1, 0.0, 0.1}};
    lib.insert("key-rich", std::move(rich));
    PulseLibraryEntry a, b;
    a.latencyNs = 9.5;
    b.origin = "analytic";
    b.latencyNs = 4.25;
    lib.insert("key-a", std::move(a));
    lib.insert("key-b", std::move(b));
    EXPECT_TRUE(lib.flush().isOk());
    std::string bytes = readFile(libraryPath());
    std::remove(libraryPath().c_str());
    return bytes;
}

class PulselibTortureTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        std::remove(libraryPath().c_str());
        std::remove(quarantinePath().c_str());
    }
    void TearDown() override
    {
        std::remove(libraryPath().c_str());
        std::remove(quarantinePath().c_str());
    }
};

/** Load @p bytes as the backing file; expect quarantine + kDataLoss,
 *  then a clean cold restart whose saves are readable again. */
void
expectQuarantined(const std::string &bytes, const std::string &what)
{
    writeFile(libraryPath(), bytes);
    PulseLibrary fresh(libraryPath());
    Status loaded = fresh.load();
    ASSERT_EQ(loaded.code(), StatusCode::kDataLoss)
        << what << ": " << loaded.toString();
    EXPECT_EQ(fresh.size(), 0u) << what;
    EXPECT_FALSE(fileExists(libraryPath()))
        << what << ": corrupt file must be moved aside";
    EXPECT_TRUE(fileExists(quarantinePath())) << what;
    EXPECT_EQ(fresh.load().code(), StatusCode::kNotFound) << what;
    std::remove(quarantinePath().c_str());
}

TEST_F(PulselibTortureTest, EveryTruncationDepthIsDetected)
{
    const std::string bytes = validLibraryBytes();
    ASSERT_GT(bytes.size(), 24u);
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
        SCOPED_TRACE("truncated to " + std::to_string(cut) + " of " +
                     std::to_string(bytes.size()) + " bytes");
        expectQuarantined(bytes.substr(0, cut), "truncation");
    }

    // After any amount of torture, a fresh library on the same path
    // saves and reloads cleanly — torn writes never poison the future.
    PulseLibrary fresh(libraryPath());
    PulseLibraryEntry entry;
    entry.latencyNs = 1.0;
    fresh.insert("post-torture", std::move(entry));
    ASSERT_TRUE(fresh.flush().isOk());
    PulseLibrary check(libraryPath());
    ASSERT_TRUE(check.load().isOk());
    EXPECT_EQ(check.size(), 1u);
}

TEST_F(PulselibTortureTest, EveryBitFlipOffsetIsDetected)
{
    const std::string bytes = validLibraryBytes();
    // Flip one bit at every byte offset: magic, version, count,
    // checksum and body corruption must all be caught (the v2 checksum
    // covers the header fields, so no offset can slip through).
    for (std::size_t offset = 0; offset < bytes.size(); ++offset) {
        for (unsigned char mask : {0x01, 0x80}) {
            SCOPED_TRACE("bit flip 0x" + std::to_string(mask) +
                         " at offset " + std::to_string(offset));
            std::string flipped = bytes;
            flipped[offset] =
                static_cast<char>(flipped[offset] ^ mask);
            expectQuarantined(flipped, "bit flip");
        }
    }
}

TEST_F(PulselibTortureTest, HeaderFlipFailsChecksumNotHeuristics)
{
    // The v2 fix over v1: flipping the entry-count field is caught by
    // the checksum itself, with a precise message, not by downstream
    // plausibility bounds.
    std::string bytes = validLibraryBytes();
    bytes[8] = static_cast<char>(bytes[8] ^ 0x01); // count LSB
    writeFile(libraryPath(), bytes);
    Status loaded = PulseLibrary(libraryPath()).load();
    ASSERT_EQ(loaded.code(), StatusCode::kDataLoss);
    EXPECT_NE(loaded.message().find("checksum mismatch"),
              std::string::npos)
        << loaded.toString();
}

TEST_F(PulselibTortureTest, LegacyV1FilesAreStillRead)
{
    // Craft a v1 file from a v2 one: version := 1, checksum := FNV-1a
    // of the body only (the v1 domain).
    std::string bytes = validLibraryBytes();
    ASSERT_GT(bytes.size(), 24u);
    const std::uint32_t v1 = 1;
    std::memcpy(&bytes[4], &v1, sizeof(v1));
    const std::uint64_t body_sum =
        fnv1a(bytes.data() + 24, bytes.size() - 24);
    std::memcpy(&bytes[16], &body_sum, sizeof(body_sum));

    writeFile(libraryPath(), bytes);
    PulseLibrary lib(libraryPath());
    Status loaded = lib.load();
    ASSERT_TRUE(loaded.isOk())
        << "v1 files must remain readable: " << loaded.toString();
    EXPECT_EQ(lib.size(), 3u);
    auto rich = lib.peek("key-rich", "grape");
    ASSERT_TRUE(rich.has_value());
    EXPECT_EQ(rich->latencyNs, 17.5);
    EXPECT_TRUE(rich->hasWaveforms());

    // A re-flush upgrades the file to the current version in place.
    lib.insert("new-key", PulseLibraryEntry{});
    ASSERT_TRUE(lib.flush().isOk());
    std::string upgraded = readFile(libraryPath());
    std::uint32_t version = 0;
    std::memcpy(&version, upgraded.data() + 4, sizeof(version));
    EXPECT_EQ(version, PulseLibrary::kFormatVersion);

    // And a corrupted v1 body is still rejected by the v1 checksum.
    std::string broken = bytes;
    broken[broken.size() - 3] =
        static_cast<char>(broken[broken.size() - 3] ^ 0x10);
    expectQuarantined(broken, "v1 body flip");
}

} // namespace
} // namespace qaic
