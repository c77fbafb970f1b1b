#include "common/wav.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <vector>

namespace lifta {
namespace {

std::vector<unsigned char> readAll(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::vector<unsigned char>(std::istreambuf_iterator<char>(f),
                                    std::istreambuf_iterator<char>());
}

TEST(Wav, HeaderAndSizes) {
  const std::string path = ::testing::TempDir() + "/lifta_test.wav";
  writeWav(path, {0.0, 0.5, -0.5, 1.0}, 44100);
  const auto bytes = readAll(path);
  ASSERT_EQ(bytes.size(), 44u + 8u);
  EXPECT_EQ(std::string(bytes.begin(), bytes.begin() + 4), "RIFF");
  EXPECT_EQ(std::string(bytes.begin() + 8, bytes.begin() + 12), "WAVE");
  EXPECT_EQ(std::string(bytes.begin() + 36, bytes.begin() + 40), "data");
  std::remove(path.c_str());
}

TEST(Wav, ClampsOutOfRangeSamples) {
  const std::string path = ::testing::TempDir() + "/lifta_clamp.wav";
  writeWav(path, {10.0, -10.0}, 8000);
  const auto bytes = readAll(path);
  // First sample: +32767 little-endian; second: -32767.
  const int s0 = static_cast<int>(bytes[44]) | (static_cast<int>(bytes[45]) << 8);
  EXPECT_EQ(s0, 32767);
  std::remove(path.c_str());
}

TEST(Wav, ThrowsOnBadPath) {
  EXPECT_THROW(writeWav("/nonexistent_dir_xyz/out.wav", {0.0}, 8000), Error);
}

TEST(Wav, NormalizeScalesPeak) {
  const auto out = normalize({0.1, -0.2, 0.05}, 0.8);
  EXPECT_NEAR(out[1], -0.8, 1e-12);
  EXPECT_NEAR(out[0], 0.4, 1e-12);
}

TEST(Wav, NormalizeSilenceIsNoop) {
  const auto out = normalize({0.0, 0.0});
  EXPECT_DOUBLE_EQ(out[0], 0.0);
  EXPECT_DOUBLE_EQ(out[1], 0.0);
}

TEST(Wav, RoundTripRecoversSamplesWithinQuantization) {
  const std::string path = ::testing::TempDir() + "/lifta_roundtrip.wav";
  const std::vector<double> in = {0.0, 0.5, -0.5, 0.25, -1.0, 1.0, 0.123};
  writeWav(path, in, 22050);
  const WavData back = readWav(path);
  EXPECT_EQ(back.sampleRateHz, 22050);
  ASSERT_EQ(back.samples.size(), in.size());
  // 16-bit PCM quantizes to q = lrint(s * 32767) / 32767: half an LSB.
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_NEAR(back.samples[i], in[i], 0.5 / 32767.0) << "i=" << i;
  }
}

TEST(Wav, RoundTripExactAtQuantizationPoints) {
  // Samples that are exact multiples of 1/32767 survive the round trip
  // bit-for-bit — the representation the batch WAV shards rely on for
  // hash-stable datasets.
  const std::string path = ::testing::TempDir() + "/lifta_exact.wav";
  const std::vector<double> in = {0.0, 100.0 / 32767.0, -200.0 / 32767.0, 1.0};
  writeWav(path, in, 8000);
  const WavData back = readWav(path);
  ASSERT_EQ(back.samples.size(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(back.samples[i], in[i]) << "i=" << i;
  }
  std::remove(path.c_str());
}

TEST(Wav, ReadRejectsMissingAndTruncatedFiles) {
  EXPECT_THROW(readWav("/nonexistent_dir_xyz/in.wav"), Error);

  const std::string path = ::testing::TempDir() + "/lifta_trunc.wav";
  writeWav(path, {0.1, 0.2, 0.3, 0.4}, 8000);
  const auto bytes = readAll(path);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size() / 2));
  out.close();
  EXPECT_THROW(readWav(path), Error);
  std::remove(path.c_str());
}

TEST(Wav, ReadRejectsNonWavBytes) {
  const std::string path = ::testing::TempDir() + "/lifta_notwav.wav";
  std::ofstream out(path, std::ios::binary);
  out << "this is definitely not a RIFF container";
  out.close();
  EXPECT_THROW(readWav(path), Error);
  std::remove(path.c_str());
}

// /dev/full accepts the open and a short buffered fwrite, then fails the
// flush inside fclose with ENOSPC: the file was never written, so the
// writer must say so.
TEST(Wav, WriteReportsFailureSurfacingAtClose) {
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "/dev/full is not available";
  }
  EXPECT_THROW(writeWav("/dev/full", {0.0, 0.5, -0.5, 1.0}, 8000), Error);
}

}  // namespace
}  // namespace lifta
