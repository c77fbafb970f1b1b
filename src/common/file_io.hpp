// Whole-file binary output shared by the WAV writer and the batch shard
// writer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace lifta {

/// Creates or truncates `path` and writes `size` bytes from `data`. Throws
/// lifta::Error if the file cannot be opened, a write comes up short, or
/// closing it fails — a buffered write that only fails when flushed at
/// close (ENOSPC, EIO) is an error, not a written file.
void writeBytes(const std::string& path, const void* data, std::size_t size);

inline void writeBytes(const std::string& path,
                       const std::vector<std::uint8_t>& bytes) {
  writeBytes(path, bytes.data(), bytes.size());
}

}  // namespace lifta
