#include "common/file_io.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/error.hpp"

namespace lifta {

void writeBytes(const std::string& path, const void* data, std::size_t size) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    throw Error("cannot open for writing: " + path + ": " +
                std::strerror(errno));
  }
  const std::size_t written = std::fwrite(data, 1, size, f);
  if (written != size) {
    const int writeErrno = errno;
    std::fclose(f);
    throw Error("short write: " + path + ": " + std::strerror(writeErrno));
  }
  if (std::fclose(f) != 0) {
    throw Error("write failed on close: " + path + ": " + std::strerror(errno));
  }
}

}  // namespace lifta
