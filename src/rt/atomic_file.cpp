#include "rt/atomic_file.hpp"

#include <cstdio>

namespace gnnbridge::rt {

Status write_file_atomic(const std::string& path, std::string_view contents) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (!f) return Status(StatusCode::kUnavailable, "cannot open for writing");
  const bool wrote = std::fwrite(contents.data(), 1, contents.size(), f) == contents.size();
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !closed) {
    std::remove(tmp.c_str());
    return Status(StatusCode::kUnavailable, wrote ? "close failed" : "short write");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status(StatusCode::kUnavailable, "rename into place failed");
  }
  return OkStatus();
}

}  // namespace gnnbridge::rt
