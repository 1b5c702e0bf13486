// Crash-safe artifact writes (DESIGN.md §12).
#pragma once

#include <string>
#include <string_view>

#include "rt/status.hpp"

namespace gnnbridge::rt {

/// Replaces `path` with `contents`: the whole document goes to a sibling
/// "<path>.tmp", which is closed and then renamed over the target (atomic
/// on POSIX), so a process killed mid-write leaves the previous file
/// intact. On failure the temp file is removed and the kUnavailable Status
/// names the failed step; callers add their own context frame.
Status write_file_atomic(const std::string& path, std::string_view contents);

}  // namespace gnnbridge::rt
