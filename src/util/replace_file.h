// Whole-file replacement that never leaves a torn file at the target path.
//
// Header-only: tp_obs sits below tp_util and may use only header-only util
// files, and it writes its metrics snapshots through this helper too.
#pragma once

#include <cstdio>
#include <fstream>
#include <functional>
#include <ostream>
#include <string>

#include "util/error.h"

namespace tradeplot::util {

/// Replaces `path` with the bytes `write` puts into the stream: they go to
/// the sibling `path + ".tmp"`, which is renamed over `path` only after the
/// stream closed cleanly. On any failure — a failed open, `write` throwing,
/// a short write, a failed rename — the tmp file is removed, `path` keeps
/// its previous contents, and the error propagates (util::IoError for the
/// file operations). Readers of `path` therefore see the old file or the
/// complete new one, never a prefix. There is no fsync: this survives a
/// crash of the process mid-write, not a power loss.
inline void replace_file(const std::string& path,
                         const std::function<void(std::ostream&)>& write) {
  const std::string tmp = path + ".tmp";
  try {
    {
      std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
      if (!out) throw IoError("cannot open " + tmp + " for writing");
      write(out);
      out.close();
      if (!out) throw IoError("short write to " + tmp);
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
      throw IoError("cannot rename " + tmp + " to " + path);
  } catch (...) {
    std::remove(tmp.c_str());
    throw;
  }
}

}  // namespace tradeplot::util
