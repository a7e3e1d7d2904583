#include "storage/atomic_file.h"

#include <cstdio>
#include <filesystem>
#include <fstream>

#include <fcntl.h>
#include <unistd.h>

#include "fault/fault_injector.h"

namespace ssr {

namespace {

// One fault check per save phase. kCrashPoint and kWriteError both mean
// "the machine died here": abort, leaving the target file untouched.
Status CheckSavePhase() {
  fault::FaultInjector& injector = fault::FaultInjector::Default();
  if (!injector.enabled()) return Status::OK();
  const auto kind = injector.Check(kAtomicSaveFaultSite);
  if (!kind.has_value()) return Status::OK();
  if (*kind == fault::FaultKind::kWriteError ||
      *kind == fault::FaultKind::kCrashPoint) {
    return Status::Unavailable("injected crash during atomic save");
  }
  return Status::OK();
}

Status FsyncPath(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::Unavailable("cannot open for fsync: " + path);
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return Status::Unavailable("fsync failed: " + path);
  return Status::OK();
}

}  // namespace

Status AtomicSave(const std::string& path,
                  const std::function<Status(std::ostream&)>& write_fn) {
  const std::string tmp = path + ".tmp";

  // Phase 1: stream the complete new contents into the temp file.
  SSR_RETURN_IF_ERROR(CheckSavePhase());
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out.is_open()) {
      return Status::Unavailable("cannot create temp file: " + tmp);
    }
    SSR_RETURN_IF_ERROR(write_fn(out));
    out.flush();
    if (!out.good()) {
      return Status::Unavailable("write to temp file failed: " + tmp);
    }
  }

  // Phase 2: force the temp bytes to stable storage *before* the rename
  // publishes them — otherwise a power cut could leave the target pointing
  // at pages that never hit disk.
  SSR_RETURN_IF_ERROR(CheckSavePhase());
  SSR_RETURN_IF_ERROR(FsyncPath(tmp));

  // Phase 3: atomic publish. After rename returns, `path` is the new
  // snapshot; before, it is untouched. The rename lives in the parent
  // directory's entry, which a power cut can lose until that directory is
  // synced — and a caller truncates its log once the checkpoint is durable,
  // so a lost rename would leave the old checkpoint beside a log that
  // starts past its LSN. The save succeeds only once the directory is
  // synced.
  SSR_RETURN_IF_ERROR(CheckSavePhase());
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::Unavailable("rename failed: " + tmp + " -> " + path);
  }
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  return FsyncPath(parent.empty() ? std::string(".") : parent.string());
}

}  // namespace ssr
