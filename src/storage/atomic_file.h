// Atomic file replacement for snapshot saves: write the new bytes to
// `<path>.tmp`, fsync them to stable storage, rename(2) over the target,
// then fsync the target's directory so the rename itself is durable. The
// rename is atomic on POSIX, so at every instant `path` holds either the
// complete old snapshot or the complete new one — a crash (or injected
// fault) mid-save can clobber at most the temp file, never the last good
// snapshot. Checkpointing (storage/recovery.h) writes every durable
// snapshot through this.
//
// The "file/atomic_save" fault site is consulted once per phase (write,
// sync, rename): kWriteError/kCrashPoint abort the save at that phase,
// leaving the target untouched — the mid-save-kill test pins that the old
// snapshot still loads.

#ifndef SSR_STORAGE_ATOMIC_FILE_H_
#define SSR_STORAGE_ATOMIC_FILE_H_

#include <functional>
#include <ostream>
#include <string>
#include <string_view>

#include "util/status.h"

namespace ssr {

/// Fault site for the atomic-save phases.
inline constexpr std::string_view kAtomicSaveFaultSite = "file/atomic_save";

/// Atomically replaces `path` with whatever `write_fn` streams out.
/// `write_fn` writes the complete new contents to the ostream it is given
/// (a SaveTo, typically); any failure it returns — or any stream/IO/fault
/// failure around it — aborts the save with the target untouched (a stale
/// `<path>.tmp` may remain and is overwritten by the next attempt). OK
/// means the new contents and their directory entry are both synced; when
/// the directory sync fails the rename has happened but the save returns
/// Unavailable, so a caller never treats an unsynced publish as durable.
Status AtomicSave(const std::string& path,
                  const std::function<Status(std::ostream&)>& write_fn);

}  // namespace ssr

#endif  // SSR_STORAGE_ATOMIC_FILE_H_
