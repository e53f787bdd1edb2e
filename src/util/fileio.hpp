#pragma once
// EINTR-safe POSIX file primitives shared by the durable writers: the
// atomic JSON writer (util/json) and the daemon's write-ahead log.  Every
// call retries EINTR and reports any other failure to its caller, so a
// journal is never mistaken for shorter than it is and a record is never
// reported durable before fsync returned.

#include <sys/types.h>

#include <string>
#include <string_view>

namespace ibgp::util::fileio {

/// open(2), retried on EINTR.  -1 on failure, with errno set.
int open_retry(const std::string& path, int flags, mode_t mode = 0);

/// Writes all of `data` to `fd`, retrying short writes and EINTR.
bool write_all(int fd, std::string_view data);

/// Appends everything left to read from `fd` to `out`, retrying EINTR.
/// False on a read error (EIO, EISDIR, ...): `out` then holds only a
/// prefix of the file and must not be taken for the whole of it.
bool read_all(int fd, std::string& out);

/// fsync(2), retried on EINTR.
bool fsync_retry(int fd);

/// Crash-consistent replace: writes `text` to `path + ".tmp"`, fsyncs it,
/// renames it over `path`, then fsyncs the containing directory so the
/// rename itself survives power loss.  A reader only ever observes the old
/// complete file or the new complete file.  False on any failure, with
/// `path` untouched.
bool write_file_atomic(const std::string& path, std::string_view text);

}  // namespace ibgp::util::fileio
