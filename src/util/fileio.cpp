#include "util/fileio.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>

namespace ibgp::util::fileio {

int open_retry(const std::string& path, int flags, mode_t mode) {
  int fd = -1;
  do {
    fd = ::open(path.c_str(), flags, mode);
  } while (fd < 0 && errno == EINTR);
  return fd;
}

bool write_all(int fd, std::string_view data) {
  std::size_t done = 0;
  while (done < data.size()) {
    const ssize_t got = ::write(fd, data.data() + done, data.size() - done);
    if (got < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(got);
  }
  return true;
}

bool read_all(int fd, std::string& out) {
  char buf[65536];
  for (;;) {
    const ssize_t got = ::read(fd, buf, sizeof buf);
    if (got == 0) return true;
    if (got > 0) {
      out.append(buf, static_cast<std::size_t>(got));
    } else if (errno != EINTR) {
      return false;
    }
  }
}

bool fsync_retry(int fd) {
  int rc = -1;
  do {
    rc = ::fsync(fd);
  } while (rc < 0 && errno == EINTR);
  return rc == 0;
}

namespace {

// Best effort: some filesystems refuse O_RDONLY directory fds, and a
// failure here leaves the file itself already complete and renamed.
void fsync_parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const int fd = open_retry(slash == std::string::npos ? "." : path.substr(0, slash + 1),
                            O_RDONLY);
  if (fd < 0) return;
  fsync_retry(fd);
  ::close(fd);
}

}  // namespace

bool write_file_atomic(const std::string& path, std::string_view text) {
  const std::string tmp = path + ".tmp";
  const int fd = open_retry(tmp, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  bool ok = write_all(fd, text);
  ok = fsync_retry(fd) && ok;
  ok = (::close(fd) == 0) && ok;
  if (!ok || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  fsync_parent_dir(path);
  return true;
}

}  // namespace ibgp::util::fileio
