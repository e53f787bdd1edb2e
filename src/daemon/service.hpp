#pragma once
// The threaded harness around the synchronous Daemon core.
//
//   reader thread ──► bounded IngestQueue ──► processing loop ──► out
//                                                 │
//                                            Watchdog thread
//
// The reader poll()s the input fd alongside an internal self-pipe; a
// SIGTERM handler (or any caller) pokes the pipe via request_drain(),
// which is async-signal-safe.  On drain the service stops intake, lets
// the processing loop flush every queued reply, asks the Daemon for its
// final checkpoint + `drained` line, and returns 0 — the graceful half of
// the crash-recovery story (the SIGKILL half needs no cooperation at all,
// by construction of the WAL).
//
// `kill_after` exists for the chaos gate: after physically flushing reply
// number N the service raises SIGKILL against itself, which plants the
// kill at an exact, reproducible record boundary.

#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>

#include "daemon/daemon.hpp"
#include "daemon/queue.hpp"
#include "daemon/watchdog.hpp"

namespace ibgp::daemon {

struct ServiceOptions {
  /// Live ingest records; 0 makes the constructor throw (IngestQueue).
  std::size_t queue_capacity = 256;
  bool watchdog_enabled = true;
  Watchdog::Options watchdog;
  /// Testing hook: SIGKILL this process right after flushing reply #N
  /// (0 = disabled).
  std::uint64_t kill_after = 0;
  /// When non-empty, a background thread rewrites this file (atomically:
  /// tmp + rename) with the Prometheus text exposition of the daemon's
  /// full metrics registry every `metrics_interval_ms`, plus one final
  /// write at drain so the last scrape sees the completed stream.
  std::string metrics_file;
  std::chrono::milliseconds metrics_interval_ms{1000};
};

class DaemonService {
 public:
  DaemonService(Daemon& daemon, int in_fd, std::FILE* out, ServiceOptions options);
  ~DaemonService();

  DaemonService(const DaemonService&) = delete;
  DaemonService& operator=(const DaemonService&) = delete;

  /// Pumps the stream to EOF or drain.  Returns 0 on a clean exit.
  int run();

  /// Requests a graceful drain.  Async-signal-safe (one write(2)); wire it
  /// directly into a SIGTERM handler.
  static void request_drain();

 private:
  void reader_loop();
  void exporter_loop();
  void export_metrics();

  Daemon& daemon_;
  int in_fd_;
  std::FILE* out_;
  ServiceOptions options_;
  IngestQueue queue_;
  Watchdog watchdog_;

  // Metrics-file exporter thread (only started when options_.metrics_file
  // is set); the cv lets run() cut a final export and join without waiting
  // out a full interval.
  std::mutex exporter_mutex_;
  std::condition_variable exporter_cv_;
  bool exporter_stop_ = false;

  static int drain_pipe_write_fd;  // poked by request_drain()
  int drain_pipe_read_fd_ = -1;
};

}  // namespace ibgp::daemon
