// ibgpd — the hardened streaming daemon: ibgp-wire-v1 on stdin/stdout.
//
//   $ ./ibgpd --figure fig1a --protocol modified --state-dir /tmp/ibgpd < stream.jsonl
//   $ ./ibgpd --figure fig1a --protocol modified --state-dir /tmp/ibgpd --resume < tail.jsonl
//   $ ./ibgpd --topo net.topo --protocol modified --ckpt-every 16
//
// SIGTERM triggers a graceful drain: intake stops, every queued reply is
// flushed, the engine runs to quiescence, a final checkpoint lands, and
// the process exits 0.  SIGKILL needs no cooperation: restart with
// --resume and the daemon replays its write-ahead journal and answers
// byte-identically to a run that was never interrupted.
//
// Exit codes: 0 clean (EOF or drain), 2 startup/usage error.

#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>

#include "daemon/daemon.hpp"
#include "daemon/service.hpp"
#include "topo/dsl.hpp"
#include "topo/figures.hpp"
#include "util/flags.hpp"
#include "util/log.hpp"

namespace {

void on_sigterm(int) { ibgp::daemon::DaemonService::request_drain(); }

}  // namespace

int main(int argc, char** argv) {
  using namespace ibgp;

  util::init_log_level_from_env();
  util::Flags flags("ibgpd", "ibgp-wire-v1 streaming daemon (stdin -> stdout)");
  flags.add_string("figure", "fig1a", "figure instance (ignored when --topo is set)");
  flags.add_string("topo", "", "load the instance from a .topo DSL file");
  flags.add_string("protocol", "modified", "standard|walton|modified");
  flags.add_string("state-dir", "", "checkpoint + journal directory (empty = no persistence)");
  flags.add_bool("resume", false, "recover from --state-dir instead of starting fresh");
  flags.add_int("ckpt-every", 64, "accepted records between checkpoints (0 = only on drain)");
  flags.add_int("spf-cache-epochs", 0, "SpfCache LRU capacity (0 = unbounded)");
  flags.add_int("queue-cap", 256, "bounded ingest queue capacity (live records)");
  flags.add_bool("watchdog", true, "run the liveness watchdog thread");
  flags.add_int("watchdog-interval-ms", 200, "watchdog poll interval");
  flags.add_int("watchdog-stall-ms", 5000, "in-flight time before a stall is recorded");
  flags.add_bool("watchdog-fatal", false, "abort() on stall (external-supervisor mode)");
  flags.add_int("kill-after", 0, "chaos hook: SIGKILL self after flushing reply #N (0 = off)");
  flags.add_string("metrics-file", "", "write Prometheus text exposition here (atomic rewrite)");
  flags.add_int("metrics-interval-ms", 1000, "exposition rewrite cadence for --metrics-file");
  const auto usage = [&](const std::string& error) {
    std::fprintf(stderr, "%s\n%s", error.c_str(), flags.help_text().c_str());
    return 2;
  };
  if (!flags.parse(argc, argv)) return usage(std::string(flags.error()));
  if (flags.help_requested()) {
    std::printf("%s", flags.help_text().c_str());
    return 0;
  }
  // A negative count or duration would wrap through the unsigned options
  // (--ckpt-every -1 would never checkpoint), and a queue of capacity 0
  // could never admit a record.
  for (const char* name : {"ckpt-every", "spf-cache-epochs", "watchdog-interval-ms",
                           "watchdog-stall-ms", "kill-after", "metrics-interval-ms"}) {
    if (flags.get_int(name) < 0) return usage(std::string("flag --") + name + " expects N >= 0");
  }
  if (flags.get_int("queue-cap") < 1) return usage("flag --queue-cap expects N >= 1");

  std::shared_ptr<core::Instance> instance;
  try {
    if (!flags.get_string("topo").empty()) {
      instance = std::make_shared<core::Instance>(
          topo::load_topo_file(std::string(flags.get_string("topo"))));
    } else {
      for (auto& [label, figure] : topo::all_figures()) {
        if (label == flags.get_string("figure")) {
          instance = std::make_shared<core::Instance>(std::move(figure));
        }
      }
      if (!instance) {
        std::fprintf(stderr, "ibgpd: unknown figure '%s'\n",
                     std::string(flags.get_string("figure")).c_str());
        return 2;
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ibgpd: %s\n", e.what());
    return 2;
  }

  core::ProtocolKind protocol = core::ProtocolKind::kModified;
  if (flags.get_string("protocol") == "standard") protocol = core::ProtocolKind::kStandard;
  else if (flags.get_string("protocol") == "walton") protocol = core::ProtocolKind::kWalton;
  else if (flags.get_string("protocol") != "modified") {
    std::fprintf(stderr, "ibgpd: unknown protocol '%s'\n",
                 std::string(flags.get_string("protocol")).c_str());
    return 2;
  }

  daemon::DaemonOptions dopts;
  dopts.state_dir = std::string(flags.get_string("state-dir"));
  dopts.resume = flags.get_bool("resume");
  dopts.ckpt_every = static_cast<std::uint64_t>(flags.get_int("ckpt-every"));
  dopts.spf_cache_epochs = static_cast<std::size_t>(flags.get_int("spf-cache-epochs"));

  std::optional<daemon::Daemon> daemon;
  try {
    daemon.emplace(instance, protocol, dopts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ibgpd: %s\n", e.what());
    return 2;
  }

  daemon::ServiceOptions sopts;
  sopts.queue_capacity = static_cast<std::size_t>(flags.get_int("queue-cap"));
  sopts.watchdog_enabled = flags.get_bool("watchdog");
  sopts.watchdog.interval = std::chrono::milliseconds(flags.get_int("watchdog-interval-ms"));
  sopts.watchdog.stall_after = std::chrono::milliseconds(flags.get_int("watchdog-stall-ms"));
  sopts.watchdog.fatal = flags.get_bool("watchdog-fatal");
  sopts.kill_after = static_cast<std::uint64_t>(flags.get_int("kill-after"));
  sopts.metrics_file = std::string(flags.get_string("metrics-file"));
  sopts.metrics_interval_ms = std::chrono::milliseconds(flags.get_int("metrics-interval-ms"));

  daemon::DaemonService service(*daemon, STDIN_FILENO, stdout, sopts);

  // No SA_RESTART: the reader's poll() must wake with EINTR so a signal
  // delivered to it still turns into a prompt drain via the self-pipe.
  struct sigaction sa = {};
  sa.sa_handler = on_sigterm;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGTERM, &sa, nullptr);

  return service.run();
}
