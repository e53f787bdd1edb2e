// Daemon-mode suite: the ibgp-wire-v1 codec, the bounded ingest queue's
// shedding policy, the watchdog, and — the centerpiece — the
// kill-at-every-record oracle: a daemon SIGKILLed (destroyed without
// drain) after EVERY prefix of a seeded stream, restarted with resume,
// and fed the remainder must answer every remaining line byte-identically
// to a daemon that was never interrupted, down to the trace hash and the
// metrics fingerprint in the final stats reply.
//
// The negative half replays examples/data/wire/bad_corpus.jsonl and an
// oversize line through a live daemon: every reply must be a structured
// error and the daemon must keep answering afterwards — malformed input
// can cost a reply, never the process.

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "ckpt_reference.hpp"
#include "daemon/daemon.hpp"
#include "daemon/queue.hpp"
#include "daemon/service.hpp"
#include "daemon/stream.hpp"
#include "daemon/watchdog.hpp"
#include "daemon/wire.hpp"
#include "obs/exposition.hpp"
#include "engine/event_engine.hpp"
#include "topo/figures.hpp"
#include "util/json.hpp"

namespace ibgp::daemon {
namespace {

using core::ProtocolKind;

std::filesystem::path fresh_state_dir(const std::string& tag) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("ibgp-daemon-test-" + tag + "-" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::shared_ptr<core::Instance> fig1a_shared() {
  return std::make_shared<core::Instance>(topo::fig1a());
}

std::vector<std::string> oracle_stream() {
  StreamOptions options;
  options.seed = 20020819;  // SIGCOMM '02
  options.state_records = 24;
  options.query_rate = 0.5;
  options.fault_rate = 0.3;
  // The modified protocol provably converges, so every step_engine call
  // drains; the standard protocol would oscillate forever on fig1a and
  // burn the whole step budget at the first announce.
  return generate_stream(topo::fig1a(), ProtocolKind::kModified, options);
}

bool is_error_reply(const std::string& reply) {
  return reply.find("\"ev\": \"error\"") != std::string::npos;
}

// --- wire codec -------------------------------------------------------------

TEST(Wire, ParsesTheFourRecordFamilies) {
  auto ok = [](std::string_view line) {
    auto parsed = parse_record(line);
    ASSERT_TRUE(std::holds_alternative<WireRecord>(parsed))
        << line << " -> " << std::get<WireError>(parsed).message;
  };
  ok(R"({"ev": "hello", "schema": "ibgp-wire-v1", "instance": "fig1a", "protocol": "modified"})");
  ok(R"({"ev": "announce", "seq": 1, "t": 10, "path": 0})");
  ok(R"({"ev": "withdraw", "seq": 2, "t": 10, "path": 1})");
  ok(R"({"ev": "fault", "seq": 3, "t": 12, "kind": "crash", "a": 2})");
  ok(R"({"ev": "fault", "seq": 4, "t": 12, "kind": "link-cost", "a": 0, "b": 1, "cost": 7})");
  ok(R"({"ev": "query", "q": "best", "node": 3})");
  ok(R"({"ev": "query", "q": "whatif", "kind": "session-down", "a": 0, "b": 1})");
  ok(R"({"ev": "drain"})");
}

TEST(Wire, RejectsStructurallyBadLinesWithTypedErrors) {
  auto code_of = [](std::string_view line) {
    auto parsed = parse_record(line);
    EXPECT_TRUE(std::holds_alternative<WireError>(parsed)) << line;
    return std::holds_alternative<WireError>(parsed) ? std::get<WireError>(parsed).code
                                                     : ErrorCode::kParse;
  };
  EXPECT_EQ(code_of("not json"), ErrorCode::kParse);
  EXPECT_EQ(code_of("[1, 2]"), ErrorCode::kParse);
  EXPECT_EQ(code_of(R"({"ev": "hello", "schema": "ibgp-wire-v2", "instance": "x", "protocol": "y"})"),
            ErrorCode::kVersion);
  EXPECT_EQ(code_of(R"({"ev": "teleport"})"), ErrorCode::kUnknownType);
  EXPECT_EQ(code_of(R"({"ev": "announce", "seq": 1, "t": 0, "path": 0, "junk": 1})"),
            ErrorCode::kBadField);
  EXPECT_EQ(code_of(R"({"ev": "announce", "seq": 0, "t": 0, "path": 0})"), ErrorCode::kBadField);
  EXPECT_EQ(code_of(R"({"ev": "announce", "seq": 1, "t": 4503599627370497, "path": 0})"),
            ErrorCode::kRange);
  EXPECT_EQ(code_of(R"({"ev": "fault", "seq": 1, "t": 0, "kind": "stale-expire", "a": 0})"),
            ErrorCode::kUnknownType);
  EXPECT_EQ(code_of(R"({"ev": "fault", "seq": 1, "t": 0, "kind": "crash", "a": 0, "b": 1})"),
            ErrorCode::kBadField);
  // Numbers that parse to doubles outside uint64 are refused before any
  // conversion (converting them would be undefined behaviour).
  for (const char* line : {
           R"({"ev": "announce", "seq": 1e300, "t": 0, "path": 0})",
           R"({"ev": "announce", "seq": 1, "t": 18446744073709551616, "path": 0})",
           R"({"ev": "withdraw", "seq": 1, "t": 0, "path": -1e300})",
           R"({"ev": "fault", "seq": 1, "t": 0, "kind": "link-cost", "a": 0, "b": 1, "cost": 1e300})",
           R"({"ev": "query", "q": "best", "node": 18446744073709551616})",
       }) {
    EXPECT_EQ(code_of(line), ErrorCode::kBadField) << line;
  }
  const std::string oversize(kMaxLineBytes + 1, 'x');
  EXPECT_EQ(code_of(oversize), ErrorCode::kOversize);
}

TEST(Wire, ErrorRepliesEchoTheSeqWhenParseable) {
  auto parsed = parse_record(R"({"ev": "fault", "seq": 7, "t": 0, "kind": "meteor", "a": 0})");
  ASSERT_TRUE(std::holds_alternative<WireError>(parsed));
  const auto& error = std::get<WireError>(parsed);
  EXPECT_TRUE(error.has_seq);
  EXPECT_EQ(error.seq, 7u);
  EXPECT_NE(error_reply(error).find("\"seq\": 7"), std::string::npos);
}

// --- engine horizon stepping ------------------------------------------------

TEST(RunUntil, IncrementalHorizonsMatchOneShotRun) {
  const auto inst = topo::fig1a();
  engine::EventEngine once(inst, ProtocolKind::kModified);
  once.inject_all_exits(0);
  once.withdraw_exit(0, 100);
  once.inject_exit(0, 200);
  const auto full = once.run();

  engine::EventEngine stepped(inst, ProtocolKind::kModified);
  stepped.inject_all_exits(0);
  stepped.withdraw_exit(0, 100);
  stepped.inject_exit(0, 200);
  std::size_t total = 0;
  for (const engine::SimTime horizon : {0u, 50u, 100u, 150u, 200u, 100000u}) {
    const auto part = stepped.run_until(horizon);
    EXPECT_TRUE(part.converged) << "not quiescent up to " << horizon;
    total += part.deliveries;
  }
  EXPECT_EQ(total, full.deliveries);
  EXPECT_EQ(stepped.flap_log().size(), once.flap_log().size());
  for (NodeId v = 0; v < inst.node_count(); ++v) {
    EXPECT_EQ(stepped.best_path(v), once.best_path(v)) << "node " << v;
  }
}

TEST(RunUntil, StopsBeforeEventsPastTheHorizon) {
  const auto inst = topo::fig1a();
  engine::EventEngine engine(inst, ProtocolKind::kModified);
  engine.inject_exit(0, 500);
  const auto early = engine.run_until(499);
  EXPECT_TRUE(early.converged);
  EXPECT_EQ(early.deliveries, 0u);
  const auto late = engine.run_until(100000);
  EXPECT_GT(late.deliveries, 0u);
}

// --- ingest queue shedding --------------------------------------------------

TEST(IngestQueue, ShedsOldestQueryFirstAtCapacity) {
  IngestQueue queue(2);
  queue.push("q1", /*is_query=*/true);
  queue.push("q2", /*is_query=*/true);
  queue.push("q3", /*is_query=*/true);  // tombstones q1, admits q3

  auto first = queue.pop();
  EXPECT_TRUE(first.shed);
  EXPECT_EQ(first.shed_code, ErrorCode::kShed);
  EXPECT_TRUE(first.line.empty());
  auto second = queue.pop();
  EXPECT_FALSE(second.shed);
  EXPECT_EQ(second.line, "q2");
  auto third = queue.pop();
  EXPECT_FALSE(third.shed);
  EXPECT_EQ(third.line, "q3");
  EXPECT_EQ(queue.sheds(), 1u);
}

TEST(IngestQueue, StateIsNeverShedQueryBouncesWhenNothingSheddable) {
  IngestQueue queue(2);
  queue.push("s1", /*is_query=*/false);
  queue.push("s2", /*is_query=*/false);
  queue.push("q", /*is_query=*/true);  // nothing sheddable: admitted pre-tombstoned

  EXPECT_EQ(queue.pop().line, "s1");
  EXPECT_EQ(queue.pop().line, "s2");
  auto bounced = queue.pop();
  EXPECT_TRUE(bounced.shed);
  EXPECT_EQ(bounced.shed_code, ErrorCode::kOverload);
}

TEST(IngestQueue, FullQueueBackpressuresStateUntilConsumed) {
  IngestQueue queue(1);
  queue.push("s1", /*is_query=*/false);
  std::thread producer([&] { queue.push("s2", /*is_query=*/false); });
  // The producer must block until s1 is popped; drain both to join.
  EXPECT_EQ(queue.pop().line, "s1");
  EXPECT_EQ(queue.pop().line, "s2");
  producer.join();
  EXPECT_EQ(queue.sheds(), 0u);
}

TEST(IngestQueue, RefusesCapacityZero) {
  // Capacity 0 would block the reader on the first state record for good,
  // where it never sees the drain pipe: only SIGKILL could end the daemon.
  EXPECT_THROW(IngestQueue{0}, std::invalid_argument);
  Daemon daemon(fig1a_shared(), ProtocolKind::kModified, DaemonOptions{});
  ServiceOptions options;
  options.watchdog_enabled = false;
  options.queue_capacity = 0;
  EXPECT_THROW(DaemonService(daemon, STDIN_FILENO, stdout, options), std::invalid_argument);
}

// --- watchdog ---------------------------------------------------------------

TEST(WatchdogTest, RecordsAStallOnlyWhenARecordIsInFlight) {
  obs::MetricsRegistry registry;
  Watchdog::Options options;
  options.interval = std::chrono::milliseconds(5);
  options.stall_after = std::chrono::milliseconds(30);
  Watchdog dog(&registry, options);
  dog.start();
  // Idle time never counts as a stall.
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  EXPECT_EQ(dog.stalls(), 0u);
  dog.begin_record();
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  dog.end_record();
  dog.stop();
  EXPECT_GE(dog.stalls(), 1u);
}

// --- negative-path corpus ---------------------------------------------------

TEST(DaemonErrors, EveryBadCorpusLineBecomesAStructuredError) {
  Daemon daemon(fig1a_shared(), ProtocolKind::kModified, DaemonOptions{});
  EXPECT_FALSE(is_error_reply(daemon.handle_line(
      R"({"ev": "hello", "schema": "ibgp-wire-v1", "instance": "fig1a", "protocol": "modified"})")));

  std::ifstream corpus(IBGP_WIRE_CORPUS);
  ASSERT_TRUE(corpus.is_open()) << IBGP_WIRE_CORPUS;
  std::string line;
  std::size_t lines = 0;
  while (std::getline(corpus, line)) {
    if (line.empty()) continue;
    ++lines;
    const std::string reply = daemon.handle_line(line);
    EXPECT_TRUE(is_error_reply(reply)) << "line: " << line << "\nreply: " << reply;
  }
  EXPECT_GE(lines, 30u);

  // The oversize line is built here rather than shipped as a 64 KiB file.
  EXPECT_TRUE(is_error_reply(daemon.handle_line(std::string(kMaxLineBytes + 1, '{'))));

  // Non-monotonic timestamps need applied state to be observable.
  EXPECT_FALSE(is_error_reply(
      daemon.handle_line(R"({"ev": "announce", "seq": 1, "t": 100, "path": 0})")));
  const std::string stale =
      daemon.handle_line(R"({"ev": "announce", "seq": 2, "t": 50, "path": 1})");
  EXPECT_TRUE(is_error_reply(stale));
  EXPECT_NE(stale.find("\"code\": \"order\""), std::string::npos) << stale;

  // After all of the abuse the daemon still answers real queries.
  const std::string status = daemon.handle_line(R"({"ev": "query", "q": "status"})");
  EXPECT_FALSE(is_error_reply(status));
  EXPECT_NE(status.find("\"applied_seq\": 1"), std::string::npos) << status;
}

TEST(DaemonErrors, StateRecordsBeforeHelloAreRefused) {
  Daemon daemon(fig1a_shared(), ProtocolKind::kModified, DaemonOptions{});
  const std::string reply =
      daemon.handle_line(R"({"ev": "announce", "seq": 1, "t": 0, "path": 0})");
  EXPECT_TRUE(is_error_reply(reply));
  EXPECT_NE(reply.find("hello"), std::string::npos);
}

TEST(DaemonErrors, HelloIdentityMismatchIsRefused) {
  Daemon daemon(fig1a_shared(), ProtocolKind::kModified, DaemonOptions{});
  const std::string reply = daemon.handle_line(
      R"({"ev": "hello", "schema": "ibgp-wire-v1", "instance": "fig3", "protocol": "modified"})");
  EXPECT_TRUE(is_error_reply(reply));
  EXPECT_NE(reply.find("\"code\": \"identity\""), std::string::npos) << reply;
}

// --- the kill-at-every-record oracle ----------------------------------------

TEST(DaemonRecovery, KillAtEveryRecordAnswersByteIdentically) {
  const auto lines = oracle_stream();

  // The uninterrupted reference run.
  const auto ref_dir = fresh_state_dir("oracle-ref");
  std::vector<std::string> reference;
  {
    DaemonOptions options;
    options.state_dir = ref_dir.string();
    options.ckpt_every = 4;
    Daemon daemon(fig1a_shared(), ProtocolKind::kModified, options);
    for (const auto& line : lines) reference.push_back(daemon.handle_line(line));
  }
  ASSERT_EQ(reference.size(), lines.size());

  for (std::size_t kill = 1; kill + 1 < lines.size(); ++kill) {
    const auto dir = fresh_state_dir("oracle-" + std::to_string(kill));
    {
      DaemonOptions options;
      options.state_dir = dir.string();
      options.ckpt_every = 4;
      Daemon victim(fig1a_shared(), ProtocolKind::kModified, options);
      for (std::size_t i = 0; i < kill; ++i) {
        EXPECT_EQ(victim.handle_line(lines[i]), reference[i]) << "prefix line " << i;
      }
      // Destruction without drain() writes nothing: SIGKILL-equivalent.
    }
    DaemonOptions options;
    options.state_dir = dir.string();
    options.ckpt_every = 4;
    options.resume = true;
    Daemon survivor(fig1a_shared(), ProtocolKind::kModified, options);
    const std::string hello = survivor.handle_line(lines[0]);
    EXPECT_NE(hello.find("\"resumed\": true"), std::string::npos) << hello;
    for (std::size_t i = kill; i < lines.size(); ++i) {
      if (i == 0) continue;  // kill >= 1, so the hello is never replayed here
      EXPECT_EQ(survivor.handle_line(lines[i]), reference[i])
          << "kill point " << kill << ", line " << i << ": " << lines[i];
    }
    std::filesystem::remove_all(dir);
  }
  std::filesystem::remove_all(ref_dir);
}

TEST(DaemonRecovery, ResumesFromAnIndentedCheckpointOfAnOlderBuild) {
  // Older builds wrote checkpoint.json indented; this build writes it as
  // one line.  A state dir holding an indented checkpoint plus its journal
  // must resume to the same replies as a daemon that was never killed.
  const auto lines = oracle_stream();
  const std::size_t kill = lines.size() / 2;
  std::vector<std::string> reference;
  {
    const auto ref_dir = fresh_state_dir("indented-ref");
    DaemonOptions options;
    options.state_dir = ref_dir.string();
    options.ckpt_every = 4;
    Daemon daemon(fig1a_shared(), ProtocolKind::kModified, options);
    for (const auto& line : lines) reference.push_back(daemon.handle_line(line));
    std::filesystem::remove_all(ref_dir);
  }

  const auto dir = fresh_state_dir("indented");
  {
    DaemonOptions options;
    options.state_dir = dir.string();
    options.ckpt_every = 4;
    Daemon victim(fig1a_shared(), ProtocolKind::kModified, options);
    for (std::size_t i = 0; i < kill; ++i) victim.handle_line(lines[i]);
  }
  const auto ckpt = dir / "checkpoint.json";
  ASSERT_TRUE(std::filesystem::exists(ckpt));
  std::string compact;
  {
    std::ifstream in(ckpt, std::ios::binary);
    compact.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  const auto doc = util::json::parse(compact);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(compact, doc->dump_compact());  // one line, as written
  EXPECT_GT(doc->at("applied_seq").as_uint(), 0u);  // resume starts from it, not from scratch
  {
    std::ofstream out(ckpt, std::ios::binary | std::ios::trunc);
    out << doc->dump();
  }

  DaemonOptions options;
  options.state_dir = dir.string();
  options.ckpt_every = 4;
  options.resume = true;
  Daemon survivor(fig1a_shared(), ProtocolKind::kModified, options);
  survivor.handle_line(lines[0]);
  for (std::size_t i = kill; i < lines.size(); ++i) {
    EXPECT_EQ(survivor.handle_line(lines[i]), reference[i]) << "line " << i;
  }
  std::filesystem::remove_all(dir);
}

TEST(DaemonRecovery, TornWalTailIsTruncatedAndReplayedClean) {
  const auto lines = oracle_stream();
  const auto dir = fresh_state_dir("torn");
  const std::size_t kill = lines.size() / 2;

  std::vector<std::string> reference;
  {
    const auto ref_dir = fresh_state_dir("torn-ref");
    DaemonOptions options;
    options.state_dir = ref_dir.string();
    options.ckpt_every = 6;
    Daemon daemon(fig1a_shared(), ProtocolKind::kModified, options);
    for (const auto& line : lines) reference.push_back(daemon.handle_line(line));
    std::filesystem::remove_all(ref_dir);
  }

  {
    DaemonOptions options;
    options.state_dir = dir.string();
    options.ckpt_every = 6;
    Daemon victim(fig1a_shared(), ProtocolKind::kModified, options);
    for (std::size_t i = 0; i < kill; ++i) victim.handle_line(lines[i]);
  }
  {
    // The append a SIGKILL interrupted: no trailing newline, half a record.
    std::ofstream wal(dir / "wal.jsonl", std::ios::app);
    wal << R"({"ev": "announce", "seq": 99999, "t")";
  }

  DaemonOptions options;
  options.state_dir = dir.string();
  options.ckpt_every = 6;
  options.resume = true;
  Daemon survivor(fig1a_shared(), ProtocolKind::kModified, options);
  survivor.handle_line(lines[0]);
  for (std::size_t i = kill; i < lines.size(); ++i) {
    EXPECT_EQ(survivor.handle_line(lines[i]), reference[i]) << "line " << i;
  }
  std::filesystem::remove_all(dir);
}

TEST(DaemonRecovery, ReplayedRecordsGetByteIdenticalAcks) {
  const auto dir = fresh_state_dir("dedupe");
  DaemonOptions options;
  options.state_dir = dir.string();
  Daemon daemon(fig1a_shared(), ProtocolKind::kModified, options);
  daemon.handle_line(
      R"({"ev": "hello", "schema": "ibgp-wire-v1", "instance": "fig1a", "protocol": "modified"})");
  const std::string record = R"({"ev": "announce", "seq": 1, "t": 10, "path": 0})";
  const std::string first = daemon.handle_line(record);
  EXPECT_NE(first.find("\"ev\": \"ack\""), std::string::npos);
  // A client that never saw its ack re-sends; exactly-once means the apply
  // is skipped but the ack is reproduced byte for byte.
  EXPECT_EQ(daemon.handle_line(record), first);
  const std::string stats = daemon.handle_line(R"({"ev": "query", "q": "stats"})");
  EXPECT_NE(stats.find("\"state_records\": 1"), std::string::npos) << stats;
  std::filesystem::remove_all(dir);
}

TEST(DaemonRecovery, ResumeRefusesAForeignStateDir) {
  const auto dir = fresh_state_dir("foreign");
  {
    DaemonOptions options;
    options.state_dir = dir.string();
    Daemon daemon(fig1a_shared(), ProtocolKind::kModified, options);
    daemon.handle_line(
        R"({"ev": "hello", "schema": "ibgp-wire-v1", "instance": "fig1a", "protocol": "modified"})");
    daemon.handle_line(R"({"ev": "announce", "seq": 1, "t": 0, "path": 0})");
    daemon.drain();
  }
  DaemonOptions options;
  options.state_dir = dir.string();
  options.resume = true;
  EXPECT_THROW(
      { Daemon other(std::make_shared<core::Instance>(topo::fig3()), ProtocolKind::kModified, options); },
      std::runtime_error);
  std::filesystem::remove_all(dir);
}

TEST(DaemonRecovery, ResumeRefusesAJournalItCannotRead) {
  // A read error must not pass for the end of the journal: recovery would
  // replay a prefix and truncate acknowledged records away.  A directory in
  // the journal's place opens fine but fails every read.
  const auto dir = fresh_state_dir("unreadable");
  std::filesystem::create_directory(dir / "wal.jsonl");
  DaemonOptions options;
  options.state_dir = dir.string();
  options.resume = true;
  try {
    Daemon daemon(fig1a_shared(), ProtocolKind::kModified, options);
    ADD_FAILURE() << "resume accepted an unreadable journal";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("cannot read journal"), std::string::npos) << e.what();
  }
  std::filesystem::remove_all(dir);
}

TEST(DaemonRecovery, DrainKeepsTheJournalWhenItsCheckpointFails) {
  // The journal holds the only durable copy of every record acknowledged
  // since the last checkpoint, so a drain whose checkpoint cannot be
  // written must leave it in place for the next resume.
  StreamOptions stream;
  stream.seed = 7;
  stream.state_records = 40;
  stream.query_rate = 0.0;
  auto lines = generate_stream(topo::fig1a(), ProtocolKind::kModified, stream);
  ASSERT_NE(lines.back().find("\"drain\""), std::string::npos);
  lines.pop_back();  // the test drains by hand
  const std::string stats = R"({"ev": "query", "q": "stats"})";
  DaemonOptions options;
  options.ckpt_every = 16;  // the journal holds records 33-40 at the drain

  std::string want;
  {
    const auto ref_dir = fresh_state_dir("drain-fail-ref");
    options.state_dir = ref_dir.string();
    Daemon daemon(fig1a_shared(), ProtocolKind::kModified, options);
    for (const auto& line : lines) daemon.handle_line(line);
    want = daemon.handle_line(stats);
    std::filesystem::remove_all(ref_dir);
  }
  ASSERT_NE(want.find("\"applied_seq\": 40"), std::string::npos) << want;

  const auto dir = fresh_state_dir("drain-fail");
  options.state_dir = dir.string();
  {
    Daemon victim(fig1a_shared(), ProtocolKind::kModified, options);
    for (const auto& line : lines) ASSERT_FALSE(is_error_reply(victim.handle_line(line)));
    // A directory where the checkpoint's temporary file goes fails the write.
    std::filesystem::create_directory(dir / "checkpoint.json.tmp");
    const std::string drained = victim.drain();
    EXPECT_NE(drained.find("\"ev\": \"drained\""), std::string::npos) << drained;
    // The reply says so, every time it is asked.
    EXPECT_NE(drained.find(", \"checkpoint_failed\": true}"), std::string::npos) << drained;
    EXPECT_EQ(victim.drain(), drained);
  }
  std::filesystem::remove(dir / "checkpoint.json.tmp");

  options.resume = true;
  Daemon survivor(fig1a_shared(), ProtocolKind::kModified, options);
  survivor.handle_line(lines[0]);
  EXPECT_EQ(survivor.handle_line(stats), want);
  std::filesystem::remove_all(dir);
}

// --- replies pinned across builds --------------------------------------------

std::vector<std::string> read_lines(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::vector<std::string> out;
  for (std::string line; std::getline(in, line);) out.push_back(line);
  return out;
}

TEST(DaemonGolden, ChaosGateStreamAnswersThePinnedReplies) {
  // IBGP_WIRE_GOLDEN holds what an earlier build's ibgpd answered to
  // `wire_client --figure fig1a --protocol modified --seed 7 --records 60`
  // with --ckpt-every 8: acks, reads, what-ifs, stats and the drained line
  // with its trace hash and metrics fingerprint.  CI diffs a live ibgpd
  // against the same file.
  StreamOptions stream;
  stream.seed = 7;
  stream.state_records = 60;
  const auto lines = generate_stream(topo::fig1a(), ProtocolKind::kModified, stream);
  const auto golden = read_lines(IBGP_WIRE_GOLDEN);
  ASSERT_EQ(golden.size(), lines.size());
  std::size_t whatifs = 0;
  for (const auto& reply : golden) whatifs += reply.find("\"ev\": \"whatif\"") != std::string::npos;
  EXPECT_GT(whatifs, 0u);

  const auto dir = fresh_state_dir("golden");
  DaemonOptions options;
  options.state_dir = dir.string();
  options.ckpt_every = 8;
  Daemon daemon(fig1a_shared(), ProtocolKind::kModified, options);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(daemon.handle_line(lines[i]), golden[i]) << "line " << i << ": " << lines[i];
  }

  // The drain's checkpoint holds the bytes the tree encoder wrote: the
  // outer document dumped compact around the reference engine encoding.
  std::ifstream in(dir / "checkpoint.json", std::ios::binary);
  const std::string text{std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
  const auto doc = util::json::parse(text).value();
  util::json::Object outer = doc.as_object();
  ASSERT_EQ(outer.back().first, "engine");
  outer.back().second =
      reference::engine_state_json(ckpt::parse_engine_state(doc.at("engine")));
  EXPECT_EQ(util::json::Value(std::move(outer)).dump_compact(), text);
  std::filesystem::remove_all(dir);
}

// --- graceful drain ---------------------------------------------------------

TEST(DaemonDrain, DrainIsIdempotentAndRefusesFurtherState) {
  const auto dir = fresh_state_dir("drain");
  DaemonOptions options;
  options.state_dir = dir.string();
  Daemon daemon(fig1a_shared(), ProtocolKind::kModified, options);
  daemon.handle_line(
      R"({"ev": "hello", "schema": "ibgp-wire-v1", "instance": "fig1a", "protocol": "modified"})");
  daemon.handle_line(R"({"ev": "announce", "seq": 1, "t": 0, "path": 0})");

  const std::string once = daemon.drain();
  EXPECT_NE(once.find("\"ev\": \"drained\""), std::string::npos);
  EXPECT_EQ(once.find("checkpoint_failed"), std::string::npos) << once;
  EXPECT_EQ(daemon.drain(), once);
  EXPECT_TRUE(std::filesystem::exists(dir / "checkpoint.json"));

  EXPECT_TRUE(is_error_reply(
      daemon.handle_line(R"({"ev": "announce", "seq": 2, "t": 5, "path": 1})")));
  // Queries still answer after drain.
  EXPECT_FALSE(is_error_reply(daemon.handle_line(R"({"ev": "query", "q": "best", "node": 0})")));
  std::filesystem::remove_all(dir);
}

// --- what-if sandboxing -----------------------------------------------------

TEST(DaemonWhatIf, SandboxLeavesTheLiveEngineUntouched) {
  Daemon daemon(fig1a_shared(), ProtocolKind::kModified, DaemonOptions{});
  daemon.handle_line(
      R"({"ev": "hello", "schema": "ibgp-wire-v1", "instance": "fig1a", "protocol": "modified"})");
  daemon.handle_line(R"({"ev": "announce", "seq": 1, "t": 0, "path": 0})");
  daemon.handle_line(R"({"ev": "announce", "seq": 2, "t": 0, "path": 1})");

  const std::string before = daemon.handle_line(R"({"ev": "query", "q": "stats"})");
  const std::string whatif =
      daemon.handle_line(R"({"ev": "query", "q": "whatif", "kind": "crash", "a": 0})");
  EXPECT_NE(whatif.find("\"ev\": \"whatif\""), std::string::npos) << whatif;
  // Asking twice gives the same answer, and the live stats never move.
  EXPECT_EQ(daemon.handle_line(R"({"ev": "query", "q": "whatif", "kind": "crash", "a": 0})"),
            whatif);
  EXPECT_EQ(daemon.handle_line(R"({"ev": "query", "q": "stats"})"), before);
}

// --- metrics query & live exposition ----------------------------------------

TEST(DaemonMetrics, MetricsQueryReturnsFullRegistrySnapshot) {
  Daemon daemon(fig1a_shared(), ProtocolKind::kModified, DaemonOptions{});
  daemon.handle_line(
      R"({"ev": "hello", "schema": "ibgp-wire-v1", "instance": "fig1a", "protocol": "modified"})");
  daemon.handle_line(R"({"ev": "announce", "seq": 1, "t": 0, "path": 0})");

  const std::string reply = daemon.handle_line(R"({"ev": "query", "q": "metrics"})");
  EXPECT_FALSE(is_error_reply(reply)) << reply;
  EXPECT_NE(reply.find("\"ev\": \"metrics\""), std::string::npos) << reply;
  EXPECT_NE(reply.find("\"schema\": \"ibgp-metrics-v1\""), std::string::npos);
  EXPECT_NE(reply.find("\"deterministic\""), std::string::npos);
  EXPECT_NE(reply.find("\"volatile\""), std::string::npos);
  EXPECT_NE(reply.find("\"metrics_fingerprint\": \"0x"), std::string::npos);
  EXPECT_NE(reply.find("\"daemon.state_records\""), std::string::npos)
      << "deterministic stream counters ride the snapshot";

  // The per-query-kind latency span lands after its reply is rendered, so
  // the *second* metrics reply carries the first call's sample.
  const std::string second = daemon.handle_line(R"({"ev": "query", "q": "metrics"})");
  EXPECT_NE(second.find("daemon.latency.metrics_ns"), std::string::npos) << second;
}

TEST(DaemonMetrics, ServiceSpansRecordWalFsyncAndCheckpointWrites) {
  const auto dir = fresh_state_dir("spans");
  DaemonOptions options;
  options.state_dir = dir.string();
  options.ckpt_every = 1;  // checkpoint on every accepted record
  Daemon daemon(fig1a_shared(), ProtocolKind::kModified, options);
  daemon.handle_line(
      R"({"ev": "hello", "schema": "ibgp-wire-v1", "instance": "fig1a", "protocol": "modified"})");
  daemon.handle_line(R"({"ev": "announce", "seq": 1, "t": 0, "path": 0})");

  auto count_of = [&](const char* name) {
    for (const auto& sample : daemon.metrics().snapshot()) {
      if (sample.name == name) return sample.total;
    }
    return std::uint64_t{0};
  };
  EXPECT_GE(count_of("daemon.span.wal_fsync_ns"), 1u) << "the announce was journaled";
  EXPECT_GE(count_of("daemon.span.ckpt_write_ns"), 1u) << "ckpt_every=1 checkpointed it";
  EXPECT_GE(count_of("daemon.latency.best_ns"), 0u);  // registered, maybe unsampled
  std::filesystem::remove_all(dir);
}

TEST(DaemonMetrics, ExpositionRendersDaemonRegistryWellFormed) {
  Daemon daemon(fig1a_shared(), ProtocolKind::kModified, DaemonOptions{});
  daemon.handle_line(
      R"({"ev": "hello", "schema": "ibgp-wire-v1", "instance": "fig1a", "protocol": "modified"})");
  daemon.handle_line(R"({"ev": "announce", "seq": 1, "t": 0, "path": 0})");
  daemon.handle_line(R"({"ev": "query", "q": "status"})");

  const std::string text = obs::render_exposition(daemon.metrics().snapshot());
  EXPECT_NE(text.find("# TYPE daemon_state_records_total counter\n"), std::string::npos) << text;
  EXPECT_NE(text.find("daemon_state_records_total 1\n"), std::string::npos);
  // The status query above must have landed one sample in its latency
  // histogram, with correct cumulative rendering.
  EXPECT_NE(text.find("# TYPE daemon_latency_status_ns histogram\n"), std::string::npos);
  EXPECT_NE(text.find("daemon_latency_status_ns_bucket{le=\"+Inf\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("daemon_latency_status_ns_count 1\n"), std::string::npos);

  // Structural sanity over the whole document: cumulative buckets and
  // +Inf == _count for every histogram.
  std::istringstream in(text);
  std::string line;
  std::string base;
  std::uint64_t last = 0, inf = 0;
  std::size_t histograms = 0;
  while (std::getline(in, line)) {
    const auto space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string name = line.substr(0, space);
    const auto bucket = name.find("_bucket{");
    if (bucket != std::string::npos) {
      const std::string this_base = name.substr(0, bucket);
      if (this_base != base) {
        base = this_base;
        last = 0;
        ++histograms;
      }
      const std::uint64_t v = std::stoull(line.substr(space + 1));
      EXPECT_GE(v, last) << "buckets must be cumulative: " << line;
      last = v;
      if (name.find("le=\"+Inf\"") != std::string::npos) inf = v;
    } else if (name.size() > 6 && name.compare(name.size() - 6, 6, "_count") == 0) {
      EXPECT_EQ(std::stoull(line.substr(space + 1)), inf)
          << "+Inf bucket must equal _count: " << line;
    }
  }
  EXPECT_GT(histograms, 5u) << "latency + span histograms all render";
}

TEST(DaemonService, HealthCarriesQueueHwmAndMetricsFileIsWritten) {
  // End-to-end through the threaded service: pipe in a probe stream (the
  // same shape `wire_client --health` emits), collect replies from a
  // tmpfile, and scrape the --metrics-file exposition after drain.
  const auto dir = fresh_state_dir("svc-metrics");
  const std::string metrics_path = (dir / "metrics.prom").string();

  Daemon daemon(fig1a_shared(), ProtocolKind::kModified, DaemonOptions{});
  int fds[2] = {-1, -1};
  ASSERT_EQ(::pipe(fds), 0);
  std::FILE* out = std::tmpfile();
  ASSERT_NE(out, nullptr);

  ServiceOptions options;
  options.watchdog_enabled = false;
  options.metrics_file = metrics_path;
  options.metrics_interval_ms = std::chrono::milliseconds(10);
  DaemonService service(daemon, fds[0], out, options);

  const std::string stream =
      "{\"ev\": \"hello\", \"schema\": \"ibgp-wire-v1\", \"instance\": \"fig1a\", "
      "\"protocol\": \"modified\"}\n"
      "{\"ev\": \"announce\", \"seq\": 1, \"t\": 0, \"path\": 0}\n"
      "{\"ev\": \"query\", \"q\": \"health\"}\n"
      "{\"ev\": \"drain\"}\n";
  std::thread writer([&] {
    (void)!::write(fds[1], stream.data(), stream.size());
    ::close(fds[1]);
  });
  EXPECT_EQ(service.run(), 0);
  writer.join();
  ::close(fds[0]);

  std::string replies;
  std::rewind(out);
  char buf[4096];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof buf, out)) > 0) replies.append(buf, got);
  std::fclose(out);

  EXPECT_NE(replies.find("\"ev\": \"health\""), std::string::npos) << replies;
  EXPECT_NE(replies.find("\"queue_depth_hwm\""), std::string::npos)
      << "health must report the ingest high-water mark: " << replies;
  EXPECT_NE(replies.find("\"sheds\": 0"), std::string::npos) << replies;
  EXPECT_NE(replies.find("\"ev\": \"drained\""), std::string::npos) << replies;

  // The exporter's final write reflects the drained stream.
  std::ifstream in(metrics_path);
  ASSERT_TRUE(in.is_open()) << metrics_path;
  std::stringstream scraped;
  scraped << in.rdbuf();
  const std::string text = scraped.str();
  EXPECT_NE(text.find("# TYPE daemon_state_records_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("daemon_state_records_total 1\n"), std::string::npos);
  EXPECT_NE(text.find("_bucket{le=\"+Inf\"}"), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(IngestQueue, TracksLiveDepthHighWaterMark) {
  IngestQueue queue(4);
  EXPECT_EQ(queue.max_depth(), 0u);
  queue.push("{\"a\": 1}", /*is_query=*/false);
  queue.push("{\"a\": 2}", /*is_query=*/false);
  queue.push("{\"a\": 3}", /*is_query=*/false);
  EXPECT_EQ(queue.max_depth(), 3u);
  (void)queue.pop();
  (void)queue.pop();
  EXPECT_EQ(queue.depth(), 1u);
  EXPECT_EQ(queue.max_depth(), 3u) << "the HWM never decays";
  queue.push("{\"a\": 4}", /*is_query=*/false);
  EXPECT_EQ(queue.max_depth(), 3u) << "2 live after pops + 1 = 2 < old HWM";
}

}  // namespace
}  // namespace ibgp::daemon
