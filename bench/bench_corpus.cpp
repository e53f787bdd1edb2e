// E18 — counterexample-corpus replay gate.
//
// Replays every checked-in counterexample (examples/data/corpus/*.topo)
// under all three protocols and both deterministic schedules, and compares
// against the signatures recorded when the entry was minimized.  Two hard
// failures (exit 1):
//   * the modified protocol oscillates on ANY entry — that would falsify
//     the paper's Theorem 2 (Section 7), the central positive result;
//   * a replay no longer reproduces an entry's recorded signature — the
//     corpus is a regression suite, and a silent drift in the engines is
//     exactly what it exists to catch.
// The replay also runs serial and parallel and diffs the index-ordered
// fingerprints, so the E18 rows double as a --jobs determinism check.

#include <cstdlib>
#include <filesystem>

#include "bench_common.hpp"
#include "explore/corpus.hpp"

#ifndef IBGP_CORPUS_DIR
#define IBGP_CORPUS_DIR "examples/data/corpus"
#endif
#ifndef IBGP_SOURCE_DIR
#define IBGP_SOURCE_DIR "."
#endif

namespace {

using namespace ibgp;

std::vector<explore::CorpusEntry> load_entries() {
  return explore::load_corpus_dir(IBGP_CORPUS_DIR);
}

void report() {
  bench::heading("E18: counterexample corpus replay",
                 "every minimized counterexample keeps its recorded signature; the "
                 "modified protocol never oscillates on any of them");

  const auto entries = load_entries();
  // Named relative to the repository, so every checkout prints the same bytes.
  const auto corpus =
      std::filesystem::path(IBGP_CORPUS_DIR).lexically_relative(IBGP_SOURCE_DIR).string();
  std::printf("  corpus: %s (%zu entries)\n", corpus.empty() ? IBGP_CORPUS_DIR : corpus.c_str(),
              entries.size());
  if (entries.empty()) {
    std::printf("  corpus is empty — nothing to gate\n");
    return;
  }

  const auto t0 = std::chrono::steady_clock::now();
  const auto serial = explore::replay_corpus(entries, 1);
  const auto t1 = std::chrono::steady_clock::now();
  const std::size_t jobs = util::resolve_jobs(bench::config().jobs);
  const auto parallel = explore::replay_corpus(entries, jobs);
  const auto t2 = std::chrono::steady_clock::now();

  std::size_t matched = 0, med_induced = 0, hybrid = 0;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const auto& row = serial.rows[i];
    if (row.match) ++matched;
    if (entries[i].med_induced) ++med_induced;
    if (entries[i].hybrid) ++hybrid;
    if (!row.match || row.modified_oscillates) {
      std::printf("  %-22s match=%s modified=%s/%s  <-- PROBLEM\n", row.name.c_str(),
                  row.match ? "yes" : "NO",
                  engine::run_status_name(row.replayed[2].round_robin),
                  engine::run_status_name(row.replayed[2].synchronous));
    }
  }
  std::printf("  matched %zu/%zu signatures; tags: med-induced=%zu hybrid=%zu\n", matched,
              entries.size(), med_induced, hybrid);
  const bool fingerprints_equal = serial.fingerprint == parallel.fingerprint;
  std::printf("  replay fingerprint=%016llx (jobs=1) %016llx (jobs=%zu) %s\n",
              static_cast<unsigned long long>(serial.fingerprint),
              static_cast<unsigned long long>(parallel.fingerprint), jobs,
              fingerprints_equal ? "MATCH" : "MISMATCH");
  std::printf("  modified-protocol gate: %s\n",
              serial.modified_safe() ? "clean (never oscillates)" : "VIOLATED");

  util::json::Object doc;
  doc.emplace_back("schema", "ibgp-bench-v1");
  doc.emplace_back("bench", "bench_corpus");
  doc.emplace_back("experiment", "E18");
  doc.emplace_back("entries", entries.size());
  doc.emplace_back("matched", matched);
  doc.emplace_back("med_induced_entries", med_induced);
  doc.emplace_back("hybrid_entries", hybrid);
  doc.emplace_back("replay_fingerprint", serial.fingerprint);
  doc.emplace_back("fingerprint_match", fingerprints_equal);
  doc.emplace_back("modified_safe", serial.modified_safe());
  const double serial_wall = std::chrono::duration<double>(t1 - t0).count();
  const double parallel_wall = std::chrono::duration<double>(t2 - t1).count();
  doc.emplace_back("volatile",
                   bench::smoke_volatile_json(serial_wall, parallel_wall, jobs,
                                              parallel_wall > 0.0
                                                  ? serial_wall / parallel_wall
                                                  : 0.0));
  bench::write_json(util::json::Value(std::move(doc)));

  if (!serial.modified_safe()) {
    std::printf("\nFATAL: the modified protocol oscillated on a corpus entry — this "
                "contradicts the paper's convergence theorem.\n");
    std::exit(1);
  }
  if (!serial.all_match() || !fingerprints_equal) {
    std::printf("\nFATAL: corpus replay drifted from its recorded signatures.\n");
    std::exit(1);
  }
}

void BM_CorpusReplay(benchmark::State& state) {
  const auto entries = load_entries();
  for (auto _ : state) {
    auto replayed = explore::replay_corpus(entries, 1);
    benchmark::DoNotOptimize(replayed.fingerprint);
  }
}
BENCHMARK(BM_CorpusReplay)->Unit(benchmark::kMillisecond);

}  // namespace

IBGP_BENCH_MAIN(report)
