// Persisted benchmark reports (BENCH_<name>.json) and the regression
// guard that compares a fresh run against a committed baseline.
//
// Every bench_* binary accepts:
//
//   --json <path>   write a schema-versioned JSON report next to the
//                   normal stdout tables
//   --quick         smoke-scale the workload (MGC_SCALE=0.05 unless the
//                   environment already chose a scale)
//
// Report schema (version 1):
//
//   {
//     "schema": "mgc-bench-report",
//     "schema_version": 1,
//     "bench": "fig1",
//     "git_sha": "...",            // best effort, "unknown" outside git
//     "config": {...},             // scale/threads/seed/quick
//     "metrics": {...},            // flat name -> number, guarded
//     "collectors": {"Serial": {...}, ...},  // per-collector, guarded
//     "tables": [...]              // the stdout tables, structured
//   }
//
// Guard semantics (compare_reports): every metric present in the baseline
// must exist in the fresh run and must not exceed baseline * (1 +
// threshold). All metrics are lower-is-better by convention (times,
// counts); a zero baseline is a structural invariant (e.g. "Epsilon ran
// zero pauses") and any non-zero fresh value violates it. A malformed or
// schema-mismatched baseline is itself a violation — the guard fails
// loud, never silently passes. Re-baselining: re-run the bench with
// --json pointed at bench/baselines/BENCH_<name>.json and commit the
// diff (see EXPERIMENTS.md).
#pragma once

#include <string>
#include <vector>

#include "runtime/gc_kind.h"
#include "support/json.h"
#include "support/table.h"

namespace mgc::bench {

inline constexpr int kBenchSchemaVersion = 1;
inline constexpr const char* kBenchSchemaName = "mgc-bench-report";

struct BenchArgs {
  std::string json_path;  // empty = no report written
  bool quick = false;
};

// Parses --json/--quick (other argv entries are ignored, so binaries with
// extra flags like --loops keep working). Must run before the first
// env::scale() read: --quick lowers MGC_SCALE for the whole process
// unless the environment already set one.
BenchArgs parse_bench_args(int argc, char** argv);

// Current commit, best effort ("unknown" when git is unavailable).
std::string git_sha();

// The collectors a bench iterates: the MGC_GC override if set (any name
// including Epsilon), otherwise the paper's six.
std::vector<GcKind> bench_gc_kinds();

class BenchReport {
 public:
  BenchReport(std::string bench_name, BenchArgs args);

  // Guarded scalar metrics; lower is better by convention.
  void set_metric(const std::string& name, double value);
  void set_collector_metric(GcKind gc, const std::string& name, double value);
  // Unguarded context (strings/numbers) recorded under "config".
  void set_config(const std::string& key, Json value);
  void add_table(const Table& t);

  Json to_json() const;
  // Writes to the --json path; no-op (returns true) when none was given.
  // Prints the written path to stdout so CI logs show the artifact.
  bool write() const;

 private:
  std::string name_;
  BenchArgs args_;
  Json config_ = Json::object();
  Json metrics_ = Json::object();
  Json collectors_ = Json::object();
  Json tables_ = Json::array();
};

// Reads and parses a report file. False (with *err) on IO/parse failure.
bool load_report(const std::string& path, Json* out, std::string* err);

// Writes an already-built report; no-op (returns true) when path is
// empty. Prints the written path so CI logs show the artifact.
bool write_report(const Json& report, const std::string& path);

// Returns all guard violations, empty when the fresh run is clean.
// threshold_pct is the allowed relative increase per metric, e.g. 300.0
// lets a counter triple before failing — generous on purpose, because
// tier-1 CI runs on noisy shared hosts and the guard is after
// *algorithmic* regressions (a lost fast path, a 10x blowup), not
// single-digit jitter. MGC_PERF_THRESHOLD overrides it at run time.
std::vector<std::string> compare_reports(const Json& baseline,
                                         const Json& fresh,
                                         double threshold_pct);

}  // namespace mgc::bench
