/// `mitra` — command-line front end for the synthesizer.
///
///   mitra synth   --doc example.{xml,json} --table example.csv
///                 [--save prog.mitra] [--xslt out.xsl] [--js out.js]
///                 [--threads N] [budget flags]
///   mitra apply   --program prog.mitra --doc big.{xml,json}
///                 [--out result.csv] [--threads N] [budget flags]
///   mitra migrate --doc example.{xml,json} --tables name=ex.csv,...
///                 [--target big.{xml,json}] [--outdir DIR]
///                 [--report=json] [--threads N] [budget flags]
///   mitra batch   --manifest batch.json [--outdir DIR] [--cache DIR]
///                 [--journal FILE] [--fresh] [--sql] [--retries N]
///                 [--quarantine-dir DIR] [--retry-quarantined]
///                 [--isolation none|process] [--workers N]
///                 [--worker-memory-mb N] [--worker-timeout SECONDS]
///                 [--report=json] [--threads N] [budget flags]
///
/// `batch --isolation=process` executes fleet documents in a supervised
/// pool of sandboxed `mitra batch-worker` subprocesses (ISSUE 10):
/// per-worker RLIMIT_AS (--worker-memory-mb), a per-document wall-clock
/// deadline (--worker-timeout) and heartbeat watchdog, SIGKILL for
/// violators, one fresh-worker retry per hard-faulted document, then
/// quarantine with full death diagnostics. Output is byte-identical to
/// the default in-process mode. `batch-worker` is the hidden worker
/// entry point, spawned by the supervisor — not for direct use.
///
/// Budget flags (all optional): --time-limit SECONDS, --max-states N,
/// --max-rows N, --max-memory-mb N. Overruns surface as clean
/// ResourceExhausted errors, never crashes.
///
/// Observability flags (all subcommands): --trace=FILE writes a Chrome
/// trace_event JSON (load in chrome://tracing) of the run's spans;
/// --metrics=FILE writes the flat `layer/phase/name` counter JSON (see
/// DESIGN.md "Observability"). With `migrate --report=json`, the report
/// embeds the same counters under "metrics".
///
/// `synth` learns a program from one input-output example (document +
/// CSV of the desired rows, no header) and prints it in the paper's
/// λ-syntax; `apply` loads a saved program and migrates a document,
/// writing CSV; `migrate` learns one program per table under the
/// degradation ladder (full budgets → reduced → projection-only) and
/// writes one CSV per table, emitting every table it can even when some
/// fail. Documents ending in `.json` are parsed as JSON, everything else
/// as XML. `--threads 0` (the default) uses hardware concurrency.
///
/// Exit codes: 0 success, 1 other error, 2 usage error, 3 partial
/// migration (some tables failed, others were emitted), 4 budget
/// exhaustion, 5 parse error.

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/csv.h"
#include "common/fs.h"
#include "common/governor.h"
#include "common/thread_pool.h"
#include "core/executor.h"
#include "core/synthesizer.h"
#include "db/migrator.h"
#include "db/schema.h"
#include "dsl/parser.h"
#include "json/js_codegen.h"
#include "obs/obs.h"
#include "pipeline/batch.h"
#include "pipeline/program_cache.h"
#include "pipeline/worker.h"
#include "testing/hard_fault.h"
#include "xml/xslt_codegen.h"

namespace mitra {
namespace {

// Exit codes (documented above; asserted by the CLI tests).
constexpr int kExitOk = 0;
constexpr int kExitError = 1;
constexpr int kExitUsage = 2;
constexpr int kExitPartialMigration = 3;
constexpr int kExitBudgetExhausted = 4;
constexpr int kExitParseError = 5;

int ExitCodeFor(const Status& status) {
  switch (status.code()) {
    case StatusCode::kResourceExhausted:
      return kExitBudgetExhausted;
    case StatusCode::kParseError:
      return kExitParseError;
    default:
      return kExitError;
  }
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return ExitCodeFor(status);
}

Result<hdt::Hdt> ParseDoc(const std::string& path) {
  MITRA_ASSIGN_OR_RETURN(std::string text,
                         common::GetFileSystem()->ReadFile(path));
  return pipeline::ParseFleetDoc(path, text);
}

/// Flags: `--name value` or `--name=value`; a trailing `--name` maps to "".
std::map<std::string, std::string> ParseFlags(int argc, char** argv,
                                              int start) {
  std::map<std::string, std::string> flags;
  for (int i = start; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) != 0) continue;
    std::string arg = argv[i] + 2;
    size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      flags[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      flags[arg] = argv[i + 1];
      ++i;
    } else {
      flags[arg] = "";
    }
  }
  return flags;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  mitra synth --doc example.{xml,json} --table example.csv\n"
      "              [--save prog.mitra] [--xslt out.xsl] [--js out.js]\n"
      "              [--threads N] [budget flags]\n"
      "  mitra apply --program prog.mitra --doc big.{xml,json}\n"
      "              [--out result.csv] [--threads N] [budget flags]\n"
      "  mitra migrate --doc example.{xml,json} --tables name=ex.csv,...\n"
      "              [--target big.{xml,json}] [--outdir DIR]\n"
      "              [--report=json] [--threads N] [budget flags]\n"
      "  mitra batch --manifest batch.json [--outdir DIR] [--cache DIR]\n"
      "              [--journal FILE] [--fresh] [--sql] [--retries N]\n"
      "              [--quarantine-dir DIR] [--retry-quarantined]\n"
      "              [--isolation none|process] [--workers N]\n"
      "              [--worker-memory-mb N] [--worker-timeout SECONDS]\n"
      "              [--report=json] [--threads N] [budget flags]\n"
      "budget flags: --time-limit SECONDS --max-states N --max-rows N\n"
      "              --max-memory-mb N\n"
      "observability: --trace=FILE (Chrome trace JSON)\n"
      "               --metrics=FILE (flat counter JSON)\n"
      "exit codes: 0 ok, 1 error, 2 usage, 3 partial migration,\n"
      "            4 budget exhausted, 5 parse error\n");
  return kExitUsage;
}

/// Worker threads requested via --threads (0 = hardware concurrency,
/// which is also the default).
int ThreadsFlag(const std::map<std::string, std::string>& flags) {
  auto it = flags.find("threads");
  if (it == flags.end()) return 0;
  return std::atoi(it->second.c_str());
}

/// The worker pool --threads asks for, or none when that is one thread.
std::unique_ptr<common::ThreadPool> PoolFlag(
    const std::map<std::string, std::string>& flags) {
  const int threads_flag = ThreadsFlag(flags);
  const unsigned threads =
      threads_flag == 0 ? common::ThreadPool::HardwareThreads()
                        : static_cast<unsigned>(std::max(1, threads_flag));
  if (threads <= 1) return nullptr;
  return std::make_unique<common::ThreadPool>(threads);
}

/// Budget flags → ResourceLimits (absent flags leave the axis unlimited).
common::ResourceLimits LimitsFlags(
    const std::map<std::string, std::string>& flags) {
  common::ResourceLimits limits;
  auto it = flags.find("time-limit");
  if (it != flags.end()) limits.time_limit_seconds = std::atof(it->second.c_str());
  it = flags.find("max-states");
  if (it != flags.end()) {
    limits.max_states = std::strtoull(it->second.c_str(), nullptr, 10);
  }
  it = flags.find("max-rows");
  if (it != flags.end()) {
    limits.max_rows = std::strtoull(it->second.c_str(), nullptr, 10);
  }
  it = flags.find("max-memory-mb");
  if (it != flags.end()) {
    limits.max_memory_bytes =
        std::strtoull(it->second.c_str(), nullptr, 10) * 1024ull * 1024ull;
  }
  return limits;
}

Result<hdt::Table> LoadCsvTable(const std::string& path) {
  MITRA_ASSIGN_OR_RETURN(std::string text,
                         common::GetFileSystem()->ReadFile(path));
  MITRA_ASSIGN_OR_RETURN(std::vector<hdt::Row> rows, ParseCsv(text));
  return hdt::Table::FromRows(std::move(rows));
}

int Synth(const std::map<std::string, std::string>& flags) {
  auto doc_it = flags.find("doc");
  auto table_it = flags.find("table");
  if (doc_it == flags.end() || table_it == flags.end()) return Usage();

  auto tree = ParseDoc(doc_it->second);
  if (!tree.ok()) return Fail(tree.status());
  auto table = LoadCsvTable(table_it->second);
  if (!table.ok()) return Fail(table.status());

  core::SynthesisOptions sopts;
  sopts.num_threads = ThreadsFlag(flags);
  sopts.limits = LimitsFlags(flags);
  if (sopts.limits.has_deadline()) {
    sopts.time_limit_seconds = sopts.limits.time_limit_seconds;
  }
  auto result = core::LearnTransformation(*tree, *table, sopts);
  if (!result.ok()) {
    std::fprintf(stderr, "synthesis failed: %s\n",
                 result.status().ToString().c_str());
    return ExitCodeFor(result.status());
  }
  std::string text = dsl::ToString(result->program);
  std::printf("%s\n", text.c_str());
  std::fprintf(stderr, "synthesized in %.2f s (%zu candidate tables, %zu "
               "consistent)\n",
               result->stats.seconds, result->stats.table_extractors_tried,
               result->stats.table_extractors_consistent);

  auto save = [&](const char* flag, const std::string& content) {
    auto it = flags.find(flag);
    if (it == flags.end()) return Status::OK();
    return common::GetFileSystem()->WriteFileAtomic(it->second, content);
  };
  Status s = save("save", text + "\n");
  if (s.ok()) s = save("xslt", xml::GenerateXslt(result->program));
  if (s.ok()) s = save("js", json::GenerateJavaScript(result->program));
  if (!s.ok()) return Fail(s);
  return kExitOk;
}

int Apply(const std::map<std::string, std::string>& flags) {
  auto prog_it = flags.find("program");
  auto doc_it = flags.find("doc");
  if (prog_it == flags.end() || doc_it == flags.end()) return Usage();

  auto prog_text = common::GetFileSystem()->ReadFile(prog_it->second);
  if (!prog_text.ok()) return Fail(prog_text.status());
  auto program = dsl::ParseProgram(*prog_text);
  if (!program.ok()) {
    std::fprintf(stderr, "program parse failed: %s\n",
                 program.status().ToString().c_str());
    return ExitCodeFor(program.status());
  }
  auto tree = ParseDoc(doc_it->second);
  if (!tree.ok()) return Fail(tree.status());
  std::unique_ptr<common::ThreadPool> pool = PoolFlag(flags);
  core::ExecuteOptions eopts;
  eopts.pool = pool.get();
  common::Governor governor(LimitsFlags(flags));
  eopts.governor = &governor;
  auto out = core::ExecuteOptimized(*tree, *program, eopts);
  if (!out.ok()) {
    std::fprintf(stderr, "execution failed: %s\n",
                 out.status().ToString().c_str());
    return ExitCodeFor(out.status());
  }
  std::string csv = WriteCsv(out->rows());
  auto out_it = flags.find("out");
  if (out_it != flags.end()) {
    Status s = common::GetFileSystem()->WriteFileAtomic(out_it->second, csv);
    if (!s.ok()) return Fail(s);
    std::fprintf(stderr, "wrote %zu rows to %s\n", out->NumRows(),
                 out_it->second.c_str());
  } else {
    std::fputs(csv.c_str(), stdout);
  }
  return kExitOk;
}

/// Parses `--tables name=path,name=path` into ordered (name, path) pairs.
Result<std::vector<std::pair<std::string, std::string>>> ParseTablesFlag(
    const std::string& spec) {
  std::vector<std::pair<std::string, std::string>> out;
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    std::string item = spec.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    size_t eq = item.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= item.size()) {
      return Status::InvalidArgument("bad --tables entry '" + item +
                                     "' (want name=path.csv)");
    }
    out.emplace_back(item.substr(0, eq), item.substr(eq + 1));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  if (out.empty()) return Status::InvalidArgument("--tables is empty");
  return out;
}

int Migrate(const std::map<std::string, std::string>& flags) {
  auto doc_it = flags.find("doc");
  auto tables_it = flags.find("tables");
  if (doc_it == flags.end() || tables_it == flags.end()) return Usage();

  auto tree = ParseDoc(doc_it->second);
  if (!tree.ok()) return Fail(tree.status());

  auto specs = ParseTablesFlag(tables_it->second);
  if (!specs.ok()) return Fail(specs.status());

  // Data-only schema derived from the example CSVs: columns c0..cK-1.
  // (Key generation requires a schema with PK/FK definitions, which the
  // library supports; the CLI keeps to plain data tables.)
  db::DatabaseSchema schema;
  std::map<std::string, hdt::Table> examples;
  for (const auto& [name, path] : *specs) {
    auto table = LoadCsvTable(path);
    if (!table.ok()) return Fail(table.status());
    schema.tables.push_back(db::DataOnlyTable(name, table->NumCols()));
    examples.emplace(name, std::move(*table));
  }

  db::MigratorOptions mopts;
  mopts.table_limits = LimitsFlags(flags);
  mopts.synthesis.num_threads = ThreadsFlag(flags);
  std::unique_ptr<common::ThreadPool> pool = PoolFlag(flags);
  mopts.execute.pool = pool.get();

  db::Migrator migrator(schema);
  obs::MetricsSnapshot metrics_before = obs::SnapshotMetrics();
  auto report = migrator.LearnTolerant(*tree, examples, mopts);
  if (!report.ok()) return Fail(report.status());

  // Apply to the target document (default: the example itself).
  std::optional<hdt::Hdt> target;
  auto target_it = flags.find("target");
  if (target_it != flags.end()) {
    auto parsed = ParseDoc(target_it->second);
    if (!parsed.ok()) return Fail(parsed.status());
    target.emplace(std::move(*parsed));
  }
  const hdt::Hdt* doc = target ? &*target : &*tree;
  db::Database out = migrator.ExecuteTolerant(*doc, 0, &*report, mopts);
  // Per-migration work counters (learn + execute), embedded in the
  // --report=json output.
  report->metrics = obs::SnapshotDelta(metrics_before);

  std::string outdir = ".";
  auto outdir_it = flags.find("outdir");
  if (outdir_it != flags.end() && !outdir_it->second.empty()) {
    outdir = outdir_it->second;
  }
  Status write_status;
  for (const auto& [name, table] : out.tables) {
    Status s = common::GetFileSystem()->WriteFileAtomic(
        outdir + "/" + name + ".csv", WriteCsv(table.rows()));
    if (!s.ok()) {
      db::TableReport* tr = report->Find(name);
      if (tr != nullptr) {
        tr->outcome = db::TableOutcome::kFailed;
        tr->status = s;
        tr->retry_trail.push_back("write: " + s.ToString());
      }
      if (write_status.ok()) write_status = s;
    }
  }

  auto report_it = flags.find("report");
  if (report_it != flags.end() && report_it->second == "json") {
    std::printf("%s\n", report->ToJson().c_str());
  } else {
    for (const db::TableReport& tr : report->tables) {
      std::fprintf(stderr, "%-20s %-9s rung=%d rows=%llu %s\n",
                   tr.table.c_str(), db::TableOutcomeName(tr.outcome),
                   tr.rung, static_cast<unsigned long long>(tr.rows_emitted),
                   tr.status.ok() ? "" : tr.status.ToString().c_str());
    }
  }

  const size_t failed = report->num_failed();
  if (failed == 0 && write_status.ok()) return kExitOk;
  if (failed < report->tables.size() || !write_status.ok()) {
    // Some tables made it out: partial migration.
    if (failed == 0) return Fail(write_status);
    return kExitPartialMigration;
  }
  // Nothing migrated: surface the first failure's class.
  for (const db::TableReport& tr : report->tables) {
    if (!tr.status.ok()) return ExitCodeFor(tr.status);
  }
  return kExitError;
}

int Batch(const std::map<std::string, std::string>& flags) {
  auto manifest_it = flags.find("manifest");
  if (manifest_it == flags.end() || manifest_it->second.empty()) {
    return Usage();
  }
  auto manifest = pipeline::ParseManifest(manifest_it->second);
  if (!manifest.ok()) return Fail(manifest.status());

  pipeline::BatchOptions bopts;
  bopts.migrator.table_limits = LimitsFlags(flags);
  auto outdir_it = flags.find("outdir");
  if (outdir_it != flags.end() && !outdir_it->second.empty()) {
    bopts.outdir = outdir_it->second;
  }
  // Checkpointing is on by default (the journal is cheap and a crash-free
  // run leaves a complete one behind); --journal overrides the location.
  auto journal_it = flags.find("journal");
  bopts.journal = journal_it != flags.end() && !journal_it->second.empty()
                      ? journal_it->second
                      : bopts.outdir + "/batch.journal";
  bopts.fresh = flags.count("fresh") != 0;
  bopts.write_sql = flags.count("sql") != 0;
  // Transient-fault retry and poison-document quarantine (see DESIGN.md
  // "Durability & crash consistency"). `--retries N` is total attempts
  // per document, not retries-after-first-failure; 1 disables retrying.
  auto retries_it = flags.find("retries");
  if (retries_it != flags.end() && !retries_it->second.empty()) {
    bopts.retry.max_attempts = std::max(1, std::atoi(retries_it->second.c_str()));
  }
  auto qdir_it = flags.find("quarantine-dir");
  if (qdir_it != flags.end() && !qdir_it->second.empty()) {
    bopts.quarantine_dir = qdir_it->second;
  }
  bopts.retry_quarantined = flags.count("retry-quarantined") != 0;

  // Process isolation (see worker_pool.h): workers are the parallelism
  // in this mode; --threads still sizes learning.
  auto isolation_it = flags.find("isolation");
  if (isolation_it != flags.end() && !isolation_it->second.empty() &&
      isolation_it->second != "none") {
    if (isolation_it->second != "process") {
      std::fprintf(stderr, "error: bad --isolation '%s' (none or process)\n",
                   isolation_it->second.c_str());
      return kExitUsage;
    }
    bopts.isolation = pipeline::IsolationMode::kProcess;
  }
  auto workers_it = flags.find("workers");
  if (workers_it != flags.end() && !workers_it->second.empty()) {
    bopts.worker_pool.workers =
        std::max(1, std::atoi(workers_it->second.c_str()));
  }
  auto wmem_it = flags.find("worker-memory-mb");
  if (wmem_it != flags.end() && !wmem_it->second.empty()) {
    bopts.worker_pool.memory_limit_mb =
        std::strtoull(wmem_it->second.c_str(), nullptr, 10);
  }
  auto wtime_it = flags.find("worker-timeout");
  if (wtime_it != flags.end() && !wtime_it->second.empty()) {
    bopts.worker_pool.doc_timeout_seconds = std::atof(wtime_it->second.c_str());
  }

  std::optional<pipeline::FsProgramCache> cache;
  auto cache_it = flags.find("cache");
  if (cache_it != flags.end() && !cache_it->second.empty()) {
    cache.emplace(cache_it->second);
    bopts.cache = &*cache;
  }

  bopts.migrator.synthesis.num_threads = ThreadsFlag(flags);
  std::unique_ptr<common::ThreadPool> pool = PoolFlag(flags);
  bopts.pool = pool.get();

  obs::MetricsSnapshot metrics_before = obs::SnapshotMetrics();
  auto report = pipeline::RunBatch(*manifest, bopts);
  if (!report.ok()) return Fail(report.status());
  report->metrics = obs::SnapshotDelta(metrics_before);

  auto report_it = flags.find("report");
  if (report_it != flags.end() && report_it->second == "json") {
    std::printf("%s\n", report->ToJson().c_str());
  } else {
    for (const db::TableReport& tr : report->learn.tables) {
      std::fprintf(stderr, "table %-20s %-9s rung=%d cache_hit=%d %s\n",
                   tr.table.c_str(), db::TableOutcomeName(tr.outcome),
                   tr.rung, tr.cache_hit ? 1 : 0,
                   tr.status.ok() ? "" : tr.status.ToString().c_str());
    }
    std::fprintf(stderr,
                 "docs: %zu done, %zu resumed, %zu failed, %zu quarantined "
                 "(of %zu)\n",
                 report->docs_done(), report->docs_resumed(),
                 report->docs_failed(), report->docs_quarantined(),
                 report->docs.size());
    if (!report->journal_status.ok()) {
      std::fprintf(stderr, "warning: journal write failed: %s\n",
                   report->journal_status.ToString().c_str());
    }
  }

  if (report->complete()) return kExitOk;
  const bool any_table =
      report->learn.num_failed() < report->learn.tables.size();
  // Quarantined docs count as casualties for exit-code purposes: the
  // batch still emitted the others (partial migration, exit 3).
  const bool any_doc = report->docs_failed() + report->docs_quarantined() <
                       report->docs.size();
  if (any_table && any_doc) return kExitPartialMigration;
  // Nothing migrated: surface the first failure's class.
  for (const db::TableReport& tr : report->learn.tables) {
    if (!tr.status.ok()) return ExitCodeFor(tr.status);
  }
  for (const pipeline::DocReport& dr : report->docs) {
    if (!dr.status.ok()) return ExitCodeFor(dr.status);
  }
  return kExitError;
}

/// Dispatches a subcommand with observability wrapped around it: when
/// --trace/--metrics name a file, tracing is enabled for the whole run and
/// the exports are written after the command finishes (whatever its exit
/// code — a budget-exhausted run's telemetry is exactly what one wants to
/// look at). An export write failure turns a successful exit into kExitError.
int Run(const char* command,
        const std::map<std::string, std::string>& flags) {
  auto flag_path = [&](const char* name) -> const std::string* {
    auto it = flags.find(name);
    return it == flags.end() || it->second.empty() ? nullptr : &it->second;
  };
  const std::string* trace_path = flag_path("trace");
  const std::string* metrics_path = flag_path("metrics");
  if (trace_path != nullptr) obs::Tracer::Global().SetEnabled(true);

  int code;
  if (std::strcmp(command, "synth") == 0) {
    code = Synth(flags);
  } else if (std::strcmp(command, "apply") == 0) {
    code = Apply(flags);
  } else if (std::strcmp(command, "migrate") == 0) {
    code = Migrate(flags);
  } else if (std::strcmp(command, "batch") == 0) {
    code = Batch(flags);
  } else {
    return Usage();
  }

  if (trace_path != nullptr) {
    obs::Tracer::Global().SetEnabled(false);
    Status s = common::GetFileSystem()->WriteFileAtomic(
        *trace_path, obs::Tracer::Global().ChromeTraceJson());
    if (!s.ok()) {
      std::fprintf(stderr, "error writing trace: %s\n", s.ToString().c_str());
      if (code == kExitOk) code = kExitError;
    }
  }
  if (metrics_path != nullptr) {
    // The full snapshot (not a delta): the process runs one command, and
    // zero-valued counters are meaningful ("the fast path never fired").
    Status s = common::GetFileSystem()->WriteFileAtomic(*metrics_path,
                                                        obs::MetricsJson());
    if (!s.ok()) {
      std::fprintf(stderr, "error writing metrics: %s\n",
                   s.ToString().c_str());
      if (code == kExitOk) code = kExitError;
    }
  }
  return code;
}

}  // namespace
}  // namespace mitra

int main(int argc, char** argv) {
  // A closed pipe — a dead worker's stdin, a `mitra ... | head` consumer —
  // must surface as an EPIPE write Status, not kill the process mid-batch.
  // (Subprocess resets the disposition in the child's exec path; this
  // re-ignores it for worker processes too, which want the same
  // EPIPE-as-Status behavior for their supervisor pipe.)
  std::signal(SIGPIPE, SIG_IGN);
  if (argc < 2) return mitra::Usage();
  if (std::strcmp(argv[1], "batch-worker") == 0) {
    // Hidden entry point: the sandboxed half of `batch --isolation=process`.
    mitra::pipeline::WorkerMainOptions wopts;
    wopts.pre_doc_hook = [](const std::string& path) {
      mitra::testing::MaybeTriggerHardFault(path);
    };
    return mitra::pipeline::WorkerMain(wopts);
  }
  auto flags = mitra::ParseFlags(argc, argv, 2);
  return mitra::Run(argv[1], flags);
}
