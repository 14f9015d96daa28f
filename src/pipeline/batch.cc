#include "pipeline/batch.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <set>

#include "common/csv.h"
#include "common/fs.h"
#include "common/json_escape.h"
#include "common/retry.h"
#include "common/strings.h"
#include "common/subprocess.h"
#include "db/sql_codegen.h"
#include "dsl/ast.h"
#include "json/json_parser.h"
#include "obs/obs.h"
#include "pipeline/worker.h"

namespace mitra::pipeline {

namespace {

/// Journal format v2: per-`done` line CRC-32 over the document's shard
/// bytes (concatenated in live-table order), plus `quarantine` lines. Any
/// other magic (a v1 journal included) reads as a stale journal: every
/// document re-executes.
constexpr std::string_view kJournalMagic = "mitra-batch-journal v2";

/// Joins a base directory and a path, keeping absolute paths as-is.
std::string Resolve(const std::string& base_dir, const std::string& path) {
  if (base_dir.empty() || path.empty() || path[0] == '/') return path;
  return base_dir + "/" + path;
}

std::string DirName(const std::string& path) {
  size_t slash = path.rfind('/');
  return slash == std::string::npos ? std::string() : path.substr(0, slash);
}

std::string BaseName(const std::string& path) {
  size_t slash = path.rfind('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

/// '*'-only wildcard match (no '?' or character classes — manifests need
/// "docs/batch-*.xml", nothing more).
bool WildcardMatch(std::string_view pattern, std::string_view name) {
  size_t star = pattern.find('*');
  if (star == std::string_view::npos) return pattern == name;
  if (name.size() < star ||
      name.compare(0, star, pattern.substr(0, star)) != 0) {
    return false;
  }
  std::string_view rest = pattern.substr(star + 1);
  std::string_view tail = name.substr(star);
  // Greedy from the left: try every split point for this star.
  for (size_t skip = 0; skip <= tail.size(); ++skip) {
    if (WildcardMatch(rest, tail.substr(skip))) return true;
  }
  return false;
}

/// Expands a glob against the FileSystem shim: lists the pattern's
/// directory and keeps matching basenames, sorted (ListDir sorts).
Result<std::vector<std::string>> ExpandGlob(const std::string& pattern) {
  std::string dir = DirName(pattern);
  std::string file_pattern = BaseName(pattern);
  MITRA_ASSIGN_OR_RETURN(
      std::vector<std::string> entries,
      common::GetFileSystem()->ListDir(dir.empty() ? "." : dir));
  std::vector<std::string> out;
  for (const std::string& entry : entries) {
    if (WildcardMatch(file_pattern, BaseName(entry))) out.push_back(entry);
  }
  if (out.empty()) {
    return Status::InvalidArgument("glob matched no documents: " + pattern);
  }
  return out;
}

std::string JsonDouble(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string Crc32Hex(std::uint32_t crc) {
  char buf[9];
  std::snprintf(buf, sizeof(buf), "%08x", crc);
  return buf;
}

/// Everything the journal tells a resuming run. `done` maps document
/// index to the recorded shard CRC.
struct JournalState {
  bool valid = false;
  std::map<size_t, std::uint32_t> done;
  std::set<size_t> quarantined;
};

/// Parses a journal against the expected batch key and fleet. Any
/// structural violation invalidates the whole journal — resuming from
/// garbage must degrade to a full (benign) re-run, never to corruption.
JournalState ParseJournal(const std::string& content,
                          const std::string& batch_key,
                          const std::vector<std::string>& documents) {
  JournalState js;
  size_t pos = 0;
  std::string line;
  auto next_line = [&](std::string* out) {
    if (pos >= content.size()) return false;
    size_t nl = content.find('\n', pos);
    if (nl == std::string::npos) nl = content.size();
    *out = content.substr(pos, nl - pos);
    pos = nl + 1;
    return true;
  };
  if (!next_line(&line) || line != kJournalMagic) return js;
  if (!next_line(&line) || line != "batch " + batch_key) return js;
  while (next_line(&line)) {
    if (line.empty()) continue;
    bool is_done = line.compare(0, 5, "done ") == 0;
    bool is_quarantine = line.compare(0, 11, "quarantine ") == 0;
    if (!is_done && !is_quarantine) return js;
    size_t field = is_done ? 5 : 11;
    size_t sp = line.find(' ', field);
    if (sp == std::string::npos) return js;
    size_t index =
        std::strtoull(line.substr(field, sp - field).c_str(), nullptr, 10);
    if (index >= documents.size()) return js;
    std::uint32_t crc = 0;
    if (is_done) {
      // "done <index> <crc8hex> <path>".
      size_t crc_end = line.find(' ', sp + 1);
      if (crc_end == std::string::npos || crc_end - sp - 1 != 8) return js;
      const std::string hex = line.substr(sp + 1, 8);
      char* end = nullptr;
      crc = static_cast<std::uint32_t>(std::strtoul(hex.c_str(), &end, 16));
      if (end != hex.c_str() + hex.size()) return js;
      sp = crc_end;
    }
    if (line.substr(sp + 1) != documents[index]) return js;
    if (is_done) {
      js.done[index] = crc;
    } else {
      js.quarantined.insert(index);
    }
  }
  js.valid = true;
  return js;
}

std::string QuarantineReportPath(const std::string& qdir, size_t index) {
  return qdir + "/doc." + std::to_string(index) + ".json";
}

/// One worker death as JSON — the `hard_fault` block of the quarantine
/// report (schema documented in README).
std::string HardFaultJson(const HardFaultInfo& f, size_t worker_deaths) {
  std::string out = "{\"kind\":\"" + common::EscapeJsonString(f.kind) + "\"";
  out += ",\"signal\":" + std::to_string(f.signal);
  if (f.signal != 0) {
    out += ",\"signal_name\":\"" + common::SignalName(f.signal) + "\"";
  }
  out += ",\"exit_code\":" + std::to_string(f.exit_code);
  out += ",\"last_phase\":\"" + common::EscapeJsonString(f.last_phase) + "\"";
  out += ",\"seconds_since_heartbeat\":" +
         JsonDouble(f.seconds_since_heartbeat);
  out += ",\"max_rss_kb\":" + std::to_string(f.max_rss_kb);
  out += ",\"user_seconds\":" + JsonDouble(f.user_seconds);
  out += ",\"system_seconds\":" + JsonDouble(f.system_seconds);
  out += ",\"retried\":";
  out += f.retried ? "true" : "false";
  out += ",\"worker_deaths\":" + std::to_string(worker_deaths);
  out += "}";
  return out;
}

/// The per-document quarantine report: the failing Status plus the full
/// retry trail — and, for hard faults, the final worker death's
/// diagnostics — so an operator can tell a poison document from a flaky
/// environment without re-running the fleet.
std::string QuarantineReportJson(const DocReport& dr) {
  std::string out = "{\"path\":\"" + common::EscapeJsonString(dr.path) + "\"";
  out += ",\"index\":" + std::to_string(dr.index);
  out += ",\"status\":\"" + common::EscapeJsonString(dr.status.ToString()) +
         "\"";
  out += ",\"attempts\":" + std::to_string(dr.attempts);
  out += ",\"retry_trail\":[";
  for (size_t i = 0; i < dr.retry_trail.size(); ++i) {
    if (i > 0) out += ',';
    out += "\"" + common::EscapeJsonString(dr.retry_trail[i]) + "\"";
  }
  out += "]";
  if (!dr.hard_faults.empty()) {
    out += ",\"hard_fault\":" +
           HardFaultJson(dr.hard_faults.back(), dr.hard_faults.size());
  }
  out += "}";
  return out;
}

}  // namespace

const char* DocOutcomeName(DocOutcome outcome) {
  switch (outcome) {
    case DocOutcome::kDone: return "done";
    case DocOutcome::kResumed: return "resumed";
    case DocOutcome::kFailed: return "failed";
    case DocOutcome::kQuarantined: return "quarantined";
  }
  return "unknown";
}

std::string BatchKey(
    const std::string& example_text,
    const std::vector<std::pair<std::string, std::string>>& table_texts,
    const std::vector<std::string>& doc_paths) {
  KeyHasher h(0x9b0d3c5a7e1f2b47ULL, 1469598103934665603ULL);
  h.Bytes(dsl::kDslVersion);
  h.Bytes(example_text);
  h.Int(table_texts.size());
  for (const auto& [name, csv] : table_texts) {
    h.Bytes(name);
    h.Bytes(csv);
  }
  h.Int(doc_paths.size());
  for (const std::string& path : doc_paths) h.Bytes(path);
  return h.Hex();
}

Result<BatchManifest> ParseManifest(const std::string& path) {
  MITRA_ASSIGN_OR_RETURN(std::string text,
                         common::GetFileSystem()->ReadFile(path));
  return ParseManifestText(text, DirName(path));
}

Result<BatchManifest> ParseManifestText(std::string_view text,
                                        const std::string& base_dir) {
  MITRA_ASSIGN_OR_RETURN(hdt::Hdt tree, json::ParseJson(text));
  BatchManifest m;
  std::vector<std::string> doc_values;
  for (hdt::NodeId child : tree.Children(tree.root())) {
    const std::string_view tag = tree.NodeTagName(child);
    if (tag == "example") {
      if (!tree.HasData(child)) {
        return Status::InvalidArgument("manifest: 'example' must be a path");
      }
      m.example_doc = Resolve(base_dir, std::string(tree.Data(child)));
    } else if (tag == "tables") {
      for (hdt::NodeId entry : tree.Children(child)) {
        if (!tree.HasData(entry)) {
          return Status::InvalidArgument(
              "manifest: table '" + std::string(tree.NodeTagName(entry)) +
              "' must map to a CSV path");
        }
        m.tables.emplace_back(tree.NodeTagName(entry),
                              Resolve(base_dir, std::string(tree.Data(entry))));
      }
    } else if (tag == "documents") {
      // An array of paths arrives as repeated same-tag leaves; a single
      // string is indistinguishable from a one-element array, so a value
      // is a glob iff it contains '*'.
      if (!tree.HasData(child)) {
        return Status::InvalidArgument(
            "manifest: 'documents' entries must be paths");
      }
      doc_values.push_back(std::string(tree.Data(child)));
    } else {
      return Status::InvalidArgument("manifest: unknown key '" +
                                     std::string(tag) + "'");
    }
  }
  if (m.example_doc.empty()) {
    return Status::InvalidArgument("manifest: missing 'example'");
  }
  if (m.tables.empty()) {
    return Status::InvalidArgument("manifest: missing 'tables'");
  }
  if (doc_values.empty()) {
    return Status::InvalidArgument("manifest: missing 'documents'");
  }
  for (const std::string& value : doc_values) {
    if (value.find('*') != std::string::npos) {
      MITRA_ASSIGN_OR_RETURN(std::vector<std::string> expanded,
                             ExpandGlob(Resolve(base_dir, value)));
      m.documents.insert(m.documents.end(), expanded.begin(), expanded.end());
    } else {
      m.documents.push_back(Resolve(base_dir, value));
    }
  }
  return m;
}

size_t BatchReport::docs_done() const {
  return static_cast<size_t>(
      std::count_if(docs.begin(), docs.end(), [](const DocReport& d) {
        return d.outcome == DocOutcome::kDone;
      }));
}

size_t BatchReport::docs_resumed() const {
  return static_cast<size_t>(
      std::count_if(docs.begin(), docs.end(), [](const DocReport& d) {
        return d.outcome == DocOutcome::kResumed;
      }));
}

size_t BatchReport::docs_failed() const {
  return static_cast<size_t>(
      std::count_if(docs.begin(), docs.end(), [](const DocReport& d) {
        return d.outcome == DocOutcome::kFailed;
      }));
}

size_t BatchReport::docs_quarantined() const {
  return static_cast<size_t>(
      std::count_if(docs.begin(), docs.end(), [](const DocReport& d) {
        return d.outcome == DocOutcome::kQuarantined;
      }));
}

bool BatchReport::complete() const {
  return learn.complete() && docs_failed() == 0 && docs_quarantined() == 0;
}

std::string BatchReport::ToJson() const {
  std::string out = "{\"complete\":";
  out += complete() ? "true" : "false";
  out += ",\"batch_key\":\"" + common::EscapeJsonString(batch_key) + "\"";
  out += ",\"docs_done\":" + std::to_string(docs_done());
  out += ",\"docs_resumed\":" + std::to_string(docs_resumed());
  out += ",\"docs_failed\":" + std::to_string(docs_failed());
  out += ",\"docs_quarantined\":" + std::to_string(docs_quarantined());
  if (!journal_status.ok()) {
    out += ",\"journal_write_failed\":\"" +
           common::EscapeJsonString(journal_status.ToString()) + "\"";
  }
  out += ",\"learn\":" + learn.ToJson();
  out += ",\"docs\":[";
  for (size_t i = 0; i < docs.size(); ++i) {
    const DocReport& d = docs[i];
    if (i > 0) out += ',';
    out += "{\"path\":\"" + common::EscapeJsonString(d.path) + "\"";
    out += ",\"index\":" + std::to_string(d.index);
    out += ",\"outcome\":\"";
    out += DocOutcomeName(d.outcome);
    out += "\",\"status\":\"" + common::EscapeJsonString(d.status.message()) +
           "\"";
    out += ",\"seconds\":" + JsonDouble(d.seconds);
    out += ",\"rows_emitted\":" + std::to_string(d.rows_emitted);
    out += ",\"attempts\":" + std::to_string(d.attempts);
    if (d.peak_rss_kb > 0) {
      out += ",\"peak_rss_kb\":" + std::to_string(d.peak_rss_kb);
    }
    if (!d.hard_faults.empty()) {
      out += ",\"hard_fault\":" +
             HardFaultJson(d.hard_faults.back(), d.hard_faults.size());
    }
    if (!d.retry_trail.empty()) {
      out += ",\"retry_trail\":[";
      for (size_t t = 0; t < d.retry_trail.size(); ++t) {
        if (t > 0) out += ',';
        out += "\"" + common::EscapeJsonString(d.retry_trail[t]) + "\"";
      }
      out += "]";
    }
    out += "}";
  }
  out += "]";
  if (!metrics.empty()) {
    out += ",\"metrics\":{";
    bool first = true;
    for (const auto& [name, value] : metrics) {
      if (!first) out += ',';
      first = false;
      out += "\"" + common::EscapeJsonString(name) +
             "\":" + std::to_string(value);
    }
    out += "}";
  }
  out += "}";
  return out;
}

Result<BatchReport> RunBatch(const BatchManifest& manifest,
                             const BatchOptions& opts) {
  common::FileSystem* fs = common::GetFileSystem();

  // Transient-fault retry, deterministically seeded per call site: the
  // salt (document index, or a path hash for batch-level I/O) is mixed
  // into the configured seed, so backoff schedules are bit-identical at
  // any thread count.
  auto run_with_retry =
      [&opts](std::uint64_t salt,
              const std::function<Status()>& fn) -> common::RetryResult {
    common::RetryOptions ropts = opts.retry;
    ropts.seed = HashCombine(ropts.seed, salt);
    common::RetryResult res = common::RetryPolicy(ropts).Run(fn);
    if (res.attempts > 1) {
      MITRA_COUNT("pipeline/retry/attempts", res.attempts - 1);
      if (res.recovered()) MITRA_COUNT("pipeline/retry/recovered", 1);
    }
    if (res.exhausted) MITRA_COUNT("pipeline/retry/exhausted", 1);
    return res;
  };
  auto path_salt = [](const std::string& path) {
    return Fnv1a64(path.data(), path.size());
  };
  auto read_with_retry =
      [&](const std::string& path) -> Result<std::string> {
    std::string text;
    common::RetryResult res = run_with_retry(path_salt(path), [&]() {
      auto r = fs->ReadFile(path);
      if (!r.ok()) return r.status();
      text = std::move(*r);
      return Status::OK();
    });
    if (!res.status.ok()) return res.status;
    return text;
  };

  // ---- Load the shared example (document + per-table CSVs). ----
  MITRA_ASSIGN_OR_RETURN(std::string example_text,
                         read_with_retry(manifest.example_doc));
  MITRA_ASSIGN_OR_RETURN(hdt::Hdt example_tree,
                         ParseFleetDoc(manifest.example_doc, example_text));

  db::DatabaseSchema schema;
  std::map<std::string, hdt::Table> examples;
  std::vector<std::pair<std::string, std::string>> table_texts;
  for (const auto& [name, path] : manifest.tables) {
    MITRA_ASSIGN_OR_RETURN(std::string csv, read_with_retry(path));
    MITRA_ASSIGN_OR_RETURN(std::vector<hdt::Row> rows, ParseCsv(csv));
    MITRA_ASSIGN_OR_RETURN(hdt::Table table,
                           hdt::Table::FromRows(std::move(rows)));
    schema.tables.push_back(db::DataOnlyTable(name, table.NumCols()));
    examples.emplace(name, std::move(table));
    table_texts.emplace_back(name, std::move(csv));
  }

  BatchReport report;
  report.batch_key = BatchKey(example_text, table_texts, manifest.documents);

  // ---- Learn once, cache-aware. ----
  db::MigratorOptions mopts = opts.migrator;
  mopts.program_cache = opts.cache;
  db::Migrator migrator(schema);
  MITRA_ASSIGN_OR_RETURN(report.learn,
                         migrator.LearnTolerant(example_tree, examples, mopts));

  std::vector<std::string> live;
  for (const db::TableDef& t : schema.tables) {
    if (db::TableIsLive(report.learn.Find(t.name))) live.push_back(t.name);
  }

  // ---- Journal: resume completed documents, honor quarantine. ----
  // A resumed document's shards are re-read and re-validated: ParseCsv
  // plus a CRC-32 match over the shard bytes, so a
  // torn-but-parseable shard is detected and demoted back to execution
  // instead of silently corrupting the merged output. Anything off —
  // stale batch key, missing shard, CRC mismatch — demotes the document.
  // Journal loss is always benign.
  const size_t n = manifest.documents.size();
  report.docs.resize(n);
  std::set<size_t> resumed;
  std::set<size_t> journal_quarantined;
  std::vector<std::uint64_t> resumed_rows(n, 0);
  std::vector<std::uint32_t> shard_crcs(n, 0);
  if (!opts.journal.empty() && !opts.fresh) {
    auto content = fs->ReadFile(opts.journal);
    if (content.ok()) {
      JournalState js =
          ParseJournal(*content, report.batch_key, manifest.documents);
      if (js.valid) {
        for (const auto& [d, recorded_crc] : js.done) {
          bool shards_ok = true;
          std::uint64_t rows = 0;
          std::uint32_t crc = 0;
          for (const std::string& name : live) {
            auto shard = fs->ReadFile(ShardPath(opts.outdir, name, d));
            if (!shard.ok()) {
              shards_ok = false;
              break;
            }
            auto parsed = ParseCsv(*shard);
            if (!parsed.ok()) {
              shards_ok = false;
              break;
            }
            crc = Crc32(shard->data(), shard->size(), crc);
            rows += parsed->size();
          }
          if (shards_ok && crc != recorded_crc) {
            // Torn-but-parseable shard: the bytes on disk are not the
            // bytes the journal committed. Re-execute the document.
            MITRA_COUNT("pipeline/journal/crc_mismatch", 1);
            shards_ok = false;
          }
          if (shards_ok) {
            resumed.insert(d);
            resumed_rows[d] = rows;
            shard_crcs[d] = crc;
          }
        }
        if (opts.retry_quarantined) {
          MITRA_COUNT("pipeline/quarantine/retried", js.quarantined.size());
        } else {
          journal_quarantined = js.quarantined;
        }
      }
    }
  }

  const std::string quarantine_dir = opts.quarantine_dir.empty()
                                         ? opts.outdir + "/quarantine"
                                         : opts.quarantine_dir;

  // ---- Fan the fleet out. ----
  MITRA_COUNT("pipeline/batch/docs_scheduled",
              n - resumed.size() - journal_quarantined.size());
  MITRA_COUNT("pipeline/batch/docs_resumed", resumed.size());

  std::mutex journal_mu;
  std::set<size_t> done_set = resumed;
  std::set<size_t> quarantine_set = journal_quarantined;
  auto write_journal_locked = [&]() {
    if (opts.journal.empty()) return;
    std::string out(kJournalMagic);
    out += "\nbatch " + report.batch_key + "\n";
    for (size_t d : done_set) {
      out += "done " + std::to_string(d) + " " + Crc32Hex(shard_crcs[d]) +
             " " + manifest.documents[d] + "\n";
    }
    for (size_t d : quarantine_set) {
      out += "quarantine " + std::to_string(d) + " " +
             manifest.documents[d] + "\n";
    }
    // The journal itself is written atomically (a torn journal would
    // discard every checkpoint) and retried on transient faults. Losing
    // it is still tolerated — it only costs re-execution on resume — but
    // the last failure is surfaced in the report.
    common::RetryResult res = run_with_retry(
        path_salt(opts.journal),
        [&]() { return fs->WriteFileAtomic(opts.journal, out); });
    if (!res.status.ok()) {
      MITRA_COUNT("pipeline/journal/write_failed", 1);
      report.journal_status = res.status;
    }
  };
  if (!opts.journal.empty()) {
    std::lock_guard<std::mutex> lock(journal_mu);
    write_journal_locked();
  }

  // Pre-pass: settle documents that will not execute this run, collect
  // the rest in fleet order for whichever isolation mode runs them.
  std::vector<size_t> to_execute;
  for (size_t d = 0; d < n; ++d) {
    DocReport& dr = report.docs[d];
    dr.path = manifest.documents[d];
    dr.index = static_cast<int>(d);
    if (resumed.count(d) != 0) {
      dr.outcome = DocOutcome::kResumed;
      dr.rows_emitted = resumed_rows[d];
      continue;
    }
    if (journal_quarantined.count(d) != 0) {
      // A previous run exhausted this document's retries or hit a
      // permanent fault; don't let it wedge the re-run. Clearable with
      // BatchOptions::retry_quarantined or --fresh.
      dr.outcome = DocOutcome::kQuarantined;
      dr.status = Status::InvalidArgument(
          "quarantined by journal (pass retry_quarantined to re-run)");
      MITRA_COUNT("pipeline/quarantine/resumed", 1);
      continue;
    }
    to_execute.push_back(d);
  }

  // Shared completion handler for both isolation modes: fills the
  // DocReport, quarantines failures (report file + journal line), and
  // checkpoints successes. The quarantine report and journal entry are
  // both best-effort (and atomic) — if the process dies right here, the
  // next run simply re-executes the document.
  auto finish_doc = [&](size_t d, FleetDocOutcome out) {
    DocReport& dr = report.docs[d];
    dr.seconds = out.seconds;
    dr.attempts = out.attempts;
    dr.retry_trail = std::move(out.trail);
    dr.peak_rss_kb = out.peak_rss_kb;
    dr.hard_faults = std::move(out.hard_faults);
    if (!out.status.ok()) {
      dr.outcome = DocOutcome::kQuarantined;
      dr.status = out.status;
      MITRA_COUNT("pipeline/quarantine/docs", 1);
      (void)fs->WriteFileAtomic(QuarantineReportPath(quarantine_dir, d),
                                QuarantineReportJson(dr));
      std::lock_guard<std::mutex> lock(journal_mu);
      quarantine_set.insert(d);
      write_journal_locked();
      return;
    }
    dr.outcome = DocOutcome::kDone;
    dr.rows_emitted = out.rows;
    MITRA_COUNT("pipeline/batch/docs_done", 1);
    std::lock_guard<std::mutex> lock(journal_mu);
    done_set.insert(d);
    shard_crcs[d] = out.shard_crc;
    write_journal_locked();
  };

  if (opts.isolation == IsolationMode::kProcess) {
    // Ship the learned migration to sandboxed workers (programs and
    // node extractors in the DSL's printed syntax — the printer/parser
    // round-trip is the wire format); workers never re-learn, so output
    // is deterministic at any worker count. The supervisor stays the sole
    // journal writer: workers only write their own shards.
    WorkerInit init;
    init.outdir = opts.outdir;
    init.table_limits = mopts.table_limits;
    init.retry = opts.retry;
    init.migration = migrator.learned();
    MITRA_RETURN_IF_ERROR(RunWorkerFleet(manifest.documents, to_execute,
                                         init, opts.worker_pool, finish_doc));
  } else {
    FleetExecContext ctx;
    ctx.migrator = &migrator;
    ctx.migrator_options = mopts;
    ctx.outdir = opts.outdir;
    ctx.retry = opts.retry;
    common::ParallelFor(opts.pool, to_execute.size(), [&](size_t i) {
      const size_t d = to_execute[i];
      finish_doc(d, ExecuteFleetDocument(ctx, d, manifest.documents[d]));
    });
  }

  // ---- Deterministic merge: shard bytes in fleet order. ----
  // WriteCsv is row-local with a trailing '\n' per row, so this is
  // byte-identical to WriteCsv over the sequentially merged table.
  db::Database merged;
  for (const std::string& name : live) {
    std::string bytes;
    std::vector<hdt::Row> all_rows;
    for (size_t d = 0; d < n; ++d) {
      if (report.docs[d].outcome == DocOutcome::kFailed ||
          report.docs[d].outcome == DocOutcome::kQuarantined) {
        continue;
      }
      MITRA_ASSIGN_OR_RETURN(
          std::string shard,
          read_with_retry(ShardPath(opts.outdir, name, d)));
      bytes += shard;
      if (opts.write_sql) {
        MITRA_ASSIGN_OR_RETURN(std::vector<hdt::Row> rows, ParseCsv(shard));
        all_rows.insert(all_rows.end(),
                        std::make_move_iterator(rows.begin()),
                        std::make_move_iterator(rows.end()));
      }
    }
    const std::string final_path = opts.outdir + "/" + name + ".csv";
    common::RetryResult res = run_with_retry(path_salt(final_path), [&]() {
      return fs->WriteFileAtomic(final_path, bytes);
    });
    MITRA_RETURN_IF_ERROR(res.status);
    if (opts.write_sql) {
      MITRA_ASSIGN_OR_RETURN(hdt::Table table,
                             hdt::Table::FromRows(std::move(all_rows)));
      merged.tables.emplace(name, std::move(table));
    }
  }
  if (opts.write_sql && !live.empty()) {
    // SQL output covers the live subset of the schema only (a failed
    // table has no data; emitting its DDL would create an empty trap).
    db::DatabaseSchema live_schema;
    for (const db::TableDef& t : schema.tables) {
      if (std::find(live.begin(), live.end(), t.name) != live.end()) {
        live_schema.tables.push_back(t);
      }
    }
    MITRA_ASSIGN_OR_RETURN(std::string ddl,
                           db::GenerateSqlSchema(live_schema));
    MITRA_ASSIGN_OR_RETURN(std::string inserts,
                           db::GenerateSqlInserts(live_schema, merged));
    const std::string sql_path = opts.outdir + "/migration.sql";
    common::RetryResult res = run_with_retry(path_salt(sql_path), [&]() {
      return fs->WriteFileAtomic(sql_path, ddl + inserts);
    });
    MITRA_RETURN_IF_ERROR(res.status);
  }
  return report;
}

}  // namespace mitra::pipeline
