#include "pipeline/worker.h"

#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <mutex>
#include <utility>

#include "common/fs.h"
#include "common/governor.h"
#include "common/strings.h"
#include "common/subprocess.h"
#include "common/csv.h"
#include "db/schema.h"
#include "dsl/ast.h"
#include "dsl/parser.h"
#include "json/json_parser.h"
#include "obs/obs.h"
#include "xml/xml_parser.h"

namespace mitra::pipeline {

namespace {

/// Length-prefixed payload codec: u64/f64 little-endian, strings as
/// u64 length + bytes. Truncation latches the reader's error flag
/// instead of throwing — callers check ok() once at the end.
class PayloadWriter {
 public:
  void U64(std::uint64_t v) {
    char buf[8];
    for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>((v >> (8 * i)) & 0xff);
    out_.append(buf, sizeof(buf));
  }
  void I64(std::int64_t v) { U64(static_cast<std::uint64_t>(v)); }
  void F64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  void Str(std::string_view s) {
    U64(s.size());
    out_.append(s.data(), s.size());
  }
  std::string Take() { return std::move(out_); }

 private:
  std::string out_;
};

class PayloadReader {
 public:
  explicit PayloadReader(std::string_view data) : data_(data) {}

  std::uint64_t U64() {
    if (data_.size() - pos_ < 8) {
      ok_ = false;
      return 0;
    }
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 8;
    return v;
  }
  std::int64_t I64() { return static_cast<std::int64_t>(U64()); }
  double F64() {
    std::uint64_t bits = U64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::string Str() {
    std::uint64_t len = U64();
    if (!ok_ || data_.size() - pos_ < len) {
      ok_ = false;
      return {};
    }
    std::string s(data_.substr(pos_, len));
    pos_ += len;
    return s;
  }
  bool ok() const { return ok_; }

 private:
  std::string_view data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

void EncodeMigration(const db::LearnedMigration& m, PayloadWriter* w) {
  w->U64(m.schema.tables.size());
  for (const db::TableDef& t : m.schema.tables) {
    w->Str(t.name);
    w->U64(t.columns.size());
    for (const db::ColumnDef& c : t.columns) {
      w->Str(c.name);
      w->U64(static_cast<std::uint64_t>(c.kind));
      w->Str(c.references);
    }
  }
  w->U64(m.programs.size());
  for (const auto& [table, program] : m.programs) {
    w->Str(table);
    w->Str(dsl::ToString(program));
  }
  w->U64(m.fk_plans.size());
  for (const auto& [table, plans] : m.fk_plans) {
    w->Str(table);
    w->U64(plans.size());
    for (const auto& [column, plan] : plans) {
      w->U64(column);
      w->U64(plan.extractors.size());
      for (size_t j = 0; j < plan.extractors.size(); ++j) {
        w->U64(static_cast<std::uint64_t>(plan.source_cols[j]));
        w->Str(dsl::ToString(plan.extractors[j]));
      }
    }
  }
}

/// Decodes what EncodeMigration wrote. Counts are not trusted: every loop
/// stops once the reader runs dry, so a garbage count costs one failed
/// read, and the decoded value must pass LearnedMigration::Validate.
Status DecodeMigration(PayloadReader* r, db::LearnedMigration* m) {
  const std::uint64_t num_tables = r->U64();
  for (std::uint64_t i = 0; i < num_tables && r->ok(); ++i) {
    db::TableDef& t = m->schema.tables.emplace_back();
    t.name = r->Str();
    const std::uint64_t num_cols = r->U64();
    for (std::uint64_t c = 0; c < num_cols && r->ok(); ++c) {
      db::ColumnDef& col = t.columns.emplace_back();
      col.name = r->Str();
      const std::uint64_t kind = r->U64();
      if (kind > static_cast<std::uint64_t>(db::ColumnKind::kForeignKey)) {
        return Status::InvalidArgument("worker init: column kind " +
                                       std::to_string(kind) +
                                       " out of range");
      }
      col.kind = static_cast<db::ColumnKind>(kind);
      col.references = r->Str();
    }
  }
  const std::uint64_t num_programs = r->U64();
  for (std::uint64_t i = 0; i < num_programs && r->ok(); ++i) {
    std::string table = r->Str();
    const std::string text = r->Str();
    if (!r->ok()) break;
    MITRA_ASSIGN_OR_RETURN(m->programs[table], dsl::ParseProgram(text));
  }
  const std::uint64_t num_planned = r->U64();
  for (std::uint64_t i = 0; i < num_planned && r->ok(); ++i) {
    std::map<size_t, db::ForeignKeyPlan>& plans = m->fk_plans[r->Str()];
    const std::uint64_t num_plans = r->U64();
    for (std::uint64_t p = 0; p < num_plans && r->ok(); ++p) {
      db::ForeignKeyPlan& plan = plans[r->U64()];
      const std::uint64_t length = r->U64();
      for (std::uint64_t j = 0; j < length && r->ok(); ++j) {
        const std::uint64_t source = r->U64();
        const std::string text = r->Str();
        if (!r->ok()) break;
        // Validate rejects the -1 that stands for an unrepresentable index.
        const bool fits = source <= std::numeric_limits<int>::max();
        plan.source_cols.push_back(fits ? static_cast<int>(source) : -1);
        MITRA_ASSIGN_OR_RETURN(plan.extractors.emplace_back(),
                               dsl::ParseNodeExtractor(text));
      }
    }
  }
  if (!r->ok()) {
    return Status::InvalidArgument("worker init: truncated payload");
  }
  return m->Validate();
}

bool HasSuffix(const std::string& s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Serializes frame writes: the heartbeat probe fires from governed
/// worker threads concurrently with the main loop's result writes, and a
/// torn frame would poison the supervisor's stream. A failed write
/// latches the sink dead (supervisor gone — the worker winds down).
class FrameSink {
 public:
  explicit FrameSink(int fd) : fd_(fd) {}

  Status Send(char type, std::string_view payload) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!ok_) return Status::Unavailable("ipc: supervisor unreachable");
    Status st = common::WriteFrame(fd_, type, payload);
    if (!st.ok()) ok_ = false;
    return st;
  }

  bool ok() {
    std::lock_guard<std::mutex> lock(mu_);
    return ok_;
  }

 private:
  int fd_;
  std::mutex mu_;
  bool ok_ = true;
};

/// The worker half of the watchdog: piggybacks on the governor's global
/// fault-probe hook, which every Check/Charge site consults, so "the
/// worker is making governed progress" and "the supervisor hears a
/// heartbeat" are the same statement. Probes fire millions of times per
/// document; the clock is consulted every 1024th call and a frame sent
/// only when the configured interval elapsed.
class HeartbeatProbe : public common::FaultProbe {
 public:
  HeartbeatProbe(FrameSink* sink, double interval_seconds)
      : sink_(sink),
        interval_(interval_seconds),
        last_(std::chrono::steady_clock::now()) {}

  Status OnProbe(const char* site) override {
    if ((calls_.fetch_add(1, std::memory_order_relaxed) & 1023u) != 0) {
      return Status::OK();
    }
    std::lock_guard<std::mutex> lock(mu_);
    auto now = std::chrono::steady_clock::now();
    if (std::chrono::duration<double>(now - last_).count() < interval_) {
      return Status::OK();
    }
    last_ = now;
    // A dead sink means the supervisor is gone; fail the governed work
    // with a permanent (non-transient) error so the document unwinds
    // instead of running to completion for nobody.
    return sink_->Send(kFrameHeartbeat, EncodeHeartbeat(site)).ok()
               ? Status::OK()
               : Status::Internal("ipc: supervisor unreachable");
  }

  /// Forced heartbeat at phase transitions (also resets the throttle
  /// clock, so a phase change is always immediately visible).
  void Beat(const char* phase) {
    std::lock_guard<std::mutex> lock(mu_);
    last_ = std::chrono::steady_clock::now();
    (void)sink_->Send(kFrameHeartbeat, EncodeHeartbeat(phase));
  }

 private:
  FrameSink* sink_;
  const double interval_;
  std::atomic<std::uint64_t> calls_{0};
  std::mutex mu_;
  std::chrono::steady_clock::time_point last_;
};

}  // namespace

std::string ShardPath(const std::string& outdir, const std::string& table,
                      size_t index) {
  return outdir + "/shards/" + table + "." + std::to_string(index) + ".csv";
}

Result<hdt::Hdt> ParseFleetDoc(const std::string& path,
                               std::string_view text) {
  if (HasSuffix(path, ".json")) return json::ParseJson(text);
  return xml::ParseXml(text);
}

std::string EncodeWorkerInit(const WorkerInit& init) {
  PayloadWriter w;
  w.Str(kWorkerIpcMagic);
  w.Str(dsl::kDslVersion);
  w.Str(init.outdir);
  w.I64(init.retry.max_attempts);
  w.F64(init.retry.initial_backoff_ms);
  w.F64(init.retry.backoff_multiplier);
  w.F64(init.retry.max_backoff_ms);
  w.F64(init.retry.jitter);
  w.U64(init.retry.seed);
  w.F64(init.heartbeat_interval_seconds);
  w.F64(init.table_limits.time_limit_seconds);
  w.U64(init.table_limits.max_states);
  w.U64(init.table_limits.max_rows);
  w.U64(init.table_limits.max_memory_bytes);
  EncodeMigration(init.migration, &w);
  return w.Take();
}

Result<WorkerInit> DecodeWorkerInit(std::string_view payload) {
  PayloadReader r(payload);
  if (r.Str() != kWorkerIpcMagic) {
    return Status::InvalidArgument("worker init: bad magic");
  }
  if (r.Str() != dsl::kDslVersion) {
    return Status::InvalidArgument("worker init: DSL version mismatch");
  }
  WorkerInit init;
  init.outdir = r.Str();
  init.retry.max_attempts = static_cast<int>(r.I64());
  init.retry.initial_backoff_ms = r.F64();
  init.retry.backoff_multiplier = r.F64();
  init.retry.max_backoff_ms = r.F64();
  init.retry.jitter = r.F64();
  init.retry.seed = r.U64();
  init.heartbeat_interval_seconds = r.F64();
  init.table_limits.time_limit_seconds = r.F64();
  init.table_limits.max_states = r.U64();
  init.table_limits.max_rows = r.U64();
  init.table_limits.max_memory_bytes = r.U64();
  MITRA_RETURN_IF_ERROR(DecodeMigration(&r, &init.migration));
  return init;
}

std::string EncodeWorkerAssign(const WorkerAssign& assign) {
  PayloadWriter w;
  w.U64(assign.doc_index);
  w.Str(assign.path);
  return w.Take();
}

Result<WorkerAssign> DecodeWorkerAssign(std::string_view payload) {
  PayloadReader r(payload);
  WorkerAssign assign;
  assign.doc_index = r.U64();
  assign.path = r.Str();
  if (!r.ok()) return Status::InvalidArgument("worker assign: truncated");
  return assign;
}

std::string EncodeHeartbeat(std::string_view phase) {
  PayloadWriter w;
  w.Str(phase);
  return w.Take();
}

std::string DecodeHeartbeat(std::string_view payload) {
  PayloadReader r(payload);
  std::string phase = r.Str();
  return r.ok() ? phase : std::string();
}

std::string EncodeWorkerResult(const WorkerResult& result) {
  const FleetDocOutcome& out = result.outcome;
  PayloadWriter w;
  w.U64(result.doc_index);
  w.I64(static_cast<std::int64_t>(out.status.code()));
  w.Str(out.status.message());
  w.U64(out.rows);
  w.U64(out.shard_crc);
  w.I64(out.attempts);
  w.U64(out.trail.size());
  for (const std::string& line : out.trail) w.Str(line);
  w.U64(out.peak_rss_kb);
  w.F64(out.seconds);
  return w.Take();
}

Result<WorkerResult> DecodeWorkerResult(std::string_view payload) {
  PayloadReader r(payload);
  WorkerResult res;
  FleetDocOutcome& out = res.outcome;
  res.doc_index = r.U64();
  const std::int64_t code = r.I64();
  std::string message = r.Str();
  // kUnavailable is StatusCode's last enumerator.
  if (code < 0 || code > static_cast<std::int64_t>(StatusCode::kUnavailable)) {
    return Status::InvalidArgument("worker result: status code " +
                                   std::to_string(code) + " out of range");
  }
  out.status = code == 0 ? Status::OK()
                         : Status(static_cast<StatusCode>(code),
                                  std::move(message));
  out.rows = r.U64();
  out.shard_crc = static_cast<std::uint32_t>(r.U64());
  out.attempts = static_cast<int>(r.I64());
  const std::uint64_t trail = r.U64();
  for (std::uint64_t i = 0; i < trail && r.ok(); ++i) {
    out.trail.push_back(r.Str());
  }
  out.peak_rss_kb = r.U64();
  out.seconds = r.F64();
  if (!r.ok()) {
    return Status::InvalidArgument("worker result: truncated payload");
  }
  return res;
}

FleetDocOutcome ExecuteFleetDocument(const FleetExecContext& ctx,
                                     size_t index, const std::string& path) {
  auto start = std::chrono::steady_clock::now();
  FleetDocOutcome out;
  auto phase = [&](const char* p) {
    if (ctx.phase) ctx.phase(p);
  };
  common::RetryOptions ropts = ctx.retry;
  ropts.seed = HashCombine(ropts.seed, static_cast<std::uint64_t>(index));
  common::RetryResult res = common::RetryPolicy(ropts).Run([&]() -> Status {
    common::FileSystem* fs = common::GetFileSystem();
    out.rows = 0;
    out.shard_crc = 0;
    phase("doc/read");
    MITRA_ASSIGN_OR_RETURN(std::string text, fs->ReadFile(path));
    phase("doc/parse");
    MITRA_ASSIGN_OR_RETURN(hdt::Hdt doc, ParseFleetDoc(path, text));
    phase("doc/execute");
    // The fleet position is the document index, so generated keys match
    // one sequential run over the whole fleet.
    db::MigrationReport exec;
    db::Database db = ctx.migrator->ExecuteTolerant(
        doc, static_cast<int>(index), &exec, ctx.migrator_options);
    // All-or-nothing per document: a document whose execution failed for
    // *any* table contributes no shards at all — a partial document
    // would make the final tables mutually inconsistent.
    for (const db::TableReport& tr : exec.tables) {
      if (tr.outcome == db::TableOutcome::kFailed) return tr.status;
    }
    phase("doc/write");
    for (const db::TableDef& t : ctx.migrator->schema().tables) {
      auto it = db.tables.find(t.name);
      if (it == db.tables.end()) continue;  // no program: not live
      out.rows += it->second.NumRows();
      const std::string csv = WriteCsv(it->second.rows());
      out.shard_crc = Crc32(csv.data(), csv.size(), out.shard_crc);
      MITRA_RETURN_IF_ERROR(
          fs->WriteFileAtomic(ShardPath(ctx.outdir, t.name, index), csv));
    }
    return Status::OK();
  });
  if (res.attempts > 1) {
    MITRA_COUNT("pipeline/retry/attempts", res.attempts - 1);
    if (res.recovered()) MITRA_COUNT("pipeline/retry/recovered", 1);
  }
  if (res.exhausted) MITRA_COUNT("pipeline/retry/exhausted", 1);
  out.status = std::move(res.status);
  out.attempts = res.attempts;
  out.trail = std::move(res.trail);
  out.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  return out;
}

int WorkerMain(const WorkerMainOptions& opts) {
  int out_fd = opts.out_fd;
  if (out_fd == 1) {
    // A stray printf from any library would corrupt the frame stream.
    // Move the IPC channel to a private descriptor and alias fd 1 to
    // stderr, so stdout chatter lands in the (inherited) error log.
    out_fd = ::dup(1);
    if (out_fd < 0) return 1;
    ::dup2(2, 1);
  }

  auto init_frame = common::ReadFrame(opts.in_fd);
  if (!init_frame.ok() || !init_frame->has_value() ||
      (*init_frame)->first != kFrameInit) {
    std::fprintf(stderr, "batch-worker: no init frame\n");
    return 2;
  }
  auto init = DecodeWorkerInit((*init_frame)->second);
  if (!init.ok()) {
    std::fprintf(stderr, "batch-worker: %s\n",
                 init.status().ToString().c_str());
    return 2;
  }

  // Execution state is the supervisor's learned migration, as is — no
  // re-learning (see worker.h: re-synthesis under wall-clock ladder
  // budgets could degrade differently per worker and break output
  // determinism).
  db::Migrator migrator(std::move(init->migration));
  FleetExecContext ctx;
  ctx.migrator = &migrator;
  ctx.migrator_options.table_limits = init->table_limits;
  ctx.outdir = init->outdir;
  ctx.retry = init->retry;

  FrameSink sink(out_fd);
  HeartbeatProbe probe(&sink, init->heartbeat_interval_seconds);
  ctx.phase = [&probe](const char* p) { probe.Beat(p); };
  if (!sink.Send(kFrameReady, "").ok()) return 1;
  common::SetGlobalFaultProbe(&probe);

  int exit_code = 0;
  for (;;) {
    auto frame = common::ReadFrame(opts.in_fd);
    if (!frame.ok()) {
      std::fprintf(stderr, "batch-worker: %s\n",
                   frame.status().ToString().c_str());
      exit_code = 1;
      break;
    }
    if (!frame->has_value()) break;  // EOF: clean shutdown
    if ((*frame)->first != kFrameAssign) {
      std::fprintf(stderr, "batch-worker: unexpected frame '%c'\n",
                   (*frame)->first);
      exit_code = 1;
      break;
    }
    auto assign = DecodeWorkerAssign((*frame)->second);
    if (!assign.ok()) {
      std::fprintf(stderr, "batch-worker: %s\n",
                   assign.status().ToString().c_str());
      exit_code = 1;
      break;
    }
    probe.Beat("doc/start");
    if (opts.pre_doc_hook) opts.pre_doc_hook(assign->path);
    WorkerResult wr{assign->doc_index,
                    ExecuteFleetDocument(ctx, assign->doc_index, assign->path)};
    struct rusage ru;
    std::memset(&ru, 0, sizeof(ru));
    ::getrusage(RUSAGE_SELF, &ru);
    wr.outcome.peak_rss_kb = static_cast<std::uint64_t>(ru.ru_maxrss);
    if (!sink.Send(kFrameResult, EncodeWorkerResult(wr)).ok()) {
      exit_code = 1;
      break;
    }
  }
  common::SetGlobalFaultProbe(nullptr);
  return exit_code;
}

}  // namespace mitra::pipeline
