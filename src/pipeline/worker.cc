#include "pipeline/worker.h"

#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
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
    PayloadWriter w;
    w.Str(site);
    // A dead sink means the supervisor is gone; fail the governed work
    // with a permanent (non-transient) error so the document unwinds
    // instead of running to completion for nobody.
    return sink_->Send(kFrameHeartbeat, w.Take()).ok()
               ? Status::OK()
               : Status::Internal("ipc: supervisor unreachable");
  }

  /// Forced heartbeat at phase transitions (also resets the throttle
  /// clock, so a phase change is always immediately visible).
  void Beat(const char* phase) {
    std::lock_guard<std::mutex> lock(mu_);
    last_ = std::chrono::steady_clock::now();
    PayloadWriter w;
    w.Str(phase);
    (void)sink_->Send(kFrameHeartbeat, w.Take());
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
  w.U64(init.tables.size());
  for (const WorkerInitTable& t : init.tables) {
    w.Str(t.name);
    w.U64(t.num_cols);
    w.Str(t.program);
  }
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
  std::uint64_t count = r.U64();
  if (!r.ok() || count > 100000) {
    return Status::InvalidArgument("worker init: truncated payload");
  }
  for (std::uint64_t i = 0; i < count; ++i) {
    WorkerInitTable t;
    t.name = r.Str();
    t.num_cols = r.U64();
    t.program = r.Str();
    if (!r.ok()) {
      return Status::InvalidArgument("worker init: truncated table entry");
    }
    init.tables.push_back(std::move(t));
  }
  return init;
}

std::string EncodeWorkerResult(const WorkerResult& result) {
  PayloadWriter w;
  w.U64(result.doc_index);
  w.I64(static_cast<std::int64_t>(result.status.code()));
  w.Str(result.status.message());
  w.U64(result.rows);
  w.U64(result.shard_crc);
  w.I64(result.attempts);
  w.U64(result.trail.size());
  for (const std::string& line : result.trail) w.Str(line);
  w.U64(result.max_rss_kb);
  w.F64(result.seconds);
  return w.Take();
}

Result<WorkerResult> DecodeWorkerResult(std::string_view payload) {
  PayloadReader r(payload);
  WorkerResult res;
  res.doc_index = r.U64();
  std::int64_t code = r.I64();
  std::string message = r.Str();
  res.status = code == 0 ? Status::OK()
                         : Status(static_cast<StatusCode>(code),
                                  std::move(message));
  res.rows = r.U64();
  res.shard_crc = static_cast<std::uint32_t>(r.U64());
  res.attempts = static_cast<int>(r.I64());
  std::uint64_t trail = r.U64();
  if (!r.ok() || trail > 100000) {
    return Status::InvalidArgument("worker result: truncated payload");
  }
  for (std::uint64_t i = 0; i < trail; ++i) res.trail.push_back(r.Str());
  res.max_rss_kb = r.U64();
  res.seconds = r.F64();
  if (!r.ok()) {
    return Status::InvalidArgument("worker result: truncated payload");
  }
  return res;
}

FleetDocResult ExecuteFleetDocument(const FleetExecContext& ctx, size_t index,
                                    const std::string& path) {
  auto start = std::chrono::steady_clock::now();
  FleetDocResult out;
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
    db::MigrationReport exec = *ctx.learn;
    phase("doc/execute");
    // The fleet position is the document index, so generated keys match
    // one sequential run over the whole fleet.
    db::Database db = ctx.migrator->ExecuteTolerant(
        doc, static_cast<int>(index), &exec, ctx.migrator_options);
    // All-or-nothing per document: a document whose execution failed for
    // *any* live table contributes no shards at all — a partial document
    // would make the final tables mutually inconsistent.
    for (const std::string& name : *ctx.live) {
      const db::TableReport* tr = exec.Find(name);
      if (!db::TableIsLive(tr)) {
        return tr != nullptr && !tr->status.ok()
                   ? tr->status
                   : Status::Internal("table " + name +
                                      " lost during execution");
      }
    }
    phase("doc/write");
    for (const std::string& name : *ctx.live) {
      auto it = db.tables.find(name);
      std::string csv;
      if (it != db.tables.end()) {
        out.rows += it->second.NumRows();
        csv = WriteCsv(it->second.rows());
      }
      out.shard_crc = Crc32(csv.data(), csv.size(), out.shard_crc);
      MITRA_RETURN_IF_ERROR(
          fs->WriteFileAtomic(ShardPath(ctx.outdir, name, index), csv));
    }
    return Status::OK();
  });
  if (res.attempts > 1) {
    MITRA_COUNT("pipeline/retry/attempts", res.attempts - 1);
    if (res.recovered()) MITRA_COUNT("pipeline/retry/recovered", 1);
  }
  if (res.exhausted) MITRA_COUNT("pipeline/retry/exhausted", 1);
  out.retry = std::move(res);
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

  // Rebuild execution state from the shipped programs — no re-learning
  // (see worker.h: re-synthesis under wall-clock ladder budgets could
  // degrade differently per worker and break output determinism).
  db::DatabaseSchema schema;
  db::MigrationReport learn;
  std::vector<std::string> live;
  for (const WorkerInitTable& t : init->tables) {
    db::TableDef def;
    def.name = t.name;
    for (std::uint64_t c = 0; c < t.num_cols; ++c) {
      def.columns.push_back(db::ColumnDef{"c" + std::to_string(c),
                                          db::ColumnKind::kData, ""});
    }
    schema.tables.push_back(std::move(def));
    // The supervisor ships live tables only.
    db::TableReport tr;
    tr.table = t.name;
    tr.outcome = db::TableOutcome::kOk;
    learn.tables.push_back(std::move(tr));
    live.push_back(t.name);
  }
  db::Migrator migrator(std::move(schema));
  for (const WorkerInitTable& t : init->tables) {
    auto program = dsl::ParseProgram(t.program);
    if (!program.ok()) {
      std::fprintf(stderr, "batch-worker: program for %s: %s\n",
                   t.name.c_str(), program.status().ToString().c_str());
      return 2;
    }
    Status st = migrator.InstallLearnedProgram(t.name, std::move(*program));
    if (!st.ok()) {
      std::fprintf(stderr, "batch-worker: %s\n", st.ToString().c_str());
      return 2;
    }
  }

  FleetExecContext ctx;
  ctx.migrator = &migrator;
  ctx.learn = &learn;
  ctx.live = &live;
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
    PayloadReader r((*frame)->second);
    std::uint64_t index = r.U64();
    std::string path = r.Str();
    if (!r.ok()) {
      std::fprintf(stderr, "batch-worker: bad assign frame\n");
      exit_code = 1;
      break;
    }
    probe.Beat("doc/start");
    if (opts.pre_doc_hook) opts.pre_doc_hook(path);
    FleetDocResult res = ExecuteFleetDocument(ctx, index, path);

    WorkerResult wr;
    wr.doc_index = index;
    wr.status = res.retry.status;
    wr.rows = res.rows;
    wr.shard_crc = res.shard_crc;
    wr.attempts = res.retry.attempts;
    wr.trail = res.retry.trail;
    wr.seconds = res.seconds;
    struct rusage ru;
    std::memset(&ru, 0, sizeof(ru));
    ::getrusage(RUSAGE_SELF, &ru);
    wr.max_rss_kb = static_cast<std::uint64_t>(ru.ru_maxrss);
    if (!sink.Send(kFrameResult, EncodeWorkerResult(wr)).ok()) {
      exit_code = 1;
      break;
    }
  }
  common::SetGlobalFaultProbe(nullptr);
  return exit_code;
}

}  // namespace mitra::pipeline
