#ifndef MITRA_PIPELINE_WORKER_H_
#define MITRA_PIPELINE_WORKER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/retry.h"
#include "common/status.h"
#include "db/migrator.h"
#include "hdt/hdt.h"

/// \file worker.h
/// The batch worker protocol (ISSUE 10): what a sandboxed `mitra
/// batch-worker` subprocess speaks with its supervisor, plus the shared
/// per-document execution routine both isolation modes run.
///
/// Protocol (frames per common/subprocess.h, payload integers u64 LE,
/// strings length-prefixed):
///
///   supervisor -> worker
///     'I' init    magic + DSL version + outdir + retry options + table
///                 budgets + per-live-table {name, columns, program in
///                 λ-syntax} — everything needed to rebuild execution
///                 state without re-learning (workers must not
///                 re-synthesize: ladder budgets are wall-clock sensitive
///                 and could degrade differently per worker, breaking
///                 output determinism). Only live tables are shipped, so
///                 the worker marks each one kOk.
///     'A' assign  {fleet index, document path}
///
///   worker -> supervisor
///     'Y' ready      init decoded, programs installed
///     'H' heartbeat  {phase string}; sent from the governor fault-probe
///                    hook (throttled) and at phase transitions
///     'R' result     {fleet index, status, rows, shard CRC, attempts,
///                    retry trail, peak RSS kB, seconds}
///
/// The worker writes document shards itself (same WriteFileAtomic paths
/// as the in-process run); the supervisor remains the sole journal
/// writer. EOF on stdin is the shutdown signal.

namespace mitra::pipeline {

// Frame type tags.
inline constexpr char kFrameInit = 'I';
inline constexpr char kFrameAssign = 'A';
inline constexpr char kFrameReady = 'Y';
inline constexpr char kFrameHeartbeat = 'H';
inline constexpr char kFrameResult = 'R';

/// Wire-format version, checked by the worker before anything else: a
/// supervisor and worker from different builds must fail loudly, not
/// misexecute.
inline constexpr std::string_view kWorkerIpcMagic = "mitra-worker-ipc-2";

/// One live table as shipped to workers.
struct WorkerInitTable {
  std::string name;
  std::uint64_t num_cols = 0;
  std::string program;  ///< dsl::ToString(learned program)
};

/// Everything a worker needs to execute documents.
struct WorkerInit {
  std::string outdir;
  common::ResourceLimits table_limits;
  /// Retry options minus the non-serializable sleep hook (workers always
  /// really sleep; deterministic-schedule tests run in-process).
  common::RetryOptions retry;
  /// Probe-driven heartbeat cadence (seconds between 'H' frames).
  double heartbeat_interval_seconds = 0.25;
  std::vector<WorkerInitTable> tables;
};

std::string EncodeWorkerInit(const WorkerInit& init);
Result<WorkerInit> DecodeWorkerInit(std::string_view payload);

/// The 'R' frame body.
struct WorkerResult {
  std::uint64_t doc_index = 0;
  Status status;
  std::uint64_t rows = 0;
  std::uint32_t shard_crc = 0;
  int attempts = 0;
  std::vector<std::string> trail;
  std::uint64_t max_rss_kb = 0;
  double seconds = 0.0;
};

std::string EncodeWorkerResult(const WorkerResult& result);
Result<WorkerResult> DecodeWorkerResult(std::string_view payload);

/// Where document `index`'s shard for `table` lives.
std::string ShardPath(const std::string& outdir, const std::string& table,
                      size_t index);

/// Parses a fleet document: `.json` paths as JSON, everything else XML.
Result<hdt::Hdt> ParseFleetDoc(const std::string& path,
                               std::string_view text);

/// Shared execution state for one fleet, built once per process (by
/// RunBatch in-process, by WorkerMain from the init frame).
struct FleetExecContext {
  const db::Migrator* migrator = nullptr;
  /// Learn outcomes, copied per document for ExecuteTolerant.
  const db::MigrationReport* learn = nullptr;
  /// Live table names, in schema order.
  const std::vector<std::string>* live = nullptr;
  db::MigratorOptions migrator_options;
  std::string outdir;
  common::RetryOptions retry;
  /// Optional phase announcer ("doc/read", "doc/parse", "doc/execute",
  /// "doc/write") — the worker forwards these as heartbeats.
  std::function<void(const char*)> phase;
};

struct FleetDocResult {
  common::RetryResult retry;
  std::uint64_t rows = 0;
  std::uint32_t shard_crc = 0;
  double seconds = 0.0;
};

/// Executes one document end to end — read, parse, ExecuteTolerant with
/// the fleet index as doc_index, all-or-nothing liveness check,
/// atomic shard writes — under the per-document retry policy (seed mixed
/// with the index, so schedules are deterministic at any worker count).
/// This is THE per-document routine: both isolation modes call it, which
/// is what makes `--isolation=process` byte-identical to in-process.
FleetDocResult ExecuteFleetDocument(const FleetExecContext& ctx, size_t index,
                                    const std::string& path);

struct WorkerMainOptions {
  int in_fd = 0;
  int out_fd = 1;
  /// Test hook, called with the document path before each execution
  /// (testing::MaybeTriggerHardFault in the real CLI).
  std::function<void(const std::string&)> pre_doc_hook;
};

/// Entry point for the hidden `mitra batch-worker` mode: speaks the
/// protocol above until EOF on stdin. Returns the process exit code
/// (0 = clean shutdown, 1 = IPC failure, 2 = bad init).
int WorkerMain(const WorkerMainOptions& opts);

}  // namespace mitra::pipeline

#endif  // MITRA_PIPELINE_WORKER_H_
