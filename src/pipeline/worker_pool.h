#ifndef MITRA_PIPELINE_WORKER_POOL_H_
#define MITRA_PIPELINE_WORKER_POOL_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "pipeline/worker.h"

/// \file worker_pool.h
/// The supervisor side of process isolation (ISSUE 10): spawns N
/// sandboxed `mitra batch-worker` subprocesses, assigns fleet documents
/// over pipe IPC, and enforces the containment contract — rlimits at
/// spawn, a heartbeat watchdog and per-document wall-clock deadline in a
/// single-threaded poll loop, SIGKILL for violators, one fresh-worker
/// retry per hard-faulted document, and slot respawn — so a segfault,
/// spin, or memory bomb in one document costs exactly that document,
/// never the fleet.

namespace mitra::pipeline {

struct WorkerPoolOptions {
  /// Worker executable; "" resolves to /proc/self/exe (the supervisor
  /// re-executes its own binary in `batch-worker` mode).
  std::string worker_exe;
  /// Number of worker slots (>= 1; capped at the number of pending docs).
  int workers = 1;
  /// Per-document wall-clock deadline in seconds; 0 disables. Measured
  /// from assignment; on expiry the worker is SIGKILLed and the death is
  /// classified "timeout" (counter pipeline/worker/killed_timeout).
  double doc_timeout_seconds = 0.0;
  /// Maximum heartbeat silence in seconds while a document is assigned;
  /// 0 disables. A worker that stops pinging — wedged in a loop with no
  /// governor check sites, blocked in a syscall — is SIGKILLed
  /// ("heartbeat", same counter as timeout).
  double heartbeat_timeout_seconds = 30.0;
  /// RLIMIT_AS for each worker, in MiB; 0 = inherit. An allocation past
  /// this dies inside the worker (bad_alloc -> terminate -> SIGABRT).
  std::uint64_t memory_limit_mb = 0;
  /// RLIMIT_CPU for each worker, in seconds; 0 = inherit. Cumulative per
  /// worker process (a respawn resets it), so when set it must cover a
  /// whole worker lifetime, not one document. SIGXCPU deaths are
  /// classified "rlimit_cpu" (counter pipeline/worker/killed_rlimit).
  std::uint64_t cpu_limit_seconds = 0;
  /// RLIMIT_NOFILE for each worker; 0 = inherit.
  std::uint64_t nofile_limit = 0;
  /// Extra environment for workers ("KEY=value"; wins over inherited).
  std::vector<std::string> env;
  /// Seconds a fresh worker may take to decode init and send 'Y'.
  double ready_timeout_seconds = 60.0;
};

/// Runs `pending` (fleet indices into `documents`, in execution order)
/// through a supervised worker fleet. `on_doc` is invoked exactly once
/// per pending document, from this (the calling) thread, as results and
/// quarantining faults arrive — the caller journals, writes quarantine
/// reports, and fills DocReports there.
///
/// Returns non-OK only for supervisor-level failures that leave
/// documents unprocessed (worker executable unusable, respawn budget
/// exhausted with docs still pending); per-document failures flow
/// through `on_doc` with a non-OK FleetDocOutcome::status.
Status RunWorkerFleet(
    const std::vector<std::string>& documents,
    const std::vector<size_t>& pending, const WorkerInit& init,
    const WorkerPoolOptions& opts,
    const std::function<void(size_t, FleetDocOutcome)>& on_doc);

}  // namespace mitra::pipeline

#endif  // MITRA_PIPELINE_WORKER_POOL_H_
