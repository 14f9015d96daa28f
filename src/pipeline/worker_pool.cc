#include "pipeline/worker_pool.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <optional>

#include "common/subprocess.h"
#include "obs/obs.h"

namespace mitra::pipeline {

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

struct Slot {
  std::unique_ptr<common::Subprocess> proc;
  common::FrameBuffer buf;
  bool ready = false;
  bool busy = false;
  /// True once this slot has spawned at least once (a later spawn is a
  /// respawn for counter purposes).
  bool ever_spawned = false;
  size_t doc = 0;
  /// Documents completed by this process — 0 means "fresh": eligible to
  /// run a hard-faulted document's one retry.
  int docs_served = 0;
  Clock::time_point spawn_time;
  Clock::time_point assign_time;
  Clock::time_point last_hb;
  std::string last_phase;
  /// Set when the watchdog SIGKILLed this worker, for classification.
  const char* kill_reason = nullptr;

  bool alive() const { return proc != nullptr; }
};

/// Ignores SIGPIPE for the supervisor loop's lifetime. Workers can die
/// at any instant (that is the scenario this pool exists for), turning a
/// pending init/assign write into EPIPE — which must surface as a Status,
/// not a process-killing signal. The CLI ignores SIGPIPE globally, but
/// the pool cannot assume its embedder (a test binary, a library user)
/// does.
class ScopedIgnoreSigpipe {
 public:
  ScopedIgnoreSigpipe() {
    struct sigaction ign;
    std::memset(&ign, 0, sizeof(ign));
    ign.sa_handler = SIG_IGN;
    ::sigaction(SIGPIPE, &ign, &old_);
  }
  ~ScopedIgnoreSigpipe() { ::sigaction(SIGPIPE, &old_, nullptr); }
  ScopedIgnoreSigpipe(const ScopedIgnoreSigpipe&) = delete;
  ScopedIgnoreSigpipe& operator=(const ScopedIgnoreSigpipe&) = delete;

 private:
  struct sigaction old_;
};

std::string ResolveWorkerExe(const std::string& configured) {
  if (!configured.empty()) return configured;
  char buf[4096];
  ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return {};
  buf[n] = '\0';
  return buf;
}

}  // namespace

Status RunWorkerFleet(
    const std::vector<std::string>& documents,
    const std::vector<size_t>& pending_in, const WorkerInit& init,
    const WorkerPoolOptions& opts,
    const std::function<void(size_t, FleetDocOutcome)>& on_doc) {
  // Pre-register the worker counters so a metrics export names them even
  // when their event never fired (validate_metrics --require relies on
  // presence; "zero kills" is a meaningful reading).
  MITRA_COUNT("pipeline/worker/spawned", 0);
  MITRA_COUNT("pipeline/worker/respawned", 0);
  MITRA_COUNT("pipeline/worker/killed_timeout", 0);
  MITRA_COUNT("pipeline/worker/killed_rlimit", 0);
  MITRA_COUNT("pipeline/worker/hard_faults", 0);

  ScopedIgnoreSigpipe sigpipe_guard;
  const std::string exe = ResolveWorkerExe(opts.worker_exe);
  if (exe.empty()) {
    return Status::InvalidArgument(
        "worker pool: cannot resolve worker executable");
  }
  const std::string init_payload = EncodeWorkerInit(init);

  std::deque<size_t> pending(pending_in.begin(), pending_in.end());
  const size_t total_docs = pending.size();
  if (total_docs == 0) return Status::OK();

  const int nworkers = std::max(1, opts.workers);
  const size_t nslots = std::min(static_cast<size_t>(nworkers), total_docs);
  // Respawn budget: far above anything a healthy (or even
  // every-poison-doc) run needs, low enough that a worker binary dying
  // on every document cannot loop forever.
  size_t respawn_budget = 2 * total_docs + 2 * nslots + 4;
  bool any_ready_ever = false;
  int preready_deaths = 0;
  Status spawn_error;

  /// Hard-fault history per in-flight document (first fault = retried).
  std::map<size_t, std::vector<HardFaultInfo>> faults;

  std::vector<Slot> slots(nslots);

  auto spawn = [&](Slot& s) {
    common::SubprocessOptions sopts;
    sopts.argv = {exe, "batch-worker"};
    sopts.env = opts.env;
    sopts.rlimit_as_bytes = opts.memory_limit_mb * 1024ull * 1024ull;
    sopts.rlimit_cpu_seconds = opts.cpu_limit_seconds;
    sopts.rlimit_nofile = opts.nofile_limit;
    auto proc = common::Subprocess::Spawn(sopts);
    if (!proc.ok()) {
      spawn_error = proc.status();
      return;
    }
    s.proc = std::move(*proc);
    // The supervisor must never block on a worker pipe; reads drain what
    // poll reported and stop at EAGAIN. (The flag lives on the read
    // end's file description, which the child does not share.)
    ::fcntl(s.proc->out_fd(), F_SETFL, O_NONBLOCK);
    s.buf.Reset();
    s.ready = false;
    s.busy = false;
    s.docs_served = 0;
    s.kill_reason = nullptr;
    s.last_phase.clear();
    s.spawn_time = s.last_hb = Clock::now();
    MITRA_COUNT("pipeline/worker/spawned", 1);
    if (s.ever_spawned) MITRA_COUNT("pipeline/worker/respawned", 1);
    s.ever_spawned = true;
    // A failed init write means the child is already dying; the poll
    // loop reaps it like any other death.
    (void)common::WriteFrame(s.proc->in_fd(), kFrameInit, init_payload);
  };

  /// Classifies a reaped death and routes its document (if any) to retry
  /// or quarantine.
  auto handle_death = [&](Slot& s, const common::ExitInfo& info) {
    const Clock::time_point now = Clock::now();
    HardFaultInfo fault;
    if (s.kill_reason != nullptr) {
      fault.kind = s.kill_reason;
    } else if (info.signaled && info.signal == SIGXCPU) {
      fault.kind = "rlimit_cpu";
    } else if (info.signaled) {
      fault.kind = "signal";
    } else {
      fault.kind = "exit";
    }
    fault.signal = info.signaled ? info.signal : 0;
    fault.exit_code = info.signaled ? -1 : info.exit_code;
    fault.last_phase = s.last_phase;
    fault.seconds_since_heartbeat = Seconds(s.last_hb, now);
    fault.max_rss_kb = info.max_rss_kb;
    fault.user_seconds = info.user_seconds;
    fault.system_seconds = info.system_seconds;

    if (fault.kind == "timeout" || fault.kind == "heartbeat") {
      MITRA_COUNT("pipeline/worker/killed_timeout", 1);
    } else if (fault.kind == "rlimit_cpu") {
      MITRA_COUNT("pipeline/worker/killed_rlimit", 1);
    }
    if (!s.ready) ++preready_deaths;

    if (s.busy) {
      MITRA_COUNT("pipeline/worker/hard_faults", 1);
      const size_t doc = s.doc;
      std::vector<HardFaultInfo>& history = faults[doc];
      if (history.empty()) {
        // First hard fault on this document: one retry, in a fresh
        // worker (the assignment scan enforces freshness).
        fault.retried = true;
        history.push_back(std::move(fault));
        pending.push_front(doc);
      } else {
        history.push_back(std::move(fault));
        const HardFaultInfo& last = history.back();
        std::string what =
            last.signal != 0
                ? "killed by " + common::SignalName(last.signal)
                : "exited with code " + std::to_string(last.exit_code);
        FleetDocOutcome out;
        out.status = Status::Internal(
            "hard fault: worker " + what + " (" + last.kind + ", phase '" +
            last.last_phase + "', " + std::to_string(history.size()) +
            " worker deaths)");
        out.attempts = static_cast<int>(history.size());
        out.seconds = Seconds(s.assign_time, now);
        out.peak_rss_kb = last.max_rss_kb;
        for (const HardFaultInfo& f : history) {
          out.trail.push_back(
              "hard fault: " + f.kind +
              (f.signal != 0 ? " (" + common::SignalName(f.signal) + ")"
                             : ""));
        }
        out.hard_faults = std::move(history);
        faults.erase(doc);
        on_doc(doc, std::move(out));
      }
      s.busy = false;
    }
    s.proc.reset();
    s.ready = false;
    s.buf.Reset();
    s.kill_reason = nullptr;
  };

  auto kill_and_reap = [&](Slot& s, const char* reason) {
    s.kill_reason = reason;
    s.proc->Kill(SIGKILL);
    common::ExitInfo info = s.proc->Wait();
    handle_death(s, info);
  };

  /// Hands pending documents to idle ready workers. `require_fresh`
  /// keeps hard-fault retries on never-used workers; the relaxed pass is
  /// the no-stall fallback when no fresh slot can appear.
  auto assign_pass = [&](bool require_fresh) {
    size_t assigned = 0;
    for (Slot& s : slots) {
      if (!s.alive() || !s.ready || s.busy || pending.empty()) continue;
      auto it = pending.begin();
      if (require_fresh) {
        for (; it != pending.end(); ++it) {
          if (faults.count(*it) == 0 || s.docs_served == 0) break;
        }
      }
      if (it == pending.end()) continue;
      const size_t doc = *it;
      Status st = common::WriteFrame(
          s.proc->in_fd(), kFrameAssign,
          EncodeWorkerAssign(WorkerAssign{doc, documents[doc]}));
      if (!st.ok()) {
        // The worker is dying; reap it here, leave the document queued.
        common::ExitInfo info = s.proc->Wait();
        handle_death(s, info);
        continue;
      }
      pending.erase(it);
      s.busy = true;
      s.doc = doc;
      s.assign_time = s.last_hb = Clock::now();
      s.last_phase = "assigned";
      ++assigned;
    }
    return assigned;
  };

  for (;;) {
    // ---- Respawn dead slots while there is work left. ----
    for (Slot& s : slots) {
      if (s.alive() || pending.empty()) continue;
      if (respawn_budget == 0) continue;
      if (preready_deaths >= 3 && !any_ready_ever) continue;
      --respawn_budget;
      spawn(s);
    }

    // ---- Assign. ----
    size_t assigned = assign_pass(/*require_fresh=*/true);
    size_t busy_count = 0;
    size_t alive_count = 0;
    for (Slot& s : slots) {
      if (s.alive()) ++alive_count;
      if (s.alive() && s.busy) ++busy_count;
    }
    if (assigned == 0 && busy_count == 0 && !pending.empty() &&
        alive_count > 0 && respawn_budget == 0) {
      // No fresh slot can ever appear again; better a stale worker than
      // a stalled fleet.
      assign_pass(/*require_fresh=*/false);
      busy_count = 0;
      alive_count = 0;
      for (Slot& s : slots) {
        if (s.alive()) ++alive_count;
        if (s.alive() && s.busy) ++busy_count;
      }
    }

    // ---- Termination and stall checks. ----
    if (pending.empty() && busy_count == 0) break;
    if (busy_count == 0 && alive_count == 0) {
      // Nothing running and nothing spawnable: either the worker binary
      // never worked (error out) or the respawn budget is gone — drain
      // the remaining documents as quarantined hard faults; the fleet
      // completes, it does not crash.
      if (!any_ready_ever) {
        return spawn_error.ok()
                   ? Status::Internal(
                         "worker pool: workers died before becoming ready (" +
                         exe + ")")
                   : spawn_error;
      }
      while (!pending.empty()) {
        const size_t doc = pending.front();
        pending.pop_front();
        FleetDocOutcome out;
        out.status = Status::Internal(
            "hard fault: worker respawn budget exhausted before document "
            "could run");
        HardFaultInfo fault;
        fault.kind = "spawn";
        auto hist = faults.find(doc);
        if (hist != faults.end()) {
          out.hard_faults = std::move(hist->second);
          faults.erase(hist);
        }
        out.hard_faults.push_back(std::move(fault));
        out.attempts = static_cast<int>(out.hard_faults.size());
        on_doc(doc, std::move(out));
      }
      break;
    }

    // ---- Poll worker pipes, bounded by the nearest deadline. ----
    const Clock::time_point now = Clock::now();
    int timeout_ms = 1000;
    auto tighten = [&](double seconds_left) {
      int ms = seconds_left <= 0.0
                   ? 0
                   : static_cast<int>(seconds_left * 1000.0) + 1;
      if (ms < timeout_ms) timeout_ms = ms;
    };
    for (Slot& s : slots) {
      if (!s.alive()) continue;
      if (s.busy) {
        if (opts.doc_timeout_seconds > 0.0) {
          tighten(opts.doc_timeout_seconds - Seconds(s.assign_time, now));
        }
        if (opts.heartbeat_timeout_seconds > 0.0) {
          tighten(opts.heartbeat_timeout_seconds - Seconds(s.last_hb, now));
        }
      } else if (!s.ready && opts.ready_timeout_seconds > 0.0) {
        tighten(opts.ready_timeout_seconds - Seconds(s.spawn_time, now));
      }
    }

    std::vector<struct pollfd> fds;
    std::vector<Slot*> fd_slots;
    for (Slot& s : slots) {
      if (!s.alive()) continue;
      fds.push_back({s.proc->out_fd(), POLLIN, 0});
      fd_slots.push_back(&s);
    }
    int rc;
    do {
      rc = ::poll(fds.data(), static_cast<nfds_t>(fds.size()), timeout_ms);
    } while (rc < 0 && errno == EINTR);

    // ---- Drain readable pipes; reap workers that hung up. ----
    for (size_t i = 0; i < fds.size(); ++i) {
      Slot& s = *fd_slots[i];
      if (!s.alive()) continue;
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      char buf[1 << 16];
      bool dead = false;
      for (;;) {
        ssize_t n = ::read(s.proc->out_fd(), buf, sizeof(buf));
        if (n > 0) {
          s.buf.Append(buf, static_cast<size_t>(n));
          continue;
        }
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        dead = true;  // EOF, or a read error: either way the pipe is done
        break;
      }
      bool protocol_violation = false;
      for (;;) {
        auto frame = s.buf.Next();
        if (!frame.ok()) {
          protocol_violation = true;
          break;
        }
        if (!frame->has_value()) break;
        const char type = (*frame)->first;
        const std::string& payload = (*frame)->second;
        if (type == kFrameReady) {
          s.ready = true;
          s.last_hb = Clock::now();
          any_ready_ever = true;
          preready_deaths = 0;
        } else if (type == kFrameHeartbeat) {
          s.last_hb = Clock::now();
          s.last_phase = DecodeHeartbeat(payload);
        } else if (type == kFrameResult) {
          auto wr = DecodeWorkerResult(payload);
          if (!wr.ok() || !s.busy || wr->doc_index != s.doc) {
            protocol_violation = true;
            break;
          }
          FleetDocOutcome out = std::move(wr->outcome);
          auto hist = faults.find(s.doc);
          if (hist != faults.end()) {
            out.hard_faults = std::move(hist->second);
            faults.erase(hist);
          }
          s.busy = false;
          ++s.docs_served;
          on_doc(s.doc, std::move(out));
        } else {
          protocol_violation = true;
          break;
        }
      }
      if (protocol_violation) {
        kill_and_reap(s, "protocol");
        continue;
      }
      if (dead) {
        common::ExitInfo info = s.proc->Wait();
        handle_death(s, info);
      }
    }

    // ---- Watchdog: wall-clock and heartbeat deadlines. ----
    const Clock::time_point after = Clock::now();
    for (Slot& s : slots) {
      if (!s.alive()) continue;
      if (s.busy && opts.doc_timeout_seconds > 0.0 &&
          Seconds(s.assign_time, after) > opts.doc_timeout_seconds) {
        kill_and_reap(s, "timeout");
        continue;
      }
      if (s.busy && opts.heartbeat_timeout_seconds > 0.0 &&
          Seconds(s.last_hb, after) > opts.heartbeat_timeout_seconds) {
        kill_and_reap(s, "heartbeat");
        continue;
      }
      if (!s.ready && opts.ready_timeout_seconds > 0.0 &&
          Seconds(s.spawn_time, after) > opts.ready_timeout_seconds) {
        kill_and_reap(s, "heartbeat");
      }
    }
  }

  // ---- Shutdown: EOF on stdin, short grace, destructor backstop. ----
  for (Slot& s : slots) {
    if (s.alive()) s.proc->CloseIn();
  }
  const Clock::time_point shutdown = Clock::now();
  for (Slot& s : slots) {
    while (s.alive() && !s.proc->TryWait().has_value() &&
           Seconds(shutdown, Clock::now()) < 2.0) {
      ::usleep(10 * 1000);
    }
    s.proc.reset();  // kills + reaps any straggler
  }
  return Status::OK();
}

}  // namespace mitra::pipeline
