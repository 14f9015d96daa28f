#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>

#include "common/json_escape.h"

namespace mitra::obs {
namespace {

/// Per-thread span nesting depth (for the `depth` field of TraceEvent).
thread_local std::uint32_t tls_span_depth = 0;

}  // namespace

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Tracer::Tracer() : epoch_ns_(NowNs()) {}

Tracer& Tracer::Global() {
  static Tracer* t = new Tracer;  // never destroyed: thread-local ring
  return *t;                      // pointers may outlive main()
}

Tracer::Ring* Tracer::ThisThreadRing() {
  thread_local Ring* ring = nullptr;
  if (ring == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    rings_.push_back(std::make_unique<Ring>(
        capacity_, static_cast<std::uint32_t>(rings_.size())));
    ring = rings_.back().get();
  }
  return ring;
}

void Tracer::Record(const char* name, std::uint64_t start_ns,
                    std::uint64_t dur_ns, std::uint32_t depth) {
  Ring* r = ThisThreadRing();
  std::uint64_t h = r->head.load(std::memory_order_relaxed);
  r->slots[h % r->slots.size()] = TraceEvent{name, start_ns, dur_ns, r->tid,
                                             depth};
  r->head.store(h + 1, std::memory_order_release);
}

std::vector<TraceEvent> Tracer::Collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TraceEvent> events;
  for (const auto& r : rings_) {
    std::uint64_t h = r->head.load(std::memory_order_acquire);
    std::uint64_t cap = r->slots.size();
    std::uint64_t n = h < cap ? h : cap;
    // Oldest retained event is at index h - n; read forward from there.
    for (std::uint64_t i = h - n; i < h; ++i) {
      events.push_back(r->slots[i % cap]);
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.start_ns < b.start_ns;
                   });
  return events;
}

std::uint64_t Tracer::dropped_events() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t dropped = 0;
  for (const auto& r : rings_) {
    std::uint64_t h = r->head.load(std::memory_order_acquire);
    std::uint64_t cap = r->slots.size();
    if (h > cap) dropped += h - cap;
  }
  return dropped;
}

std::string Tracer::ChromeTraceJson() const {
  std::vector<TraceEvent> events = Collect();
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  char buf[64];
  for (const TraceEvent& e : events) {
    if (!first) out += ',';
    first = false;
    out += "\n{\"name\":\"";
    common::AppendJsonEscaped(&out, e.name);
    out += "\",\"cat\":\"mitra\",\"ph\":\"X\",\"ts\":";
    // Microseconds with ns precision, relative to the tracer epoch.
    double ts_us =
        static_cast<double>(e.start_ns - epoch_ns_) / 1000.0;
    std::snprintf(buf, sizeof(buf), "%.3f", ts_us);
    out += buf;
    out += ",\"dur\":";
    std::snprintf(buf, sizeof(buf), "%.3f",
                  static_cast<double>(e.dur_ns) / 1000.0);
    out += buf;
    out += ",\"pid\":1,\"tid\":";
    std::snprintf(buf, sizeof(buf), "%" PRIu32, e.tid);
    out += buf;
    out += ",\"args\":{\"depth\":";
    std::snprintf(buf, sizeof(buf), "%" PRIu32, e.depth);
    out += buf;
    out += "}}";
  }
  out += "\n],\"displayTimeUnit\":\"ms\",\"dropped_events\":";
  std::snprintf(buf, sizeof(buf), "%" PRIu64, dropped_events());
  out += buf;
  out += "}\n";
  return out;
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& r : rings_) r->head.store(0, std::memory_order_release);
}

void Tracer::SetRingCapacityForTest(std::size_t cap) {
  if (cap == 0) cap = 1;
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = cap;
  for (auto& r : rings_) {
    r->slots.assign(cap, TraceEvent{});
    r->head.store(0, std::memory_order_release);
  }
}

std::size_t Tracer::ring_capacity() const {
  std::lock_guard<std::mutex> lock(mu_);
  return capacity_;
}

void Span::Begin(const char* name) {
  name_ = name;
  depth_ = tls_span_depth++;
  start_ns_ = NowNs();
}

void Span::End() {
  std::uint64_t end_ns = NowNs();
  --tls_span_depth;
  Tracer::Global().Record(name_, start_ns_, end_ns - start_ns_, depth_);
}

}  // namespace mitra::obs
