#include "obs/metrics.h"

#include <cinttypes>
#include <cstdio>

#include "common/json_escape.h"

namespace mitra::obs {

int Counter::ThisThreadShard() noexcept {
  static std::atomic<unsigned> next{0};
  thread_local int shard =
      static_cast<int>(next.fetch_add(1, std::memory_order_relaxed) %
                       static_cast<unsigned>(kCounterShards));
  return shard;
}

Registry& Registry::Global() {
  static Registry* r = new Registry;  // never destroyed: metric pointers are
  return *r;                          // cached in function-local statics
}

Counter* Registry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return it->second.get();
}

Gauge* Registry::GetGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return it->second.get();
}

Histogram* Registry::GetHistogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return it->second.get();
}

const Counter* Registry::FindCounter(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : it->second.get();
}

MetricsSnapshot Registry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  for (const auto& [name, c] : counters_) snap[name] = c->Value();
  for (const auto& [name, g] : gauges_) {
    snap[name + "/last"] = g->last();
    snap[name + "/max"] = g->max();
  }
  for (const auto& [name, h] : histograms_) {
    snap[name + "/count"] = h->count();
    snap[name + "/sum"] = h->sum();
  }
  return snap;
}

void Registry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

Counter* GetCounter(std::string_view name) {
  return Registry::Global().GetCounter(name);
}
Gauge* GetGauge(std::string_view name) {
  return Registry::Global().GetGauge(name);
}
Histogram* GetHistogram(std::string_view name) {
  return Registry::Global().GetHistogram(name);
}
MetricsSnapshot SnapshotMetrics() { return Registry::Global().Snapshot(); }
void ResetAllMetrics() { Registry::Global().Reset(); }

MetricsSnapshot SnapshotDelta(const MetricsSnapshot& before) {
  MetricsSnapshot now = SnapshotMetrics();
  MetricsSnapshot delta;
  for (const auto& [name, value] : now) {
    auto it = before.find(name);
    std::uint64_t base = it == before.end() ? 0 : it->second;
    if (value > base) delta[name] = value - base;
  }
  return delta;
}

std::string MetricsJson(const MetricsSnapshot& snapshot, bool indent) {
  std::string out = "{";
  const char* sep = indent ? "\n  " : "";
  bool first = true;
  for (const auto& [name, value] : snapshot) {
    if (!first) out += ',';
    first = false;
    out += sep;
    out += '"';
    common::AppendJsonEscaped(&out, name);
    out += "\": ";
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
    out += buf;
  }
  if (indent && !first) out += '\n';
  out += '}';
  if (indent) out += '\n';
  return out;
}

std::string MetricsJson() { return MetricsJson(SnapshotMetrics()); }

void SiteCounterCache::Add(const char* site, std::uint64_t n) noexcept {
  // Pointer-hash probe: literals are 16-byte-ish aligned, drop low bits.
  std::size_t h =
      (reinterpret_cast<std::uintptr_t>(site) >> 4) & (kSlots - 1);
  for (int probe = 0; probe < 8; ++probe) {
    std::atomic<Entry*>& slot = slots_[(h + probe) & (kSlots - 1)];
    Entry* e = slot.load(std::memory_order_acquire);
    if (e != nullptr) {
      if (e->key == site) {
        e->counter->Add(n);
        return;
      }
      continue;  // different site hashed here; keep probing
    }
    // Empty slot: build the entry fully, then publish with a CAS. Entries
    // are immutable after publication and intentionally leaked (the cache
    // lives for the whole process).
    Entry* ne = new Entry{site, GetCounter(std::string(prefix_) + site)};
    Entry* expected = nullptr;
    if (slot.compare_exchange_strong(expected, ne, std::memory_order_release,
                                     std::memory_order_acquire)) {
      ne->counter->Add(n);
      return;
    }
    delete ne;
    if (expected->key == site) {
      expected->counter->Add(n);
      return;
    }
  }
  // Cache full around this hash: fall back to the (mutex-guarded) registry.
  GetCounter(std::string(prefix_) + site)->Add(n);
}

}  // namespace mitra::obs
