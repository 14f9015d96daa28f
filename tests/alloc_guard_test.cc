// Allocation regression guard for document migration: Migrator::Execute
// must not allocate per output cell, and the database it returns must hold
// little more than its CSV bytes. The binary replaces the global
// operator new/delete to count allocations and the bytes still held, so it
// is a test binary of its own.

#include <gtest/gtest.h>
#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "common/csv.h"
#include "db/migrator.h"
#include "test_util.h"
#include "workload/datasets.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_allocations{0};
/// Usable bytes allocated minus usable bytes freed while counting.
std::atomic<int64_t> g_live_bytes{0};

}  // namespace

namespace {

void* CountedAlloc(std::size_t n) noexcept {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p != nullptr && g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    g_live_bytes.fetch_add(static_cast<int64_t>(malloc_usable_size(p)),
                           std::memory_order_relaxed);
  }
  return p;
}

void CountedFree(void* p) noexcept {
  if (p != nullptr && g_counting.load(std::memory_order_relaxed)) {
    g_live_bytes.fetch_sub(static_cast<int64_t>(malloc_usable_size(p)),
                           std::memory_order_relaxed);
  }
  std::free(p);
}

}  // namespace

// Every unaligned form is replaced, so no allocation pairs one of these
// with a runtime's own (a sanitizer's operator new with this free, say).
void* operator new(std::size_t n) {
  if (void* p = CountedAlloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return CountedAlloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return CountedAlloc(n);
}
void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  CountedFree(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  CountedFree(p);
}

namespace mitra {
namespace {

/// Allowed heap allocations per output cell of Migrator::Execute.
constexpr double kMaxAllocationsPerCell = 0.01;
/// Allowed heap bytes a migrated database holds per byte of its CSV.
constexpr double kMaxHeapPerCsvByte = 1.5;

/// Each table's execution costs a fixed ~90 allocations whatever its size
/// (plan compilation, the column-cache entries, extractor bindings, the
/// table's arena), so the documents are large enough for that to stay
/// well under the bound: 0.1-0.5 MB of CSV per table. One allocation per
/// output row would read 0.2-0.5 per cell.
int ScaleFor(const workload::DatasetSpec& spec) {
  if (spec.name == "DBLP") return 8000;
  if (spec.name == "MONDIAL") return 3000;
  return 3000;
}

TEST(AllocationGuard, MigratorExecuteDoesNotAllocatePerCell) {
  for (const workload::DatasetSpec* spec : workload::AllDatasets()) {
    const hdt::Hdt example =
        spec->format == workload::DocFormat::kXml
            ? test::ParseXmlOrDie(spec->example_document)
            : test::ParseJsonOrDie(spec->example_document);
    std::map<std::string, hdt::Table> examples;
    for (const auto& [name, rows] : spec->example_tables) {
      examples[name] = test::MakeTable(rows);
    }
    db::Migrator migrator(spec->schema);
    db::MigratorOptions learn;
    learn.synthesis.num_threads = 4;
    ASSERT_TRUE(migrator.Learn(example, examples, learn).ok()) << spec->name;

    const std::string text = spec->generate(ScaleFor(*spec), 7);
    const hdt::Hdt doc = spec->format == workload::DocFormat::kXml
                             ? test::ParseXmlOrDie(text)
                             : test::ParseJsonOrDie(text);
    // No pool: the whole execution runs on this thread.
    g_allocations = 0;
    g_live_bytes = 0;
    g_counting = true;
    Result<db::Database> database = migrator.Execute(doc);
    g_counting = false;
    ASSERT_TRUE(database.ok()) << spec->name << ": "
                               << database.status().ToString();
    const uint64_t allocations = g_allocations.load();
    const int64_t held = g_live_bytes.load();

    uint64_t cells = 0;
    uint64_t csv_bytes = 0;
    for (const auto& [name, table] : database->tables) {
      cells += table.NumRows() * table.NumCols();
      csv_bytes += WriteCsv(table.rows()).size();
    }
    ASSERT_GT(cells, 100'000u) << spec->name;
    std::printf("%s: %llu allocations for %llu cells (%.4f per cell); "
                "%.2f MB held for %.2f MB of CSV (%.2fx)\n",
                spec->name.c_str(),
                static_cast<unsigned long long>(allocations),
                static_cast<unsigned long long>(cells),
                static_cast<double>(allocations) / static_cast<double>(cells),
                static_cast<double>(held) / 1e6,
                static_cast<double>(csv_bytes) / 1e6,
                static_cast<double>(held) / static_cast<double>(csv_bytes));
    EXPECT_LE(static_cast<double>(allocations),
              kMaxAllocationsPerCell * static_cast<double>(cells))
        << spec->name;
    EXPECT_LE(static_cast<double>(held),
              kMaxHeapPerCsvByte * static_cast<double>(csv_bytes))
        << spec->name;
  }
}

}  // namespace
}  // namespace mitra
