#include "testing/oracles.h"

#include <algorithm>
#include <vector>

#include "common/thread_pool.h"
#include "core/executor.h"
#include "core/synthesizer.h"
#include "dsl/eval.h"
#include "dsl/parser.h"
#include "dsl/reference_eval.h"
#include "hdt/table.h"
#include "json/json_parser.h"
#include "json/json_writer.h"
#include "testing/generators.h"
#include "xml/xml_parser.h"
#include "xml/xml_writer.h"

namespace mitra::testing {

namespace {

std::string DumpTuples(const std::vector<dsl::NodeTuple>& tuples,
                       size_t limit = 12) {
  std::string out;
  for (size_t i = 0; i < tuples.size() && i < limit; ++i) {
    out += "  (";
    for (size_t j = 0; j < tuples[i].size(); ++j) {
      if (j) out += ",";
      out += std::to_string(tuples[i][j]);
    }
    out += ")\n";
  }
  if (tuples.size() > limit) {
    out += "  … " + std::to_string(tuples.size() - limit) + " more\n";
  }
  return out;
}

std::string CaseHeader(const hdt::Hdt& tree, const dsl::Program& p) {
  return "program: " + dsl::ToString(p) + "\ndocument:\n" +
         tree.ToDebugString();
}

std::vector<dsl::NodeTuple> Sorted(std::vector<dsl::NodeTuple> v) {
  std::sort(v.begin(), v.end());
  return v;
}

CheckResult CompareTupleSets(const hdt::Hdt& tree, const dsl::Program& p,
                             const char* name_a,
                             const std::vector<dsl::NodeTuple>& a,
                             const char* name_b,
                             const std::vector<dsl::NodeTuple>& b) {
  if (a == b) return CheckResult::Pass();
  return CheckResult::Fail(std::string(name_a) + " and " + name_b +
                           " disagree\n" + CaseHeader(tree, p) + name_a +
                           " (" + std::to_string(a.size()) + " tuples):\n" +
                           DumpTuples(a) + name_b + " (" +
                           std::to_string(b.size()) + " tuples):\n" +
                           DumpTuples(b));
}

/// The DSL concrete syntax has no standalone atom pool — atoms print
/// inline per literal, and the parser rebuilds the pool in first-use
/// order with identical atoms interned. Round-trip identity therefore
/// holds up to this normalization; apply it to both sides.
dsl::Program CanonicalizeAtomPool(const dsl::Program& p) {
  dsl::Program out;
  out.columns = p.columns;
  out.formula = p.formula;
  for (auto& clause : out.formula.clauses) {
    for (dsl::Literal& lit : clause) {
      const dsl::Atom& a = p.atoms[lit.atom];
      int idx = -1;
      for (size_t i = 0; i < out.atoms.size(); ++i) {
        if (out.atoms[i] == a) {
          idx = static_cast<int>(i);
          break;
        }
      }
      if (idx < 0) {
        idx = static_cast<int>(out.atoms.size());
        out.atoms.push_back(a);
      }
      lit.atom = idx;
    }
  }
  return out;
}

}  // namespace

CheckResult CheckExecutionEquivalence(const hdt::Hdt& tree,
                                      const dsl::Program& program,
                                      common::ThreadPool* pool) {
  auto reference = dsl::ReferenceEvalProgramNodeTuples(tree, program);
  auto naive = dsl::EvalProgramNodeTuples(tree, program);
  if (!reference.ok() || !naive.ok()) {
    // Resource caps: both baselines must agree that the case is too big.
    if (reference.ok() != naive.ok()) {
      return CheckResult::Fail(
          "status disagreement\n" + CaseHeader(tree, program) +
          "reference: " +
          (reference.ok() ? "OK" : reference.status().ToString()) +
          "\nnaive:     " + (naive.ok() ? "OK" : naive.status().ToString()));
    }
    return CheckResult::Skip();
  }

  std::vector<dsl::NodeTuple> ref_sorted = Sorted(std::move(reference).value());
  std::vector<dsl::NodeTuple> naive_sorted = Sorted(std::move(naive).value());
  CheckResult r = CompareTupleSets(tree, program, "reference", ref_sorted,
                                   "naive", naive_sorted);
  if (!r.ok) return r;

  core::OptimizedExecutor ex(program);
  auto seq = ex.ExecuteNodes(tree);
  if (!seq.ok()) {
    return CheckResult::Fail("optimized executor failed where naive "
                             "succeeded\n" +
                             CaseHeader(tree, program) + seq.status().ToString());
  }
  r = CompareTupleSets(tree, program, "reference", ref_sorted,
                       "optimized(seq)", Sorted(seq->ToTuples()));
  if (!r.ok) return r;

  if (pool != nullptr) {
    core::ExecuteOptions popts;
    popts.pool = pool;
    auto par = ex.ExecuteNodes(tree, popts);
    if (!par.ok()) {
      return CheckResult::Fail("pooled executor failed\n" +
                               CaseHeader(tree, program) +
                               par.status().ToString());
    }
    // The parallel merge is order-preserving: require the exact sequence.
    if (*par != *seq) {
      return CheckResult::Fail(
          "pooled tuple sequence differs from sequential\n" +
          CaseHeader(tree, program) + "sequential:\n" +
          DumpTuples(seq->ToTuples()) + "pooled:\n" +
          DumpTuples(par->ToTuples()));
    }
  }

  core::ColumnCache cache(tree);
  core::ExecuteOptions copts;
  copts.column_cache = &cache;
  for (int round = 0; round < 2; ++round) {
    auto cached = ex.ExecuteNodes(tree, copts);
    if (!cached.ok()) {
      return CheckResult::Fail("column-cached executor failed\n" +
                               CaseHeader(tree, program) +
                               cached.status().ToString());
    }
    if (*cached != *seq) {
      return CheckResult::Fail(
          "column-cached run " + std::to_string(round) +
          " differs from sequential\n" + CaseHeader(tree, program) +
          "sequential:\n" + DumpTuples(seq->ToTuples()) + "cached:\n" +
          DumpTuples(cached->ToTuples()));
    }
  }

  // Data projection must agree too (tables, not just node ids).
  auto table_naive = dsl::EvalProgram(tree, program);
  auto table_ref = dsl::ReferenceEvalProgram(tree, program);
  auto table_opt = ex.Execute(tree);
  if (!table_naive.ok() || !table_ref.ok() || !table_opt.ok()) {
    return CheckResult::Fail("table projection failed\n" +
                             CaseHeader(tree, program));
  }
  auto sorted_rows = [](const hdt::Table& t) {
    std::vector<hdt::Row> rows = t.rows().ToRows();
    std::sort(rows.begin(), rows.end());
    return rows;
  };
  if (sorted_rows(*table_naive) != sorted_rows(*table_ref) ||
      sorted_rows(*table_naive) != sorted_rows(*table_opt)) {
    return CheckResult::Fail("projected tables disagree\n" +
                             CaseHeader(tree, program) + "naive:\n" +
                             table_naive->ToString() + "reference:\n" +
                             table_ref->ToString() + "optimized:\n" +
                             table_opt->ToString());
  }
  return CheckResult::Pass();
}

CheckResult CheckXmlRoundTrip(const hdt::Hdt& tree) {
  for (bool pretty : {true, false}) {
    xml::WriteOptions w;
    w.pretty = pretty;
    auto textr = xml::WriteXml(tree, w);
    if (!textr.ok()) {
      // Generators stay far below kMaxWriteDepth; overflow means a bug.
      return CheckResult::Fail("XML write failed (" + textr.status().ToString() +
                               ")\ndocument:\n" + tree.ToDebugString());
    }
    std::string text = std::move(*textr);
    auto back = xml::ParseXml(text);
    if (!back.ok()) {
      return CheckResult::Fail("XML re-parse failed (" +
                               back.status().ToString() + ")\ndocument:\n" +
                               tree.ToDebugString() + "text:\n" + text);
    }
    if (back->ToDebugString() != tree.ToDebugString()) {
      return CheckResult::Fail("XML round-trip changed the tree (pretty=" +
                               std::string(pretty ? "1" : "0") +
                               ")\noriginal:\n" + tree.ToDebugString() +
                               "reparsed:\n" + back->ToDebugString() +
                               "text:\n" + text);
    }
    // Write-normal-form idempotence.
    std::string text2 = *xml::WriteXml(*back, w);
    if (text2 != text) {
      return CheckResult::Fail("XML write not idempotent\nfirst:\n" + text +
                               "second:\n" + text2);
    }
  }
  return CheckResult::Pass();
}

CheckResult CheckJsonRoundTrip(const hdt::Hdt& tree) {
  for (bool pretty : {true, false}) {
    json::JsonWriteOptions w;
    w.pretty = pretty;
    auto textr = json::WriteJson(tree, w);
    if (!textr.ok()) {
      return CheckResult::Fail("JSON write failed (" +
                               textr.status().ToString() + ")\ndocument:\n" +
                               tree.ToDebugString());
    }
    std::string text = std::move(*textr);
    auto back = json::ParseJson(text);
    if (!back.ok()) {
      return CheckResult::Fail("JSON re-parse failed (" +
                               back.status().ToString() + ")\ndocument:\n" +
                               tree.ToDebugString() + "text:\n" + text);
    }
    if (back->ToDebugString() != tree.ToDebugString()) {
      return CheckResult::Fail("JSON round-trip changed the tree (pretty=" +
                               std::string(pretty ? "1" : "0") +
                               ")\noriginal:\n" + tree.ToDebugString() +
                               "reparsed:\n" + back->ToDebugString() +
                               "text:\n" + text);
    }
    std::string text2 = *json::WriteJson(*back, w);
    if (text2 != text) {
      return CheckResult::Fail("JSON write not idempotent\nfirst:\n" + text +
                               "second:\n" + text2);
    }
  }
  return CheckResult::Pass();
}

CheckResult CheckDslRoundTrip(const dsl::Program& program) {
  std::string text = dsl::ToString(program);
  auto back = dsl::ParseProgram(text);
  if (!back.ok()) {
    return CheckResult::Fail("DSL re-parse failed (" +
                             back.status().ToString() + ")\ntext: " + text);
  }
  dsl::Program want = CanonicalizeAtomPool(program);
  dsl::Program got = CanonicalizeAtomPool(*back);
  if (got.columns != want.columns || got.atoms != want.atoms ||
      !(got.formula == want.formula)) {
    return CheckResult::Fail("DSL round-trip changed the program\noriginal: " +
                             text + "\nreparsed: " + dsl::ToString(*back));
  }
  return CheckResult::Pass();
}

CheckResult CheckSynthesisSoundness(const hdt::Hdt& tree,
                                    const dsl::Program& program, Rng* rng,
                                    double time_limit_seconds) {
  auto derived = dsl::EvalProgram(tree, program);
  if (!derived.ok() || derived->Empty()) return CheckResult::Skip();
  hdt::Table want = std::move(derived).value();
  want.Dedup();
  if (want.NumRows() > 24) return CheckResult::Skip();
  for (hdt::RowView row : want.rows()) {
    for (std::string_view cell : row) {
      if (cell.empty()) return CheckResult::Skip();  // nil-data projection
    }
  }

  core::SynthesisOptions opts;
  opts.time_limit_seconds = time_limit_seconds;
  auto result = core::LearnTransformation(tree, want, opts);
  if (!result.ok()) {
    return CheckResult::Fail(
        "synthesis failed on a DSL-derived example: " +
        result.status().ToString() + "\n" + CaseHeader(tree, program) +
        "example table:\n" + want.ToString());
  }

  auto check_on = [&](const hdt::Hdt& doc, const char* label) {
    auto expect = dsl::ReferenceEvalProgram(doc, program);
    auto got = dsl::EvalProgram(doc, result->program);
    if (!expect.ok() || !got.ok()) {
      return CheckResult::Fail(std::string("evaluation failed on ") + label +
                               "\n" + CaseHeader(doc, program));
    }
    hdt::Table e = std::move(expect).value();
    hdt::Table g = std::move(got).value();
    e.Dedup();
    e.SortRows();
    g.Dedup();
    g.SortRows();
    if (e.rows() != g.rows()) {
      return CheckResult::Fail(
          std::string("synthesized program diverges on ") + label +
          "\nintended:    " + dsl::ToString(program) +
          "\nsynthesized: " + dsl::ToString(result->program) +
          "\ndocument:\n" + doc.ToDebugString() + "expected:\n" +
          e.ToString() + "got:\n" + g.ToString());
    }
    return CheckResult::Pass();
  };

  CheckResult on_example = check_on(tree, "the example document");
  if (!on_example.ok) return on_example;

  // Enlarged-document half. The program synthesized from d is NOT
  // required to match ⟦P⟧ on d' — when a cheaper program agrees with P
  // on d but diverges on d', Occam ranking legitimately picks it and no
  // synthesizer could know better. What soundness does require is that
  // synthesizing from the *enlarged* example (d', ⟦P⟧d'), which pins the
  // distinguishing behavior down, reproduces ⟦P⟧d' — so that is the
  // check, exercising the full pipeline at the larger size.
  hdt::Hdt larger = EnlargeDocument(rng, tree, 2);
  auto derived2 = dsl::ReferenceEvalProgram(larger, program);
  if (!derived2.ok() || derived2->Empty()) return CheckResult::Pass();
  hdt::Table want2 = std::move(derived2).value();
  want2.Dedup();
  if (want2.NumRows() > 48) return CheckResult::Pass();
  for (hdt::RowView row : want2.rows()) {
    for (std::string_view cell : row) {
      if (cell.empty()) return CheckResult::Pass();
    }
  }
  auto result2 = core::LearnTransformation(larger, want2, opts);
  if (!result2.ok()) {
    return CheckResult::Fail(
        "synthesis failed on the enlarged DSL-derived example: " +
        result2.status().ToString() + "\n" + CaseHeader(larger, program) +
        "example table:\n" + want2.ToString());
  }
  auto got2 = dsl::EvalProgram(larger, result2->program);
  if (!got2.ok()) {
    return CheckResult::Fail("evaluation failed on the enlarged document\n" +
                             CaseHeader(larger, result2->program));
  }
  hdt::Table g2 = std::move(got2).value();
  g2.Dedup();
  g2.SortRows();
  hdt::Table w2 = want2;
  w2.SortRows();
  if (g2.rows() != w2.rows()) {
    return CheckResult::Fail(
        "program synthesized from the enlarged example diverges on it\n"
        "intended:    " +
        dsl::ToString(program) +
        "\nsynthesized: " + dsl::ToString(result2->program) +
        "\ndocument:\n" + larger.ToDebugString() + "expected:\n" +
        w2.ToString() + "got:\n" + g2.ToString());
  }
  return CheckResult::Pass();
}

}  // namespace mitra::testing
