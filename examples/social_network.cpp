/// The paper's §2 motivating example, end to end: learn the
/// (Person, Friend-with, years) relation from the Fig. 2 example, then
/// migrate a large generated social network with the optimized executor.
///
///   $ ./build/examples/social_network [num_persons]

#include <cstdio>
#include <cstdlib>

#include "core/executor.h"
#include "core/synthesizer.h"
#include "workload/docgen.h"
#include "xml/xml_parser.h"

int main(int argc, char** argv) {
  using namespace mitra;
  int persons = argc > 1 ? std::atoi(argv[1]) : 20000;

  const char* example_xml = R"(
<SocialNetwork>
  <Person id="1"><name>Alice</name>
    <Friendship><Friend fid="2" years="3"/><Friend fid="3" years="5"/></Friendship>
  </Person>
  <Person id="2"><name>Bob</name>
    <Friendship><Friend fid="1" years="3"/></Friendship>
  </Person>
  <Person id="3"><name>Carol</name>
    <Friendship><Friend fid="1" years="5"/></Friendship>
  </Person>
</SocialNetwork>)";
  auto tree = xml::ParseXml(example_xml);
  auto table = hdt::Table::FromRows({{"Alice", "Bob", "3"},
                                     {"Alice", "Carol", "5"},
                                     {"Bob", "Alice", "3"},
                                     {"Carol", "Alice", "5"}});

  auto result = core::LearnTransformation(*tree, *table);
  if (!result.ok()) {
    std::fprintf(stderr, "synthesis: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  std::printf("Learned from 4 example rows:\n  %s\n\n",
              dsl::ToString(result->program).c_str());

  std::string big_doc = workload::GenerateSocialNetworkXml(persons, 7);
  auto big = xml::ParseXml(big_doc);
  std::printf("Generated network: %d persons, %zu HDT nodes, %.1f MB\n",
              persons, big->NumElements(),
              static_cast<double>(big_doc.size()) / 1048576.0);

  core::OptimizedExecutor exec(result->program);
  auto rows = exec.Execute(*big);
  if (!rows.ok()) {
    std::fprintf(stderr, "execution: %s\n",
                 rows.status().ToString().c_str());
    return 1;
  }
  std::printf("Migrated %zu friendship rows. First three:\n",
              rows->NumRows());
  for (size_t i = 0; i < rows->NumRows() && i < 3; ++i) {
    const hdt::Row row = rows->row(i);
    std::printf("  (%s, %s, %s)\n", row[0].c_str(), row[1].c_str(),
                row[2].c_str());
  }
  std::printf("\nExecution plan:\n%s", exec.DescribePlan().c_str());
  return 0;
}
