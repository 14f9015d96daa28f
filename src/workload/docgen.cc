#include "workload/docgen.h"

#include <cstdio>
#include <vector>

#include "common/strings.h"
#include "workload/datasets.h"

namespace mitra::workload {

namespace {

/// Deterministic symmetric friendship structure: person i is friends with
/// (i+1) mod n and, for every third person, also with (i+7) mod n. Each
/// friendship carries one `years` value shared by both directions, as in
/// Fig. 2a.
struct FriendshipPlan {
  struct Edge {
    int a, b, years;
  };
  std::vector<Edge> edges;
};

FriendshipPlan PlanFriendships(int n, uint32_t seed) {
  Rng rng(seed ^ 0x50c1a1);
  FriendshipPlan plan;
  if (n < 2) return plan;
  for (int i = 0; i < n; ++i) {
    int j = (i + 1) % n;
    if (i < j) plan.edges.push_back({i, j, rng.Range(1, 40)});
    if (i % 3 == 0 && n > 8) {
      int k = (i + 7) % n;
      if (i < k) plan.edges.push_back({i, k, rng.Range(1, 40)});
    }
  }
  return plan;
}

}  // namespace

std::string GenerateSocialNetworkXml(int num_persons, uint32_t seed) {
  FriendshipPlan plan = PlanFriendships(num_persons, seed);
  // Adjacency: per person, list of (friend, years).
  std::vector<std::vector<std::pair<int, int>>> adj(
      static_cast<size_t>(num_persons));
  for (const auto& e : plan.edges) {
    adj[static_cast<size_t>(e.a)].emplace_back(e.b, e.years);
    adj[static_cast<size_t>(e.b)].emplace_back(e.a, e.years);
  }
  std::string out;
  out.reserve(static_cast<size_t>(num_persons) * 160);
  out += "<SocialNetwork>\n";
  for (int i = 0; i < num_persons; ++i) {
    std::string id = std::to_string(i + 1);
    out += "  <Person id=\"" + id + "\">\n";
    out += "    <name>user" + id + "</name>\n";
    out += "    <Friendship>\n";
    for (const auto& [fid, years] : adj[static_cast<size_t>(i)]) {
      out += "      <Friend fid=\"" + std::to_string(fid + 1) +
             "\" years=\"" + std::to_string(years) + "\"/>\n";
    }
    out += "    </Friendship>\n";
    out += "  </Person>\n";
  }
  out += "</SocialNetwork>\n";
  return out;
}

size_t SocialNetworkExpectedRows(int num_persons, uint32_t seed) {
  return PlanFriendships(num_persons, seed).edges.size() * 2;
}

namespace {

struct CopyContext {
  bool mutate = false;
  const std::set<std::string>* preserve = nullptr;
  int copy = 0;
  std::string suffix;
};

std::string MutateValue(const CopyContext& ctx, std::string_view data) {
  if (!ctx.mutate ||
      (ctx.preserve != nullptr && ctx.preserve->count(std::string(data)))) {
    return std::string(data);
  }
  // Numbers are shifted by a large per-copy offset, strings suffixed —
  // both keep values unique per copy, so value joins stay within a copy
  // (identifiers in real scaled data are unique too).
  if (auto num = ParseNumber(data)) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.4f",
                  *num + 1e9 * static_cast<double>(ctx.copy));
    return buf;
  }
  return std::string(data) + ctx.suffix;
}

void CopySubtree(const hdt::Hdt& src, hdt::NodeId from,
                 hdt::HdtBuilder* dst, hdt::NodeId parent,
                 const CopyContext& ctx) {
  hdt::NodeId copy =
      src.HasData(from)
          ? dst->AddChild(parent, src.NodeTagName(from),
                          MutateValue(ctx, src.Data(from)))
          : dst->AddChild(parent, src.NodeTagName(from));
  for (hdt::NodeId c : src.Children(from)) {
    CopySubtree(src, c, dst, copy, ctx);
  }
}

}  // namespace

hdt::Hdt ReplicateDocument(const hdt::Hdt& tree, int factor,
                           bool mutate_strings,
                           const std::set<std::string>* preserve) {
  if (tree.empty()) return hdt::Hdt();
  hdt::HdtBuilder out;
  hdt::NodeId root = out.AddRoot(tree.NodeTagName(tree.root()));
  if (tree.HasData(tree.root())) {
    out.SetLeafData(root, tree.Data(tree.root()));
    return out.Finish();
  }
  for (int k = 0; k < factor; ++k) {
    CopyContext ctx{mutate_strings, preserve, k,
                    mutate_strings ? "#" + std::to_string(k) : ""};
    // Copy 0 keeps original values so the training rows stay present.
    if (k == 0) ctx.mutate = false;
    for (hdt::NodeId c : tree.Children(tree.root())) {
      CopySubtree(tree, c, &out, root, ctx);
    }
  }
  return out.Finish();
}

size_t SocialNetworkApproxElements(int num_persons, uint32_t seed) {
  // Per person: Person + id + name + Friendship = 4 nodes; per directed
  // friendship entry: Friend + fid + years = 3 nodes; plus the root.
  return 1 + static_cast<size_t>(num_persons) * 4 +
         PlanFriendships(num_persons, seed).edges.size() * 2 * 3;
}

}  // namespace mitra::workload
