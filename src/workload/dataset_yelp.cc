#include "workload/datasets.h"

#include "common/json_escape.h"

/// Synthetic YELP (JSON): 7 tables, 34 columns — matching the paper's
/// Table 2 row. One document with an array of business objects carrying
/// nested categories/hours/checkins/reviews/tips/attributes.

namespace mitra::workload {

namespace {

struct Hours {
  std::string day, open, close;
};
struct Checkin {
  std::string day, count;
};
struct Review {
  std::string stars, text, useful, funny, by;
};
struct Tip {
  std::string text, likes, date;
};
struct Attr {
  std::string key, val;
};
struct Business {
  std::string name, address, city, state, stars;
  std::vector<std::string> categories;
  std::vector<Hours> hours;
  std::vector<Checkin> checkins;
  std::vector<Review> reviews;
  std::vector<Tip> tips;
  std::vector<Attr> attrs;
};

struct Model {
  std::vector<Business> businesses;
};

int ListLen(Rng& rng, size_t index, int lo, int hi) {
  if (index == 0) return 2;
  if (index == 1) return 1;
  return rng.Range(lo, hi);
}

Model BuildModel(int scale, uint32_t seed) {
  Rng rng(seed ^ 0x9e1b);
  static const char* kDays[] = {"Mon", "Tue", "Wed", "Thu", "Fri", "Sat",
                                "Sun"};
  static const char* kCats[] = {"coffee", "pizza", "thai",   "bakery",
                                "bar",    "ramen", "books"};
  Model m;
  int n = std::max(3, scale);
  for (int i = 0; i < n; ++i) {
    size_t idx = static_cast<size_t>(i);
    std::string tag = std::to_string(i);
    Business b;
    b.name = "biz-" + rng.Word(6) + "-" + tag;
    b.address = std::to_string(rng.Range(1, 999)) + " " + rng.Word(5) +
                " st";
    b.city = "city-" + rng.Word(4);
    b.state = "S" + std::to_string(rng.Range(1, 50));
    b.stars = std::to_string(rng.Range(1, 4)) + "." +
              std::to_string(rng.Range(0, 9));
    int nc = ListLen(rng, idx, 1, 3);
    for (int k = 0; k < nc; ++k) {
      b.categories.push_back(kCats[(static_cast<size_t>(i + k * 3)) % 7]);
    }
    int nh = ListLen(rng, idx, 1, 7);
    for (int k = 0; k < nh; ++k) {
      b.hours.push_back(Hours{kDays[static_cast<size_t>(k) % 7],
                              std::to_string(rng.Range(6, 11)) + ":00",
                              std::to_string(rng.Range(17, 23)) + ":00"});
    }
    int nch = ListLen(rng, idx, 0, 3);
    for (int k = 0; k < nch; ++k) {
      b.checkins.push_back(Checkin{kDays[static_cast<size_t>(k) % 7],
                                   std::to_string(rng.Range(1, 40))});
    }
    int nr = ListLen(rng, idx, 1, 4);
    for (int k = 0; k < nr; ++k) {
      b.reviews.push_back(Review{
          std::to_string(rng.Range(1, 5)),
          "rev-" + rng.Word(8) + "-" + tag + "-" + std::to_string(k),
          std::to_string(rng.Range(0, 20)), std::to_string(rng.Range(0, 9)),
          rng.Word(4) + "_" + rng.Word(3)});
    }
    int nt = ListLen(rng, idx, 0, 2);
    for (int k = 0; k < nt; ++k) {
      b.tips.push_back(Tip{"tip-" + rng.Word(7) + "-" + tag + "-" +
                               std::to_string(k),
                           std::to_string(rng.Range(0, 15)),
                           "2017-" + std::to_string(rng.Range(1, 12)) +
                               "-" + std::to_string(rng.Range(1, 28))});
    }
    int na = ListLen(rng, idx, 1, 3);
    for (int k = 0; k < na; ++k) {
      b.attrs.push_back(Attr{"attr-" + rng.Word(4),
                             (k % 2) ? "true" : "false"});
    }
    m.businesses.push_back(std::move(b));
  }
  return m;
}

std::string Render(const Model& m) {
  auto str = [](const std::string& s) {
    return "\"" + common::EscapeJsonString(s) + "\"";
  };
  std::string out = "{\"businesses\": [\n";
  for (size_t i = 0; i < m.businesses.size(); ++i) {
    const Business& b = m.businesses[i];
    out += " {\"bname\": " + str(b.name) + ", \"address\": " +
           str(b.address) + ", \"city\": " + str(b.city) +
           ", \"state\": " + str(b.state) + ", \"stars\": " + b.stars +
           ",\n";
    out += "  \"categories\": [";
    for (size_t k = 0; k < b.categories.size(); ++k) {
      if (k) out += ", ";
      out += "{\"cat\": " + str(b.categories[k]) + "}";
    }
    out += "],\n  \"hours\": [";
    for (size_t k = 0; k < b.hours.size(); ++k) {
      if (k) out += ", ";
      out += "{\"day\": " + str(b.hours[k].day) + ", \"open\": " +
             str(b.hours[k].open) + ", \"close\": " + str(b.hours[k].close) +
             "}";
    }
    out += "],\n  \"checkins\": [";
    for (size_t k = 0; k < b.checkins.size(); ++k) {
      if (k) out += ", ";
      out += "{\"cday\": " + str(b.checkins[k].day) + ", \"count\": " +
             b.checkins[k].count + "}";
    }
    out += "],\n  \"reviews\": [";
    for (size_t k = 0; k < b.reviews.size(); ++k) {
      if (k) out += ", ";
      const Review& r = b.reviews[k];
      out += "{\"rstars\": " + r.stars + ", \"rtext\": " + str(r.text) +
             ", \"useful\": " + r.useful + ", \"funny\": " + r.funny +
             ", \"by\": " + str(r.by) + "}";
    }
    out += "],\n  \"tips\": [";
    for (size_t k = 0; k < b.tips.size(); ++k) {
      if (k) out += ", ";
      out += "{\"ttext\": " + str(b.tips[k].text) + ", \"likes\": " +
             b.tips[k].likes + ", \"tdate\": " + str(b.tips[k].date) + "}";
    }
    out += "],\n  \"attributes\": [";
    for (size_t k = 0; k < b.attrs.size(); ++k) {
      if (k) out += ", ";
      out += "{\"akey\": " + str(b.attrs[k].key) + ", \"aval\": " +
             str(b.attrs[k].val) + "}";
    }
    out += "]}";
    if (i + 1 < m.businesses.size()) out += ",";
    out += "\n";
  }
  out += "]}\n";
  return out;
}

std::map<std::string, std::vector<hdt::Row>> Tables(const Model& m) {
  std::map<std::string, std::vector<hdt::Row>> t;
  for (const Business& b : m.businesses) {
    t["business"].push_back({b.name, b.address, b.city, b.state, b.stars});
    for (const auto& c : b.categories) t["category"].push_back({c});
    for (const auto& h : b.hours) {
      t["hours"].push_back({h.day, h.open, h.close});
    }
    for (const auto& c : b.checkins) {
      t["checkin"].push_back({c.day, c.count});
    }
    for (const auto& r : b.reviews) {
      t["review"].push_back({r.stars, r.text, r.useful, r.funny, r.by});
    }
    for (const auto& tp : b.tips) {
      t["tip"].push_back({tp.text, tp.likes, tp.date});
    }
    for (const auto& a : b.attrs) {
      t["attribute"].push_back({a.key, a.val});
    }
  }
  return t;
}

db::DatabaseSchema Schema() {
  using db::ColumnKind;
  db::DatabaseSchema s;
  auto pk = [](const char* n) {
    return db::ColumnDef{n, ColumnKind::kPrimaryKey, ""};
  };
  auto col = [](const char* n) {
    return db::ColumnDef{n, ColumnKind::kData, ""};
  };
  auto fk = [](const char* n, const char* ref) {
    return db::ColumnDef{n, ColumnKind::kForeignKey, ref};
  };
  s.tables.push_back({"business",
                      {pk("bid"), col("bname"), col("address"), col("city"),
                       col("state"), col("stars")}});
  s.tables.push_back(
      {"category", {pk("cid"), col("cat"), fk("biz", "business")}});
  s.tables.push_back({"hours",
                      {pk("hid"), col("day"), col("open"), col("close"),
                       fk("biz", "business")}});
  s.tables.push_back({"checkin",
                      {pk("chid"), col("cday"), col("count"),
                       fk("biz", "business")}});
  s.tables.push_back({"review",
                      {pk("rvid"), col("rstars"), col("rtext"),
                       col("useful"), col("funny"), col("by"),
                       fk("biz", "business")}});
  s.tables.push_back({"tip",
                      {pk("tid"), col("ttext"), col("likes"), col("tdate"),
                       fk("biz", "business")}});
  s.tables.push_back({"attribute",
                      {pk("atid"), col("akey"), col("aval"),
                       fk("biz", "business")}});
  return s;
}

}  // namespace

const DatasetSpec& Yelp() {
  static const DatasetSpec* spec = [] {
    auto* s = new DatasetSpec();
    s->name = "YELP";
    s->format = DocFormat::kJson;
    s->schema = Schema();
    Model example = BuildModel(3, 21);
    s->example_document = Render(example);
    s->example_tables = Tables(example);
    s->generate = [](int scale, uint32_t seed) {
      return Render(BuildModel(scale, seed));
    };
    s->expected_tables = [](int scale, uint32_t seed) {
      return Tables(BuildModel(scale, seed));
    };
    return s;
  }();
  return *spec;
}

}  // namespace mitra::workload
