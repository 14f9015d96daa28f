#include "workload/datasets.h"

#include "common/json_escape.h"

/// Synthetic IMDB (JSON): 9 tables, 35 columns — matching the paper's
/// Table 2 row for IMDB. One JSON document holding an array of movie
/// objects with nested rating/genre/cast/crew/runtime/aka/episode data
/// (the shape of the imdb2json conversion the paper used).

namespace mitra::workload {

namespace {

struct CastEntry {
  std::string actor, role;
};
struct Runtime {
  std::string mins, country;
};
struct Aka {
  std::string title, region, lang;
};
struct Episode {
  std::string title, season, epnum;
};
struct Movie {
  std::string title, year, kind;
  std::string score, votes;
  std::vector<std::string> genres;
  std::vector<CastEntry> cast;
  std::vector<std::string> directors;
  std::vector<std::string> writers;
  std::vector<Runtime> runtimes;
  std::vector<Aka> akas;
  std::vector<Episode> episodes;
};

struct Model {
  std::vector<Movie> movies;
};

/// Child-list length: the first two entities get fixed, different counts
/// so the training example can never be explained by positional access.
int ListLen(Rng& rng, size_t index, int lo, int hi) {
  if (index == 0) return 2;
  if (index == 1) return 1;
  return rng.Range(lo, hi);
}

Model BuildModel(int scale, uint32_t seed) {
  Rng rng(seed ^ 0x13db);
  static const char* kGenres[] = {"drama", "comedy", "noir", "sci-fi",
                                  "documentary", "thriller"};
  static const char* kRegions[] = {"US", "DE", "JP", "FR", "BR"};
  Model m;
  int n = std::max(3, scale);
  for (int i = 0; i < n; ++i) {
    size_t idx = static_cast<size_t>(i);
    Movie mv;
    mv.title = "film-" + rng.Word(7) + "-" + std::to_string(i);
    mv.year = std::to_string(rng.Range(1950, 2017));
    mv.kind = (i % 3 == 0) ? "movie" : (i % 3 == 1 ? "series" : "short");
    mv.score = std::to_string(rng.Range(10, 99) / 10) + "." +
               std::to_string(rng.Range(0, 9));
    mv.votes = std::to_string(rng.Range(10, 900000));
    int ng = ListLen(rng, idx, 1, 3);
    for (int k = 0; k < ng; ++k) {
      mv.genres.push_back(kGenres[(static_cast<size_t>(i + k * 7)) % 6]);
    }
    int nc = ListLen(rng, idx, 1, 4);
    for (int k = 0; k < nc; ++k) {
      mv.cast.push_back(CastEntry{rng.Word(4) + " " + rng.Word(6),
                                  "as-" + rng.Word(5)});
    }
    int nd = ListLen(rng, idx, 1, 2);
    for (int k = 0; k < nd; ++k) {
      mv.directors.push_back(rng.Word(4) + " " + rng.Word(7));
    }
    int nw = ListLen(rng, idx, 1, 2);
    for (int k = 0; k < nw; ++k) {
      mv.writers.push_back(rng.Word(4) + " " + rng.Word(7));
    }
    int nr = ListLen(rng, idx, 1, 2);
    for (int k = 0; k < nr; ++k) {
      mv.runtimes.push_back(
          Runtime{std::to_string(rng.Range(70, 200)),
                  kRegions[rng.Below(5)]});
    }
    int na = ListLen(rng, idx, 0, 2);
    for (int k = 0; k < na; ++k) {
      mv.akas.push_back(Aka{"aka-" + rng.Word(6), kRegions[rng.Below(5)],
                            "lang-" + rng.Word(2)});
    }
    int ne = ListLen(rng, idx, 0, 3);
    for (int k = 0; k < ne; ++k) {
      mv.episodes.push_back(Episode{"ep-" + rng.Word(6) + "-" +
                                        std::to_string(i) + "-" +
                                        std::to_string(k),
                                    std::to_string(rng.Range(1, 9)),
                                    std::to_string(k + 1)});
    }
    m.movies.push_back(std::move(mv));
  }
  return m;
}

std::string Render(const Model& m) {
  std::string out = "{\"movies\": [\n";
  auto str = [](const std::string& s) {
    return "\"" + common::EscapeJsonString(s) + "\"";
  };
  for (size_t i = 0; i < m.movies.size(); ++i) {
    const Movie& mv = m.movies[i];
    out += " {\"mtitle\": " + str(mv.title) + ", \"myear\": " + mv.year +
           ", \"kind\": " + str(mv.kind) + ",\n";
    out += "  \"rating\": {\"score\": " + str(mv.score) +
           ", \"votes\": " + mv.votes + "},\n";
    out += "  \"genres\": [";
    for (size_t k = 0; k < mv.genres.size(); ++k) {
      if (k) out += ", ";
      out += "{\"genre\": " + str(mv.genres[k]) + "}";
    }
    out += "],\n  \"cast\": [";
    for (size_t k = 0; k < mv.cast.size(); ++k) {
      if (k) out += ", ";
      out += "{\"actor\": " + str(mv.cast[k].actor) +
             ", \"role\": " + str(mv.cast[k].role) + "}";
    }
    out += "],\n  \"directors\": [";
    for (size_t k = 0; k < mv.directors.size(); ++k) {
      if (k) out += ", ";
      out += "{\"dname\": " + str(mv.directors[k]) + "}";
    }
    out += "],\n  \"writers\": [";
    for (size_t k = 0; k < mv.writers.size(); ++k) {
      if (k) out += ", ";
      out += "{\"wname\": " + str(mv.writers[k]) + "}";
    }
    out += "],\n  \"runtimes\": [";
    for (size_t k = 0; k < mv.runtimes.size(); ++k) {
      if (k) out += ", ";
      out += "{\"mins\": " + mv.runtimes[k].mins +
             ", \"country\": " + str(mv.runtimes[k].country) + "}";
    }
    out += "],\n  \"akas\": [";
    for (size_t k = 0; k < mv.akas.size(); ++k) {
      if (k) out += ", ";
      out += "{\"aka_title\": " + str(mv.akas[k].title) +
             ", \"region\": " + str(mv.akas[k].region) +
             ", \"lang\": " + str(mv.akas[k].lang) + "}";
    }
    out += "],\n  \"episodes\": [";
    for (size_t k = 0; k < mv.episodes.size(); ++k) {
      if (k) out += ", ";
      out += "{\"ep_title\": " + str(mv.episodes[k].title) +
             ", \"season\": " + mv.episodes[k].season +
             ", \"epnum\": " + mv.episodes[k].epnum + "}";
    }
    out += "]}";
    if (i + 1 < m.movies.size()) out += ",";
    out += "\n";
  }
  out += "]}\n";
  return out;
}

std::map<std::string, std::vector<hdt::Row>> Tables(const Model& m) {
  std::map<std::string, std::vector<hdt::Row>> t;
  for (const Movie& mv : m.movies) {
    t["movies"].push_back({mv.title, mv.year, mv.kind});
    t["ratings"].push_back({mv.score, mv.votes});
    for (const auto& g : mv.genres) t["genres"].push_back({g});
    for (const auto& c : mv.cast) t["cast"].push_back({c.actor, c.role});
    for (const auto& d : mv.directors) t["directors"].push_back({d});
    for (const auto& w : mv.writers) t["writers"].push_back({w});
    for (const auto& r : mv.runtimes) {
      t["runtimes"].push_back({r.mins, r.country});
    }
    for (const auto& a : mv.akas) {
      t["akas"].push_back({a.title, a.region, a.lang});
    }
    for (const auto& e : mv.episodes) {
      t["episodes"].push_back({e.title, e.season, e.epnum});
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
  s.tables.push_back(
      {"movies", {pk("mid"), col("mtitle"), col("myear"), col("kind")}});
  s.tables.push_back(
      {"ratings",
       {pk("rid"), col("score"), col("votes"), fk("movie", "movies")}});
  s.tables.push_back(
      {"genres", {pk("gid"), col("genre"), fk("movie", "movies")}});
  s.tables.push_back(
      {"cast",
       {pk("cid"), col("actor"), col("role"), fk("movie", "movies")}});
  s.tables.push_back(
      {"directors", {pk("did"), col("dname"), fk("movie", "movies")}});
  s.tables.push_back(
      {"writers", {pk("wid"), col("wname"), fk("movie", "movies")}});
  s.tables.push_back(
      {"runtimes",
       {pk("ruid"), col("mins"), col("country"), fk("movie", "movies")}});
  s.tables.push_back({"akas",
                      {pk("akid"), col("aka_title"), col("region"),
                       col("lang"), fk("movie", "movies")}});
  s.tables.push_back({"episodes",
                      {pk("eid"), col("ep_title"), col("season"),
                       col("epnum"), fk("movie", "movies")}});
  return s;
}

}  // namespace

const DatasetSpec& Imdb() {
  static const DatasetSpec* spec = [] {
    auto* s = new DatasetSpec();
    s->name = "IMDB";
    s->format = DocFormat::kJson;
    s->schema = Schema();
    Model example = BuildModel(3, 11);
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
