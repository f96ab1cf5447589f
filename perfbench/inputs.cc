#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <stdexcept>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

namespace perfbench {

uint64_t Prng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Fnv1a(const void* data, size_t n, uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

namespace {

const std::string kType = "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>";

std::string Iri(const char* ns, const std::string& local) {
  return std::string("<http://bench.example/") + ns + "/" + local + ">";
}
std::string Ent(const char* ns, const char* kind, uint64_t id) {
  return Iri(ns, kind + std::to_string(id));
}
std::string Lit(const char* kind, uint64_t id) {
  std::string out = "\"";
  out += kind;
  out += std::to_string(id);
  out += '"';
  return out;
}

/// A LUBM-shaped university graph: 18 properties, about 1,000 triples
/// per university; duplicate-free by construction.
std::vector<TextTriple> MakeLubm(uint32_t universities, Prng& rng) {
  auto P = [](const char* name) { return Iri("ub", name); };
  const std::string sub_org = P("subOrganizationOf"), works_for = P("worksFor"),
                    head_of = P("headOf"), teacher_of = P("teacherOf"),
                    takes = P("takesCourse"), advisor = P("advisor"),
                    member_of = P("memberOf"), author = P("publicationAuthor"),
                    ug_deg = P("undergraduateDegreeFrom"),
                    ms_deg = P("mastersDegreeFrom"),
                    phd_deg = P("doctoralDegreeFrom"),
                    ta_of = P("teachingAssistantOf"),
                    interest = P("researchInterest"), name = P("name"),
                    email = P("emailAddress"), phone = P("telephone"),
                    office = P("officeNumber");
  auto C = [](const char* name) { return Iri("ubclass", name); };
  const std::string c_univ = C("University"), c_dept = C("Department"),
                    c_full = C("FullProfessor"), c_assoc = C("AssociateProfessor"),
                    c_asst = C("AssistantProfessor"), c_course = C("Course"),
                    c_ug = C("UndergraduateStudent"), c_grad = C("GraduateStudent"),
                    c_pub = C("Publication"), c_group = C("ResearchGroup");

  std::vector<TextTriple> out;
  auto add = [&out](const std::string& s, const std::string& p,
                    const std::string& o) { out.push_back({s, p, o}); };
  auto univ = [](uint64_t u) { return Ent("u", "University", u); };
  auto other_univ = [&](uint64_t u) {
    if (universities <= 1) return univ(u);
    uint64_t other = rng.Below(universities - 1);
    return univ(other >= u ? other + 1 : other);
  };
  // Picks `n` distinct indices below `size` (n <= size).
  auto distinct = [&rng](size_t n, size_t size) {
    std::vector<size_t> picked;
    while (picked.size() < n) {
      size_t i = rng.Below(size);
      if (std::find(picked.begin(), picked.end(), i) == picked.end()) {
        picked.push_back(i);
      }
    }
    return picked;
  };

  uint64_t person = 0, course_id = 0, pub = 0, dept_id = 0, group = 0, lit = 0;
  for (uint64_t u = 0; u < universities; ++u) {
    add(univ(u), kType, c_univ);
    const uint64_t depts = rng.Between(3, 6);
    for (uint64_t d = 0; d < depts; ++d) {
      const std::string dept = Ent("u", "Department", dept_id++);
      add(dept, kType, c_dept);
      add(dept, sub_org, univ(u));
      for (uint64_t g = rng.Between(1, 3); g > 0; --g) {
        const std::string grp = Ent("u", "ResearchGroup", group++);
        add(grp, kType, c_group);
        add(grp, sub_org, dept);
      }
      std::vector<std::string> faculty, courses;
      const uint64_t num_faculty = rng.Between(4, 8);
      for (uint64_t f = 0; f < num_faculty; ++f) {
        const std::string prof = Ent("u", "Professor", person++);
        faculty.push_back(prof);
        add(prof, kType, f == 0 ? c_full : (f % 2 ? c_assoc : c_asst));
        add(prof, works_for, dept);
        if (f == 0) add(prof, head_of, dept);
        add(prof, name, Lit("Name", lit));
        add(prof, email, Lit("Email", lit));
        add(prof, phone, Lit("Phone", lit));
        add(prof, office, Lit("Office", lit));
        ++lit;
        // 40 shared interests: one giant component, so this property
        // crosses under MPC.
        add(prof, interest, Lit("Interest", rng.Below(40)));
        add(prof, ug_deg, other_univ(u));
        add(prof, ms_deg, other_univ(u));
        add(prof, phd_deg, other_univ(u));
        for (uint64_t c = rng.Between(1, 2); c > 0; --c) {
          const std::string course = Ent("u", "Course", course_id++);
          add(course, kType, c_course);
          add(prof, teacher_of, course);
          courses.push_back(course);
        }
        for (uint64_t n = rng.Between(1, 3); n > 0; --n) {
          const std::string p = Ent("u", "Publication", pub++);
          add(p, kType, c_pub);
          add(p, author, prof);
        }
      }
      for (uint64_t s = rng.Between(3, 8); s > 0; --s) {
        const std::string grad = Ent("u", "GradStudent", person++);
        add(grad, kType, c_grad);
        add(grad, member_of, dept);
        add(grad, advisor, faculty[rng.Below(faculty.size())]);
        add(grad, name, Lit("Name", lit++));
        add(grad, ug_deg, rng.Chance(0.3) ? univ(u) : other_univ(u));
        add(grad, takes, courses[rng.Below(courses.size())]);
        if (rng.Chance(0.4)) {
          add(grad, ta_of, courses[rng.Below(courses.size())]);
        }
      }
      for (uint64_t s = rng.Between(8, 20); s > 0; --s) {
        const std::string ug = Ent("u", "UgStudent", person++);
        add(ug, kType, c_ug);
        add(ug, member_of, dept);
        add(ug, email, Lit("Email", lit++));
        const size_t n = std::min<size_t>(rng.Between(1, 3), courses.size());
        for (size_t i : distinct(n, courses.size())) add(ug, takes, courses[i]);
        if (rng.Chance(0.3)) {
          add(ug, advisor, faculty[rng.Below(faculty.size())]);
        }
      }
    }
  }
  return out;
}

/// LQ1..LQ14 over the LUBM vocabulary above, all `SELECT *` (the
/// program returns every variable's column).
std::vector<Query> LubmQueries() {
  auto P = [](const char* name) { return Iri("ub", name); };
  auto C = [](const char* name) { return Iri("ubclass", name); };
  const std::string univ0 = Ent("u", "University", 0),
                    dept0 = Ent("u", "Department", 0),
                    course0 = Ent("u", "Course", 0),
                    prof0 = Ent("u", "Professor", 0);
  auto t = [](const std::string& s, const std::string& p,
              const std::string& o) { return s + " " + p + " " + o + " . "; };
  auto q = [](std::string body) { return "SELECT * WHERE { " + body + "}"; };
  return {
      {"LQ1", q(t("?x", P("takesCourse"), course0) +
                t("?x", kType, C("GraduateStudent")))},
      {"LQ2", q(t("?x", P("memberOf"), "?z") +
                t("?z", P("subOrganizationOf"), "?y") +
                t("?x", P("undergraduateDegreeFrom"), "?y"))},
      {"LQ3", q(t("?x", kType, C("Publication")) +
                t("?x", P("publicationAuthor"), prof0))},
      {"LQ4", q(t("?x", P("worksFor"), dept0) + t("?x", P("name"), "?n") +
                t("?x", P("emailAddress"), "?e") +
                t("?x", P("telephone"), "?t"))},
      {"LQ5", q(t("?x", P("memberOf"), dept0) +
                t("?x", kType, C("UndergraduateStudent")))},
      {"LQ6", q(t("?x", P("memberOf"), "?y"))},
      {"LQ7", q(t("?x", P("takesCourse"), course0) +
                t("?x", kType, C("UndergraduateStudent")))},
      {"LQ8", q(t("?x", P("memberOf"), "?y") +
                t("?y", P("subOrganizationOf"), univ0) +
                t("?x", P("emailAddress"), "?z"))},
      {"LQ9", q(t("?x", P("advisor"), "?y") + t("?y", P("teacherOf"), "?z") +
                t("?x", P("takesCourse"), "?z"))},
      {"LQ10", q(t("?x", P("takesCourse"), course0))},
      {"LQ11", q(t("?x", P("subOrganizationOf"), univ0) +
                 t("?x", kType, C("Department")))},
      {"LQ12", q(t("?x", P("headOf"), "?y") +
                 t("?y", P("subOrganizationOf"), univ0) +
                 t("?x", kType, C("FullProfessor")))},
      {"LQ13", q(t("?x", P("undergraduateDegreeFrom"), univ0))},
      {"LQ14", q(t("?x", kType, C("UndergraduateStudent")))},
  };
}

/// Zipf(s) sampler over [0, n) by inverse CDF.
class Zipf {
 public:
  Zipf(size_t n, double s) : cdf_(n) {
    double sum = 0;
    for (size_t i = 0; i < n; ++i) cdf_[i] = (sum += 1.0 / std::pow(i + 1, s));
    for (double& c : cdf_) c /= sum;
  }
  size_t Sample(Prng& rng) const {
    const double u = static_cast<double>(rng.Next() >> 11) * 0x1.0p-53;
    return std::min<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin(),
        cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// A DBpedia-shaped graph: entity clusters linked by thousands of Zipf
/// long-tail infobox properties, plus 63 head properties across the whole
/// graph. Property-rich, so MPC's selector carries the offline cost.
std::vector<TextTriple> MakeDbpedia(uint32_t clusters, Prng& rng) {
  constexpr size_t kTail = 12000;
  std::vector<std::string> head, tail, classes;
  for (int i = 0; i < 63; ++i) head.push_back(Iri("dbo", "head" + std::to_string(i)));
  for (size_t i = 0; i < kTail; ++i) tail.push_back(Iri("dbo", "infobox" + std::to_string(i)));
  for (const char* c : {"Person", "Place", "Work", "Organisation", "Species", "Event"}) {
    classes.push_back(Iri("dbclass", c));
  }
  const Zipf zipf(kTail, 1.1);
  std::vector<TextTriple> out;
  std::unordered_set<std::string> links;  // de-duplicates entity links
  auto link = [&](const std::string& s, const std::string& p,
                  const std::string& o) {
    if (s != o && links.insert(s + p + o).second) out.push_back({s, p, o});
  };
  std::vector<std::string> all;
  uint64_t entity = 0, lit = 0;
  for (uint32_t c = 0; c < clusters; ++c) {
    std::vector<std::string> cluster;
    const uint64_t size = rng.Between(10, 40);
    for (uint64_t i = 0; i < size; ++i) {
      std::string e = Ent("db", "Resource", entity++);
      out.push_back({e, kType, classes[rng.Below(classes.size())]});
      for (uint64_t a = rng.Between(3, 8); a > 0; --a) {
        out.push_back({e, tail[zipf.Sample(rng)], Lit("V", lit++)});
      }
      cluster.push_back(std::move(e));
    }
    for (uint64_t l = 0; l < size * 2; ++l) {
      link(cluster[rng.Below(size)], tail[zipf.Sample(rng)],
           cluster[rng.Below(size)]);
    }
    all.insert(all.end(), cluster.begin(), cluster.end());
  }
  for (size_t l = 0; l < all.size(); ++l) {
    link(all[rng.Below(all.size())], head[rng.Below(head.size())],
         all[rng.Below(all.size())]);
  }
  return out;
}

/// Integer adjacency over a text graph, for walking it to make queries.
struct Adjacency {
  std::vector<std::string> terms;
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> out, in;  // (p, v)
  std::vector<std::string> props;

  explicit Adjacency(const std::vector<TextTriple>& triples) {
    std::unordered_map<std::string, uint32_t> ids, pids;
    auto id = [&](const std::string& t) {
      auto [it, fresh] = ids.emplace(t, static_cast<uint32_t>(terms.size()));
      if (fresh) {
        terms.push_back(t);
        out.emplace_back();
        in.emplace_back();
      }
      return it->second;
    };
    for (const TextTriple& t : triples) {
      auto [it, fresh] = pids.emplace(t.p, static_cast<uint32_t>(props.size()));
      if (fresh) props.push_back(t.p);
      const uint32_t s = id(t.s), o = id(t.o);
      out[s].push_back({it->second, o});
      in[o].push_back({it->second, s});
    }
  }
};

std::string Pattern(const std::string& s, const std::string& p,
                    const std::string& o) {
  return s + " " + p + " " + o + " . ";
}

struct Edge {
  uint32_t s, p, o;
};

// Every generated query has at least one constant, so that it is
// selective, and at least one answer at generation time (it is read off
// the graph). No join sits on a hub: a step along an in-edge is taken
// only out of a vertex of in-degree <= 50, and linear queries never step
// along rdf:type. The program evaluates each subquery without the other
// subqueries' constants, and a join through a hub there grows as the
// square of its degree (see README.md).

/// A star: 2-4 out-edges of a random subject with distinct properties,
/// one object kept constant. "" when the draw does not make one.
std::string MakeStar(const Adjacency& g, Prng& rng) {
  const auto& out = g.out[rng.Below(g.terms.size())];
  if (out.size() < 2) return "";
  const size_t m = std::min<size_t>(rng.Between(2, 4), out.size());
  std::vector<size_t> edges;
  for (size_t tries = 0; edges.size() < m && tries < 20; ++tries) {
    size_t e = rng.Below(out.size());
    bool dup = false;
    for (size_t f : edges) dup |= out[f].first == out[e].first;
    if (!dup) edges.push_back(e);
  }
  if (edges.size() < 2) return "";
  const size_t constant = rng.Below(edges.size());
  if (g.in[out[edges[constant]].second].size() > 2000) return "";
  std::string body;
  for (size_t i = 0; i < edges.size(); ++i) {
    const auto& [p, o] = out[edges[i]];
    body += Pattern("?x", g.props[p],
                    i == constant ? g.terms[o] : "?v" + std::to_string(i));
  }
  return body;
}

/// A snowflake: two stars joined by `join`, one with a constant object
/// and one with a variable object.
std::string MakeSnowflake(const Adjacency& g, Prng& rng, const Edge& join) {
  const bool flip = g.in[join.o].size() <= 50 && rng.Chance(0.5);
  const uint32_t a = flip ? join.o : join.s, b = flip ? join.s : join.o;
  auto edge_from = [&](uint32_t at) -> const std::pair<uint32_t, uint32_t>* {
    const auto& edges = g.out[at];
    for (int tries = 0; tries < 8 && !edges.empty(); ++tries) {
      const auto& e = edges[rng.Below(edges.size())];
      if (e.first != join.p) return &e;
    }
    return nullptr;
  };
  const auto* ea = edge_from(a);
  const auto* eb = edge_from(b);
  if (ea == nullptr || eb == nullptr || g.in[ea->second].size() > 2000) return "";
  return Pattern("?x", g.props[ea->first], g.terms[ea->second]) +
         (flip ? Pattern("?y", g.props[join.p], "?x")
               : Pattern("?x", g.props[join.p], "?y")) +
         Pattern("?y", g.props[eb->first], "?v0");
}

/// A linear query: a 3-edge path with `join` in the middle and one edge
/// at each end, either direction; the first end is constant.
std::string MakeLinear(const Adjacency& g, Prng& rng, const Edge& join) {
  struct Step {
    uint32_t p = 0, to = 0;
    bool out = true;
  };
  auto step = [&](uint32_t at, std::initializer_list<uint32_t> avoid, Step* st) {
    for (int tries = 0; tries < 8; ++tries) {
      st->out = g.in[at].size() > 50 || rng.Chance(0.5);
      const auto& edges = st->out ? g.out[at] : g.in[at];
      if (edges.empty()) continue;
      std::tie(st->p, st->to) = edges[rng.Below(edges.size())];
      if (g.props[st->p] != kType &&
          std::find(avoid.begin(), avoid.end(), st->to) == avoid.end()) {
        return true;
      }
    }
    return false;
  };
  Step first, last;
  if (!step(join.s, {join.s, join.o}, &first) ||
      !step(join.o, {join.s, join.o, first.to}, &last)) {
    return "";
  }
  const std::string& c = g.terms[first.to];
  const std::string& p1 = g.props[first.p];
  const std::string& p3 = g.props[last.p];
  return (first.out ? Pattern("?v1", p1, c) : Pattern(c, p1, "?v1")) +
         Pattern("?v1", g.props[join.p], "?v2") +
         (last.out ? Pattern("?v2", p3, "?v3") : Pattern("?v3", p3, "?v2"));
}

/// Splits `slots` among strata of the given sizes by systematic sampling:
/// slot i goes to the stratum holding position (i + 1/2) * total / slots.
/// The split depends on the sizes only, not on the seed.
std::vector<size_t> Allocate(const std::vector<size_t>& sizes, size_t slots) {
  size_t total = 0;
  for (size_t n : sizes) total += n;
  std::vector<size_t> out(sizes.size());
  size_t j = 0, end = sizes[0];
  for (size_t i = 0; i < slots; ++i) {
    const double pos = (static_cast<double>(i) + 0.5) * static_cast<double>(total) /
                       static_cast<double>(slots);
    while (static_cast<double>(end) <= pos) end += sizes[++j];
    ++out[j];
  }
  return out;
}

std::vector<UpdateBatch> MakeUpdates(const std::vector<TextTriple>& triples,
                                     size_t batches, size_t batch_size,
                                     Prng& rng) {
  // Inserts: fresh students joining existing departments and courses,
  // and new enrolments between existing vertices. Deletes: live
  // triples, seed or inserted, picked uniformly.
  std::vector<std::string> depts, courses, students;
  for (const TextTriple& t : triples) {
    if (t.p.find("/memberOf>") != std::string::npos) {
      students.push_back(t.s);
      depts.push_back(t.o);
    } else if (t.p.find("/takesCourse>") != std::string::npos) {
      courses.push_back(t.o);
    }
  }
  if (depts.empty() || courses.empty()) {
    // Non-LUBM graphs: new links between existing subjects.
    for (const TextTriple& t : triples) {
      if (t.o[0] == '<') students.push_back(t.s), depts.push_back(t.o);
    }
    courses = depts;
  }
  const std::string member = Iri("ub", "memberOf");
  const std::string takes = Iri("ub", "takesCourse");
  std::vector<TextTriple> live = triples;
  std::unordered_set<std::string> present;
  present.reserve(live.size() * 2);
  auto key = [](const TextTriple& t) { return t.s + ' ' + t.p + ' ' + t.o; };
  for (const TextTriple& t : live) present.insert(key(t));
  uint64_t fresh = 0;
  std::vector<UpdateBatch> out(batches);
  for (UpdateBatch& batch : out) {
    while (batch.size() < batch_size) {
      Update u;
      if (rng.Chance(0.3)) {
        const size_t i = rng.Below(live.size());
        u.insert = false;
        u.triple = live[i];
        live[i] = live.back();
        live.pop_back();
        present.erase(key(u.triple));
      } else {
        if (rng.Chance(0.5)) {
          u.triple = {Ent("u", "NewStudent", fresh++), member,
                      depts[rng.Below(depts.size())]};
        } else {
          u.triple = {students[rng.Below(students.size())], takes,
                      courses[rng.Below(courses.size())]};
        }
        if (!present.insert(key(u.triple)).second) continue;
        live.push_back(u.triple);
      }
      batch.push_back(std::move(u));
    }
  }
  return out;
}

}  // namespace

Inputs GenerateData(const InputSpec& spec, uint64_t seed) {
  Inputs in;
  Prng rng(seed);
  in.triples = spec.graph == InputSpec::Graph::kLubm ? MakeLubm(spec.scale, rng)
                                                     : MakeDbpedia(spec.scale, rng);
  in.updates = MakeUpdates(in.triples, spec.update_batches, spec.batch_size, rng);
  return in;
}

std::vector<Query> GenerateQueries(const std::vector<TextTriple>& triples,
                                   const InputSpec& spec, uint64_t seed,
                                   const std::function<bool(const std::string&)>& accept) {
  Prng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  std::vector<Query> pool;
  if (spec.lubm_queries) pool = LubmQueries();
  const Adjacency g(triples);
  std::unordered_set<std::string> texts;
  for (const Query& q : pool) texts.insert(q.sparql);
  const size_t n = spec.generated_queries;
  size_t tries = 0;
  auto add = [&](const std::string& body) {
    if (++tries > 1000 * n) throw std::runtime_error("query generator stuck");
    if (body.empty()) return false;
    std::string text = "SELECT * WHERE { ";
    text += body;
    text += '}';
    if (texts.count(text) || !accept(text)) return false;
    texts.insert(text);
    std::string name = "g";
    name += std::to_string(pool.size());
    pool.push_back({std::move(name), std::move(text)});
    return true;
  };

  // WatDiv's basic testing templates: 7 star, 5 snowflake, 5 linear
  // (its 3 complex ones are left out; see README.md).
  const size_t snowflakes = n * 5 / 17, linears = n * 5 / 17;
  for (size_t i = snowflakes + linears; i < n;) i += add(MakeStar(g, rng));

  // Join edges: entity-to-entity edges other than rdf:type, one stratum
  // per property in IRI order.
  std::map<std::string, std::vector<Edge>> by_property;
  for (uint32_t s = 0; s < g.terms.size(); ++s) {
    for (const auto& [p, o] : g.out[s]) {
      if (o != s && g.terms[o][0] == '<' && g.props[p] != kType) {
        by_property[g.props[p]].push_back({s, p, o});
      }
    }
  }
  if (by_property.empty()) throw std::runtime_error("graph has no join edges");
  std::vector<const std::vector<Edge>*> strata;
  std::vector<size_t> sizes;
  for (const auto& [p, edges] : by_property) {
    strata.push_back(&edges);
    sizes.push_back(edges.size());
  }
  for (const bool snowflake : {true, false}) {
    const std::vector<size_t> quota = Allocate(sizes, snowflake ? snowflakes : linears);
    for (size_t j = 0; j < strata.size(); ++j) {
      for (size_t slot = 0; slot < quota[j]; ++slot) {
        // A stratum that yields no new query in 200 draws hands the slot
        // on to the next one.
        for (size_t at = j, draws = 0;; ++draws) {
          if (draws == 200) at = (at + 1) % strata.size(), draws = 0;
          const Edge& e = (*strata[at])[rng.Below(strata[at]->size())];
          if (add(snowflake ? MakeSnowflake(g, rng, e) : MakeLinear(g, rng, e))) break;
        }
      }
    }
  }
  return pool;
}

std::string Fingerprint(const Inputs& in) {
  uint64_t h = 0xcbf29ce484222325ULL;
  std::unordered_set<std::string> props;
  for (const TextTriple& t : in.triples) {
    h = Fnv1a(t.s, Fnv1a(t.p, Fnv1a(t.o, h)));
    props.insert(t.p);
  }
  for (const Query& q : in.pool) h = Fnv1a(q.sparql, h);
  size_t updates = 0;
  for (const UpdateBatch& b : in.updates) {
    for (const Update& u : b) {
      h = Fnv1a(u.insert ? "+" : "-", 1, h);
      h = Fnv1a(u.triple.s, Fnv1a(u.triple.p, Fnv1a(u.triple.o, h)));
      ++updates;
    }
  }
  std::ostringstream os;
  os << "inputs: triples=" << in.triples.size() << " properties="
     << props.size() << " queries=" << in.pool.size()
     << " update_batches=" << in.updates.size() << " updates=" << updates
     << " hash=" << std::hex << h;
  return os.str();
}

bool WriteNTriples(const std::vector<TextTriple>& triples,
                   const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  std::string buf;
  for (const TextTriple& t : triples) {
    buf += t.s + ' ' + t.p + ' ' + t.o + " .\n";
    if (buf.size() > (1 << 20)) out << buf, buf.clear();
  }
  out << buf;
  return static_cast<bool>(out);
}

bool WriteQueries(const std::vector<Query>& pool, const std::string& path) {
  std::ofstream out(path);
  for (const Query& q : pool) out << q.name << '\t' << q.sparql << '\n';
  return static_cast<bool>(out);
}

std::vector<Query> ReadQueries(const std::string& path) {
  std::ifstream in(path);
  std::vector<Query> pool;
  std::string line;
  while (std::getline(in, line)) {
    const size_t tab = line.find('\t');
    if (tab == std::string::npos) throw std::runtime_error("bad query line");
    pool.push_back({line.substr(0, tab), line.substr(tab + 1)});
  }
  return pool;
}

bool WriteUpdates(const std::vector<UpdateBatch>& batches,
                  const std::string& path) {
  std::ofstream out(path);
  for (size_t b = 0; b < batches.size(); ++b) {
    if (b > 0) out << '\n';
    for (const Update& u : batches[b]) {
      out << (u.insert ? '+' : '-') << ' ' << u.triple.s << ' ' << u.triple.p
          << ' ' << u.triple.o << " .\n";
    }
  }
  return static_cast<bool>(out);
}

std::vector<TextTriple> Replay(const std::vector<TextTriple>& seed,
                               const std::vector<UpdateBatch>& batches,
                               size_t upto) {
  auto key = [](const TextTriple& t) { return t.s + '\x1f' + t.p + '\x1f' + t.o; };
  std::unordered_map<std::string, TextTriple> live;
  live.reserve(seed.size() * 2);
  for (const TextTriple& t : seed) live.emplace(key(t), t);
  for (size_t b = 0; b < upto && b < batches.size(); ++b) {
    for (const Update& u : batches[b]) {
      if (u.insert) {
        live.emplace(key(u.triple), u.triple);
      } else {
        live.erase(key(u.triple));
      }
    }
  }
  std::vector<TextTriple> out;
  out.reserve(live.size());
  for (auto& [k, t] : live) out.push_back(std::move(t));
  return out;
}

}  // namespace perfbench
