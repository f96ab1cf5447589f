#include "reference.h"

#include <algorithm>
#include <array>
#include <sstream>
#include <stdexcept>

namespace perfbench {

namespace {
constexpr uint32_t kUnbound = UINT32_MAX;

uint64_t Mix(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

bool IsVar(const std::string& term) { return !term.empty() && term[0] == '?'; }
}  // namespace

uint64_t RowHash(const std::vector<std::string_view>& terms) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (std::string_view t : terms) {
    h = Fnv1a(t.data(), t.size(), h);
    h = Fnv1a("\x1f", 1, h);
  }
  return h;
}

AnswerDigest DigestRows(std::vector<uint64_t> row_hashes, bool dedupe) {
  std::sort(row_hashes.begin(), row_hashes.end());
  if (dedupe) {
    row_hashes.erase(std::unique(row_hashes.begin(), row_hashes.end()),
                     row_hashes.end());
  }
  AnswerDigest d;
  d.rows = row_hashes.size();
  d.hash = Fnv1a(row_hashes.data(), row_hashes.size() * sizeof(uint64_t),
                 Mix(d.rows));
  return d;
}

std::vector<RefPattern> ParsePatterns(const std::string& sparql) {
  const size_t open = sparql.find('{'), close = sparql.rfind('}');
  if (open == std::string::npos || close == std::string::npos || close < open) {
    throw std::runtime_error("reference parser: no WHERE block in " + sparql);
  }
  std::istringstream in(sparql.substr(open + 1, close - open - 1));
  std::vector<RefPattern> patterns;
  std::string s, p, o, dot;
  while (in >> s >> p >> o >> dot) {
    if (dot != ".") throw std::runtime_error("reference parser: " + sparql);
    patterns.push_back({s, p, o});
  }
  return patterns;
}

std::vector<std::string> SortedVariables(const std::vector<RefPattern>& q) {
  std::vector<std::string> vars;
  for (const RefPattern& t : q) {
    for (const std::string* term : {&t.s, &t.p, &t.o}) {
      if (IsVar(*term)) vars.push_back(term->substr(1));
    }
  }
  std::sort(vars.begin(), vars.end());
  vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
  return vars;
}

RefStore::RefStore(const std::vector<TextTriple>& triples) {
  triples_.reserve(triples.size());
  for (const TextTriple& t : triples) Insert(t);
}

uint32_t RefStore::Intern(const std::string& term) {
  auto [it, fresh] = ids_.emplace(term, static_cast<uint32_t>(terms_.size()));
  if (fresh) terms_.push_back(term);
  return it->second;
}

void RefStore::Insert(const TextTriple& t) {
  const Key k{Intern(t.s), Intern(t.p), Intern(t.o)};
  if (!triples_.insert(k).second) return;
  by_ps_[Pack(k.p, k.s)].push_back({k.o, 0});
  by_po_[Pack(k.p, k.o)].push_back({k.s, 0});
  by_p_[k.p].push_back({k.s, k.o});
  by_s_[k.s].push_back({k.p, k.o});
  by_o_[k.o].push_back({k.s, k.p});
}

void RefStore::Remove(Pairs& v, std::pair<uint32_t, uint32_t> x) {
  auto it = std::find(v.begin(), v.end(), x);
  if (it == v.end()) throw std::logic_error("reference index out of sync");
  *it = v.back();
  v.pop_back();
}

void RefStore::Erase(const TextTriple& t) {
  auto s = ids_.find(t.s), p = ids_.find(t.p), o = ids_.find(t.o);
  if (s == ids_.end() || p == ids_.end() || o == ids_.end()) return;
  const Key k{s->second, p->second, o->second};
  if (triples_.erase(k) == 0) return;
  Remove(by_ps_[Pack(k.p, k.s)], {k.o, 0});
  Remove(by_po_[Pack(k.p, k.o)], {k.s, 0});
  Remove(by_p_[k.p], {k.s, k.o});
  Remove(by_s_[k.s], {k.p, k.o});
  Remove(by_o_[k.o], {k.s, k.p});
}

AnswerDigest RefStore::Evaluate(const std::string& sparql, size_t* work) const {
  size_t visited = 0;
  const std::vector<RefPattern> query = ParsePatterns(sparql);
  const std::vector<std::string> vars = SortedVariables(query);
  // A position is either a variable (index into `vars`) or a constant
  // term id; a constant the graph never saw makes the answer empty.
  struct Pos {
    bool var;
    uint32_t id;
  };
  std::vector<std::array<Pos, 3>> pats;
  for (const RefPattern& t : query) {
    std::array<Pos, 3> pos;
    const std::string* terms[3] = {&t.s, &t.p, &t.o};
    for (int i = 0; i < 3; ++i) {
      if (IsVar(*terms[i])) {
        pos[i] = {true, static_cast<uint32_t>(
                            std::lower_bound(vars.begin(), vars.end(),
                                             terms[i]->substr(1)) -
                            vars.begin())};
      } else {
        auto it = ids_.find(*terms[i]);
        if (it == ids_.end()) return DigestRows({}, true);
        pos[i] = {false, it->second};
      }
    }
    pats.push_back(pos);
  }

  std::vector<uint32_t> binding(vars.size(), kUnbound);
  std::vector<bool> done(pats.size(), false);
  std::vector<uint64_t> rows;
  static const Pairs kEmpty;
  auto find = [](const auto& map, auto key) -> const Pairs& {
    auto it = map.find(key);
    return it == map.end() ? kEmpty : it->second;
  };

  auto recurse = [&](auto&& self, size_t depth) -> void {
    if (depth == pats.size()) {
      std::vector<std::string_view> terms;
      for (uint32_t b : binding) terms.push_back(terms_[b]);
      rows.push_back(RowHash(terms));
      return;
    }
    // Most-bound pattern next.
    size_t best = SIZE_MAX;
    int best_bound = -1;
    for (size_t i = 0; i < pats.size(); ++i) {
      if (done[i]) continue;
      int bound = 0;
      for (const Pos& p : pats[i]) bound += !p.var || binding[p.id] != kUnbound;
      if (bound > best_bound) best = i, best_bound = bound;
    }
    const std::array<Pos, 3>& pat = pats[best];
    uint32_t val[3];
    for (int i = 0; i < 3; ++i) {
      val[i] = pat[i].var ? binding[pat[i].id] : pat[i].id;
    }
    done[best] = true;
    auto visit = [&](uint32_t s, uint32_t p, uint32_t o) {
      ++visited;
      const uint32_t got[3] = {s, p, o};
      std::vector<uint32_t> bound_here;
      bool ok = true;
      for (int i = 0; i < 3 && ok; ++i) {
        if (!pat[i].var) continue;
        uint32_t& b = binding[pat[i].id];
        if (b == kUnbound) {
          b = got[i];
          bound_here.push_back(pat[i].id);
        } else {
          ok = b == got[i];
        }
      }
      if (ok) self(self, depth + 1);
      for (uint32_t v : bound_here) binding[v] = kUnbound;
    };
    const uint32_t s = val[0], p = val[1], o = val[2];
    if (s != kUnbound && p != kUnbound && o != kUnbound) {
      if (triples_.count(Key{s, p, o})) visit(s, p, o);
    } else if (p != kUnbound && s != kUnbound) {
      for (auto [obj, _] : find(by_ps_, Pack(p, s))) visit(s, p, obj);
    } else if (p != kUnbound && o != kUnbound) {
      for (auto [sub, _] : find(by_po_, Pack(p, o))) visit(sub, p, o);
    } else if (p != kUnbound) {
      for (auto [sub, obj] : find(by_p_, p)) visit(sub, p, obj);
    } else if (s != kUnbound) {
      for (auto [prop, obj] : find(by_s_, s)) {
        if (o == kUnbound || obj == o) visit(s, prop, obj);
      }
    } else if (o != kUnbound) {
      for (auto [sub, prop] : find(by_o_, o)) visit(sub, prop, o);
    } else {
      for (const Key& k : triples_) visit(k.s, k.p, k.o);
    }
    done[best] = false;
  };
  recurse(recurse, 0);
  if (work != nullptr) *work = visited;
  return DigestRows(std::move(rows), /*dedupe=*/true);
}

void TripleDigest::Add(uint32_t s, uint32_t p, uint32_t o) {
  const uint64_t h = Mix((static_cast<uint64_t>(s) << 32 | o) ^ Mix(p + 1));
  ++count;
  sum += h;
  x ^= Mix(h);
}

namespace {
std::pair<uint64_t, uint64_t> TextKey(const TextTriple& t) {
  uint64_t a = Fnv1a(t.o, Fnv1a(t.p, Fnv1a(t.s)));
  uint64_t b = Fnv1a(t.s, Fnv1a(t.p, Fnv1a(t.o, 0x84222325cbf29ce4ULL)));
  return {a, b};
}
}  // namespace

std::string CheckSameTriples(const std::vector<TextTriple>& expected,
                             const std::vector<TextTriple>& got,
                             const char* what) {
  std::vector<std::pair<uint64_t, uint64_t>> a, b;
  a.reserve(expected.size());
  b.reserve(got.size());
  for (const TextTriple& t : expected) a.push_back(TextKey(t));
  for (const TextTriple& t : got) b.push_back(TextKey(t));
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  if (a == b) return "";
  return std::string(what) + ": expected " + std::to_string(a.size()) +
         " triples, got " + std::to_string(b.size()) + " (sets differ)";
}

std::string CheckOwnership(uint32_t k, size_t num_vertices,
                           const std::vector<uint32_t>& part,
                           const std::vector<IdTriple>& graph,
                           const std::vector<std::vector<IdTriple>>& sites) {
  if (part.size() != num_vertices) {
    return "assignment covers " + std::to_string(part.size()) + " of " +
           std::to_string(num_vertices) + " vertices";
  }
  for (size_t v = 0; v < part.size(); ++v) {
    if (part[v] >= k) {
      return "vertex " + std::to_string(v) + " owned by site " +
             std::to_string(part[v]) + " >= k";
    }
  }
  if (sites.size() != k) return "expected " + std::to_string(k) + " sites";
  std::vector<TripleDigest> want(k);
  for (const IdTriple& t : graph) {
    if (t.s >= num_vertices || t.o >= num_vertices) return "edge vertex out of range";
    want[part[t.s]].Add(t.s, t.p, t.o);
    if (part[t.o] != part[t.s]) want[part[t.o]].Add(t.s, t.p, t.o);
  }
  for (uint32_t i = 0; i < k; ++i) {
    TripleDigest have;
    for (const IdTriple& t : sites[i]) have.Add(t.s, t.p, t.o);
    if (!(have == want[i])) {
      return "site " + std::to_string(i) + " holds " +
             std::to_string(have.count) + " edges, expected the " +
             std::to_string(want[i].count) + " with an endpoint it owns";
    }
  }
  return "";
}

std::string CheckLcross(const std::vector<uint32_t>& part,
                        const std::vector<IdTriple>& graph, size_t reported,
                        const std::vector<bool>& internal) {
  std::unordered_set<uint32_t> crossing;
  for (const IdTriple& t : graph) {
    if (part[t.s] != part[t.o]) crossing.insert(t.p);
  }
  if (crossing.size() != reported) {
    return "|L_cross| recomputed " + std::to_string(crossing.size()) +
           ", program reports " + std::to_string(reported);
  }
  for (uint32_t p : crossing) {
    if (p < internal.size() && internal[p]) {
      return "internal property " + std::to_string(p) +
             " has a crossing edge (Theorem 2)";
    }
  }
  return "";
}

std::string CheckSegmentScan(const std::vector<IdTriple>& site,
                             const std::vector<IdTriple>& scanned) {
  TripleDigest want, have;
  for (const IdTriple& t : site) want.Add(t.s, t.p, t.o);
  for (const IdTriple& t : scanned) have.Add(t.s, t.p, t.o);
  if (want == have) return "";
  return "segment scan returned " + std::to_string(have.count) +
         " triples, site holds " + std::to_string(want.count);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

}  // namespace perfbench
