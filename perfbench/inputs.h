// Seeded input generation for the benchmark: graphs, query pools and
// update streams. Everything here is the benchmark's own code; the
// program only ever sees the files written from it.
#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

/// SplitMix64-seeded xorshift; the benchmark's only source of randomness.
class Prng {
 public:
  explicit Prng(uint64_t seed) : state_(seed * 0x9e3779b97f4a7c15ULL + 1) {}
  uint64_t Next();
  /// Uniform in [0, bound); bound > 0.
  uint64_t Below(uint64_t bound) { return Next() % bound; }
  /// Uniform in [lo, hi].
  uint64_t Between(uint64_t lo, uint64_t hi) { return lo + Below(hi - lo + 1); }
  bool Chance(double p) {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53 < p;
  }

 private:
  uint64_t state_;
};

/// One triple as written to N-Triples: full lexical terms (`<iri>` or
/// `"literal"`).
struct TextTriple {
  std::string s, p, o;
  bool operator==(const TextTriple&) const = default;
};

struct Query {
  std::string name;    // LQ1..LQ14, or g<N> for generated ones
  std::string sparql;  // one line
};

struct Update {
  bool insert = true;
  TextTriple triple;
};
using UpdateBatch = std::vector<Update>;

/// The inputs of one workload run, all derived from (workload, seed).
struct Inputs {
  std::vector<TextTriple> triples;  // distinct
  std::vector<Query> pool;          // distinct query texts
  std::vector<UpdateBatch> updates;
};

struct InputSpec {
  enum class Graph { kLubm, kDbpedia } graph = Graph::kLubm;
  uint32_t scale = 100;  // universities (LUBM) or entity clusters (DBpedia)
  size_t generated_queries = 1000;
  bool lubm_queries = false;  // add LQ1..LQ14 to the pool
  size_t update_batches = 0;
  size_t batch_size = 50;
};

/// The graph and the update stream.
Inputs GenerateData(const InputSpec& spec, uint64_t seed);

/// The query pool: LQ1..LQ14 when asked for, plus `generated_queries`
/// distinct generated ones that `accept` takes. The generated shapes
/// come in the proportions of WatDiv's basic testing templates (7 star,
/// 5 snowflake, 5 linear). A snowflake's joining edge and a linear
/// query's middle edge are drawn per property, in proportion to the
/// property's share of the graph's entity-to-entity edges, so every
/// seed gives each property the same share of joins.
std::vector<Query> GenerateQueries(const std::vector<TextTriple>& triples,
                                   const InputSpec& spec, uint64_t seed,
                                   const std::function<bool(const std::string&)>& accept);

/// FNV-1a, 64 bit.
uint64_t Fnv1a(const void* data, size_t n, uint64_t h = 0xcbf29ce484222325ULL);
inline uint64_t Fnv1a(const std::string& s,
                      uint64_t h = 0xcbf29ce484222325ULL) {
  return Fnv1a(s.data(), s.size(), h);
}

/// Counts and a hash over everything the program is fed, printed by
/// every run so that a change to the inputs shows.
std::string Fingerprint(const Inputs& inputs);

bool WriteNTriples(const std::vector<TextTriple>& triples,
                   const std::string& path);
bool WriteQueries(const std::vector<Query>& pool, const std::string& path);
std::vector<Query> ReadQueries(const std::string& path);
/// The program's update-log format: `+`/`-` N-Triples lines, batches
/// separated by blank lines.
bool WriteUpdates(const std::vector<UpdateBatch>& batches,
                  const std::string& path);

/// Live triple set after replaying `batches[0, upto)` onto `seed`, with
/// set semantics (an insert of a present triple and a delete of an
/// absent one are no-ops).
std::vector<TextTriple> Replay(const std::vector<TextTriple>& seed,
                               const std::vector<UpdateBatch>& batches,
                               size_t upto);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
