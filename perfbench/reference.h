// The benchmark's own reference computations and output checks, written
// apart from the program: a whole-graph BGP evaluator, order-independent
// digests of answers and triple sets, the partition checks and the
// percentile code. Nothing here links against the program.
#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "inputs.h"

namespace perfbench {

/// Hash of one answer row: the terms bound to the query's variables,
/// taken in ascending order of variable name.
uint64_t RowHash(const std::vector<std::string_view>& terms);

/// Digest of an answer: row count plus the sorted row hashes. `dedupe`
/// applies set semantics first (the reference side); the program's side
/// is not de-duplicated, so a repeated row shows as a mismatch.
struct AnswerDigest {
  size_t rows = 0;
  uint64_t hash = 0;
  bool operator==(const AnswerDigest&) const = default;
};
AnswerDigest DigestRows(std::vector<uint64_t> row_hashes, bool dedupe);

/// A query as the reference reads it: `SELECT * WHERE { s p o . ... }`
/// with whitespace-free terms.
struct RefPattern {
  std::string s, p, o;
};
std::vector<RefPattern> ParsePatterns(const std::string& sparql);
/// Variable names (without `?`) in ascending order.
std::vector<std::string> SortedVariables(const std::vector<RefPattern>& q);

/// Whole-graph triple store with insert and erase, and a backtracking
/// BGP evaluator over it.
class RefStore {
 public:
  explicit RefStore(const std::vector<TextTriple>& triples);
  void Insert(const TextTriple& t);
  void Erase(const TextTriple& t);
  size_t size() const { return triples_.size(); }
  /// `work`, when set, receives the number of candidate triples visited.
  AnswerDigest Evaluate(const std::string& sparql, size_t* work = nullptr) const;

 private:
  struct Key {
    uint32_t s, p, o;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      uint64_t h = (static_cast<uint64_t>(k.s) << 32 | k.o) ^
                   (static_cast<uint64_t>(k.p) * 0x9e3779b97f4a7c15ULL);
      h ^= h >> 31;
      return h * 0xbf58476d1ce4e5b9ULL;
    }
  };
  using Pairs = std::vector<std::pair<uint32_t, uint32_t>>;
  uint32_t Intern(const std::string& term);
  static uint64_t Pack(uint32_t a, uint32_t b) {
    return static_cast<uint64_t>(a) << 32 | b;
  }
  static void Remove(Pairs& v, std::pair<uint32_t, uint32_t> x);

  std::unordered_map<std::string, uint32_t> ids_;
  std::vector<std::string> terms_;
  std::unordered_set<Key, KeyHash> triples_;
  std::unordered_map<uint64_t, Pairs> by_ps_;  // (p, s) -> (o, 0)
  std::unordered_map<uint64_t, Pairs> by_po_;  // (p, o) -> (s, 0)
  std::unordered_map<uint32_t, Pairs> by_p_;   // p -> (s, o)
  std::unordered_map<uint32_t, Pairs> by_s_;   // s -> (p, o)
  std::unordered_map<uint32_t, Pairs> by_o_;   // o -> (s, p)
};

/// Order-independent digest of a multiset of id triples.
struct TripleDigest {
  uint64_t count = 0, sum = 0, x = 0;
  void Add(uint32_t s, uint32_t p, uint32_t o);
  bool operator==(const TripleDigest&) const = default;
};

// Each check returns "" when it holds, else what is wrong.

/// The program's parsed graph is exactly the generated triple set.
std::string CheckSameTriples(const std::vector<TextTriple>& expected,
                             const std::vector<TextTriple>& got,
                             const char* what);

struct IdTriple {
  uint32_t s, p, o;
};

/// Every vertex has exactly one owner in [0, k), and site i holds
/// exactly the edges with an endpoint owned by i.
std::string CheckOwnership(uint32_t k, size_t num_vertices,
                           const std::vector<uint32_t>& part,
                           const std::vector<IdTriple>& graph,
                           const std::vector<std::vector<IdTriple>>& sites);

/// |L_cross| recomputed from the assignment equals `reported`, and no
/// property marked internal has a crossing edge (Theorem 2).
std::string CheckLcross(const std::vector<uint32_t>& part,
                        const std::vector<IdTriple>& graph, size_t reported,
                        const std::vector<bool>& internal);

/// A full scan of a segment returned exactly its site's triples.
std::string CheckSegmentScan(const std::vector<IdTriple>& site,
                             const std::vector<IdTriple>& scanned);

/// Linear interpolation between order statistics; q in [0, 1].
double Percentile(std::vector<double> values, double q);

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H_
