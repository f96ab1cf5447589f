// Self-test of the harness: the reference evaluator, the percentile code,
// and every output check, each shown to pass on a correct output and to
// fail on a deliberately corrupted one.
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "inputs.h"
#include "reference.h"
#include "storage/segment_store.h"
#include "storage/segment_writer.h"

namespace perfbench {

namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::cerr << "selftest FAILED: " << what << "\n";
  }
}

const std::string kP = "<http://t/p>", kQ = "<http://t/q>", kR = "<http://t/r>";
const std::string kA = "<http://t/a>", kB = "<http://t/b>", kC = "<http://t/c>",
                  kD = "<http://t/d>";

AnswerDigest Rows(const std::vector<std::vector<std::string>>& rows, bool dedupe) {
  std::vector<uint64_t> hashes;
  for (const auto& row : rows) {
    std::vector<std::string_view> terms(row.begin(), row.end());
    hashes.push_back(RowHash(terms));
  }
  return DigestRows(hashes, dedupe);
}

void TestReference() {
  const std::vector<TextTriple> graph = {
      {kA, kP, kB}, {kA, kP, kC}, {kB, kQ, kD}, {kC, kQ, kD}, {kA, kR, "\"x\""}};
  RefStore ref(graph);
  // Variables in name order: x, y, z.
  const std::string path = "SELECT * WHERE { ?x " + kP + " ?y . ?y " + kQ + " ?z . }";
  Expect(ref.Evaluate(path) == Rows({{kA, kB, kD}, {kA, kC, kD}}, true), "two-edge path");
  Expect(!(ref.Evaluate(path) == Rows({{kA, kB, kD}}, true)), "path digest tells rows apart");
  // ?o sorts before ?p.
  Expect(ref.Evaluate("SELECT * WHERE { " + kA + " ?p ?o . }") ==
             Rows({{kB, kP}, {kC, kP}, {"\"x\"", kR}}, true),
         "variable predicate");
  Expect(ref.Evaluate("SELECT * WHERE { ?x " + kP + " <http://t/none> . }").rows == 0,
         "unknown constant gives no rows");
  Expect(ref.Evaluate("SELECT * WHERE { ?x " + kP + " ?y . ?x " + kR + " \"x\" . }") ==
             Rows({{kA, kB}, {kA, kC}}, true),
         "star with a literal constant");
  ref.Erase({kC, kQ, kD});
  Expect(ref.Evaluate(path) == Rows({{kA, kB, kD}}, true), "erase");
  ref.Insert({kC, kQ, kD});
  ref.Insert({kC, kQ, kD});  // a second insert is a no-op
  Expect(ref.Evaluate(path).rows == 2, "insert is set-like");
  Expect(ref.size() == graph.size(), "store size");
}

void TestPercentile() {
  Expect(Percentile({4, 1, 3, 2}, 0.5) == 2.5, "median of four");
  Expect(Percentile({4, 1, 3, 2}, 0.0) == 1 && Percentile({4, 1, 3, 2}, 1.0) == 4,
         "extremes");
  Expect(Percentile({7}, 0.99) == 7, "single value");
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  const double p99 = Percentile(hundred, 0.99);
  Expect(p99 > 99.0099 && p99 < 99.0101, "p99 of 1..100 is 99.01");
}

void TestAnswerCheck() {
  const AnswerDigest want = Rows({{kA, kB}, {kA, kC}}, true);
  Expect(Rows({{kA, kC}, {kA, kB}}, false) == want, "row order does not matter");
  Expect(!(Rows({{kA, kB}, {kA, kD}}, false) == want), "corrupted term is caught");
  Expect(!(Rows({{kA, kB}}, false) == want), "missing row is caught");
  Expect(!(Rows({{kA, kB}, {kA, kC}, {kA, kC}}, false) == want),
         "duplicated row is caught");
}

void TestTripleSets() {
  const std::vector<TextTriple> a = {{kA, kP, kB}, {kB, kQ, kD}, {kC, kQ, kD}};
  Expect(CheckSameTriples(a, {a[2], a[0], a[1]}, "t").empty(), "same set, other order");
  Expect(!CheckSameTriples(a, {a[0], a[1]}, "t").empty(), "missing triple is caught");
  Expect(!CheckSameTriples(a, {a[0], a[1], {kC, kQ, kA}}, "t").empty(),
         "altered triple is caught");
  // Replay: set semantics for the live-triples check.
  std::vector<UpdateBatch> batches(2);
  batches[0] = {{true, {kA, kR, kD}}, {false, {kB, kQ, kD}}, {true, a[0]}};
  batches[1] = {{false, {kD, kR, kA}}, {false, a[2]}};
  Expect(CheckSameTriples(Replay(a, batches, 1), {a[0], a[2], {kA, kR, kD}}, "r").empty(),
         "replay of one batch");
  Expect(CheckSameTriples(Replay(a, batches, 2), {a[0], {kA, kR, kD}}, "r").empty(),
         "replay of two batches");
  Expect(!CheckSameTriples(Replay(a, batches, 2), {a[0]}, "r").empty(),
         "live set missing an insert is caught");
}

void TestPartitionChecks() {
  // Vertices 0..3; sites own {0,1} and {2,3}; edge 1->2 crosses.
  const std::vector<uint32_t> part = {0, 0, 1, 1};
  const std::vector<IdTriple> graph = {{0, 0, 1}, {1, 1, 2}, {2, 0, 3}};
  const std::vector<std::vector<IdTriple>> sites = {{{0, 0, 1}, {1, 1, 2}},
                                                    {{1, 1, 2}, {2, 0, 3}}};
  Expect(CheckOwnership(2, 4, part, graph, sites).empty(), "ownership holds");
  Expect(!CheckOwnership(2, 4, {0, 0, 1, 2}, graph, sites).empty(),
         "owner outside [0, k) is caught");
  Expect(!CheckOwnership(2, 5, part, graph, sites).empty(), "unowned vertex is caught");
  Expect(!CheckOwnership(2, 4, {0, 1, 1, 1}, graph, sites).empty(),
         "moved vertex is caught");
  Expect(!CheckOwnership(2, 4, part, graph, {{{0, 0, 1}}, sites[1]}).empty(),
         "missing replica of a crossing edge is caught");
  Expect(!CheckOwnership(2, 4, part, graph, {sites[0], {{1, 1, 2}, {2, 0, 3}, {0, 0, 1}}})
              .empty(),
         "edge at a site owning neither endpoint is caught");

  Expect(CheckLcross(part, graph, 1, {true, false}).empty(), "|L_cross| holds");
  Expect(!CheckLcross(part, graph, 2, {}).empty(), "wrong |L_cross| is caught");
  Expect(!CheckLcross(part, graph, 1, {false, true}).empty(),
         "crossing internal property is caught");
}

void TestSegmentCheck(const std::string& dir) {
  std::filesystem::create_directories(dir);
  const std::vector<IdTriple> site = {{0, 0, 1}, {1, 1, 2}, {2, 0, 3}, {3, 1, 0}};
  auto scan_written = [&](const std::vector<IdTriple>& written) {
    std::vector<mpc::rdf::Triple> triples;
    for (const IdTriple& t : written) triples.emplace_back(t.s, t.p, t.o);
    mpc::storage::SegmentWriterOptions options;
    options.k = 1;
    options.num_properties = 2;
    options.num_vertices = 4;
    const std::string path = mpc::storage::SegmentPath(dir, 0);
    std::vector<IdTriple> scanned;
    if (!mpc::storage::WriteSegment(path, triples, options).ok()) {
      Expect(false, "write test segment");
      return scanned;
    }
    auto segment = mpc::storage::SegmentStore::Open(path);
    if (!segment.ok()) {
      Expect(false, "open test segment");
      return scanned;
    }
    segment->Scan(mpc::rdf::kInvalidVertex, mpc::rdf::kInvalidProperty,
                  mpc::rdf::kInvalidVertex, [&](const mpc::rdf::Triple& t) {
                    scanned.push_back({t.subject, t.property, t.object});
                    return true;
                  });
    return scanned;
  };
  Expect(CheckSegmentScan(site, scan_written(site)).empty(), "segment scan holds");
  Expect(!CheckSegmentScan(site, scan_written({site[0], site[1], site[2]})).empty(),
         "segment missing a triple is caught");
  Expect(!CheckSegmentScan(site, scan_written({site[0], site[1], site[2], {3, 0, 0}})).empty(),
         "segment with a wrong triple is caught");
  std::filesystem::remove_all(dir);
}

}  // namespace

int SelfTest(const std::string& dir) {
  TestReference();
  TestPercentile();
  TestAnswerCheck();
  TestTripleSets();
  TestPartitionChecks();
  TestSegmentCheck(dir);
  std::cout << (g_failures == 0 ? "selftest passed" : "selftest FAILED") << std::endl;
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench
