// Benchmark harness for both pipelines of the program: offline
// partitioning (parse, MPC, save, pack) and online serving (QueryService
// over remote site processes).
//
//   perfbench_harness gen --workload W --seed N --dir D
//       writes the seeded inputs into D (and, for the serving workloads,
//       the partition directory the service starts from)
//   perfbench_harness run --workload W --seed N --seconds S --trace 0|1
//                         --dir D --mpc PATH
//       measures; the last stdout line is the result JSON
//   perfbench_harness selftest
//
// perfbench/run.py builds the program and drives these; see README.md.
#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "dynamic/incremental_maintainer.h"
#include "dynamic/update_log.h"
#include "exec/cluster.h"
#include "exec/decomposer.h"
#include "exec/distributed_executor.h"
#include "exec/join.h"
#include "exec/remote_cluster.h"
#include "inputs.h"
#include "metis/partitioner.h"
#include "mpc/coarsener.h"
#include "mpc/mpc_partitioner.h"
#include "mpc/selector.h"
#include "obs/metrics.h"
#include "partition/partition_io.h"
#include "rdf/ntriples.h"
#include "reference.h"
#include "serve/query_service.h"
#include "serve/serving_state.h"
#include "sparql/parser.h"
#include "storage/segment_store.h"
#include "storage/segment_writer.h"

namespace perfbench {
int SelfTest(const std::string& dir);  // selftest.cc
}

namespace {

using namespace mpc;
using perfbench::AnswerDigest;
using perfbench::IdTriple;
using perfbench::InputSpec;
using perfbench::TextTriple;
using Clock = std::chrono::steady_clock;

const Clock::time_point g_process_start = Clock::now();

double Seconds(Clock::time_point from) {
  return std::chrono::duration<double>(Clock::now() - from).count();
}

/// Times `fn()` in milliseconds.
template <typename Fn>
double TimeMs(Fn&& fn) {
  const Clock::time_point t0 = Clock::now();
  fn();
  return Seconds(t0) * 1e3;
}

[[noreturn]] void Fail(const std::string& what) {
  throw std::runtime_error(what);
}

template <typename T>
T Must(Result<T> r, const std::string& what) {
  if (!r.ok()) Fail(what + ": " + r.status().ToString());
  return std::move(*r);
}

void Must(const Status& s, const std::string& what) {
  if (!s.ok()) Fail(what + ": " + s.ToString());
}

// ---------------------------------------------------------------------------
// Workloads. All use the paper's k = 8 and epsilon = 0.1 with MPC.

enum class Kind { kOffline, kServeRemote };

struct Workload {
  std::string name;
  Kind kind;
  InputSpec spec;
};

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kAll = [] {
    std::vector<Workload> w(3);
    w[0].name = "offline-dbpedia";
    w[0].kind = Kind::kOffline;
    w[0].spec.graph = InputSpec::Graph::kDbpedia;
    w[0].spec.scale = 400;
    w[0].spec.generated_queries = 4000;
    w[0].spec.update_batches = 10;

    w[1].name = "offline-lubm";
    w[1].kind = Kind::kOffline;
    w[1].spec.scale = 1000;
    w[1].spec.generated_queries = 1000;
    w[1].spec.update_batches = 10;

    // Pool of 1,500 distinct queries: larger than the result cache's
    // 1,024 entries, so cyclic rounds never hit it.
    w[2].name = "serve-remote";
    w[2].kind = Kind::kServeRemote;
    w[2].spec.scale = 100;
    w[2].spec.generated_queries = 1486;
    w[2].spec.lubm_queries = true;
    w[2].spec.update_batches = 10;
    return w;
  }();
  return kAll;
}

const Workload& FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (w.name == name) return w;
  }
  Fail("unknown workload: " + name);
}

constexpr uint32_t kSites = 8;
constexpr int kClients = 4;
constexpr size_t kMaxQueryWork = 5000;
constexpr size_t kTracedQueries = 300;
constexpr size_t kSubjectScans = 200;

core::MpcOptions MpcOpts() {
  core::MpcOptions o;
  o.base.k = kSites;
  o.base.epsilon = 0.1;
  o.base.seed = 1;
  o.base.num_threads = 0;  // the program's default: every hardware thread
  return o;
}

struct Paths {
  std::string dir;
  std::string graph() const { return dir + "/graph.nt"; }
  std::string queries() const { return dir + "/queries.tsv"; }
  std::string updates() const { return dir + "/updates.txt"; }
  std::string parts() const { return dir + "/parts"; }
  std::string offline() const { return dir + "/offline.txt"; }
  std::string sockets() const { return dir + "/sock"; }
};

// ---------------------------------------------------------------------------
// Offline pipeline pieces shared by the workloads.

rdf::RdfGraph ParseGraph(const std::string& path) {
  rdf::GraphBuilder builder;
  Must(rdf::NTriplesParser::ParseFile(path, &builder, /*num_threads=*/0),
       "parse " + path);
  return builder.Build();
}

/// Writes the k segments as `mpc pack` does; returns their bytes.
uint64_t Pack(const rdf::RdfGraph& graph, const partition::Partitioning& part,
              const std::string& dir) {
  const uint64_t fingerprint =
      Must(partition::PartitionIo::Fingerprint(dir), "fingerprint");
  uint64_t bytes = 0;
  for (uint32_t i = 0; i < part.k(); ++i) {
    const partition::Partition& p = part.partition(i);
    std::vector<rdf::Triple> triples = p.internal_edges;
    triples.insert(triples.end(), p.crossing_edges.begin(), p.crossing_edges.end());
    storage::SegmentWriterOptions options;
    options.site = i;
    options.k = part.k();
    options.num_properties = graph.num_properties();
    options.num_vertices = graph.num_vertices();
    options.partition_fingerprint = fingerprint;
    storage::SegmentWriteStats stats;
    Must(storage::WriteSegment(storage::SegmentPath(dir, i), std::move(triples),
                               options, &stats),
         "write segment");
    bytes += stats.file_bytes;
  }
  return bytes;
}

uint64_t SegmentBytes(const std::string& dir) {
  uint64_t bytes = 0;
  for (uint32_t i = 0; i < kSites; ++i) {
    bytes += std::filesystem::file_size(storage::SegmentPath(dir, i));
  }
  return bytes;
}

double ReplicationRatio(const partition::Partitioning& part, size_t edges) {
  size_t stored = 0;
  for (const partition::Partition& p : part.partitions()) stored += p.num_triples();
  return static_cast<double>(stored) / static_cast<double>(edges);
}

// ---------------------------------------------------------------------------
// Queries: the program's variable numbering, for decoding its bindings.

struct PoolQuery {
  std::string name;
  std::string text;
  std::vector<int> sorted_pos;     // program var id -> position by name
  std::vector<uint8_t> pred_var;   // program var id -> bound to a property
};

std::vector<PoolQuery> LoadPool(const std::string& path) {
  std::vector<PoolQuery> pool;
  for (perfbench::Query& q : perfbench::ReadQueries(path)) {
    PoolQuery pq;
    pq.name = std::move(q.name);
    pq.text = std::move(q.sparql);
    const sparql::QueryGraph parsed =
        Must(sparql::SparqlParser::Parse(pq.text), "parse " + pq.text);
    std::vector<std::string> names = parsed.variables();
    std::vector<std::string> sorted = names;
    std::sort(sorted.begin(), sorted.end());
    for (const std::string& n : names) {
      pq.sorted_pos.push_back(static_cast<int>(
          std::lower_bound(sorted.begin(), sorted.end(), n) - sorted.begin()));
    }
    pq.pred_var.assign(names.size(), 0);
    for (const sparql::TriplePattern& t : parsed.patterns()) {
      if (t.predicate.is_variable()) pq.pred_var[t.predicate.var_id] = 1;
    }
    pool.push_back(std::move(pq));
  }
  return pool;
}

AnswerDigest DigestBindings(const PoolQuery& q, const store::BindingTable& table,
                            const rdf::RdfGraph& graph) {
  std::vector<uint64_t> rows;
  rows.reserve(table.rows.size());
  std::vector<std::string_view> terms(table.var_ids.size());
  for (const std::vector<uint32_t>& row : table.rows) {
    for (size_t c = 0; c < table.var_ids.size(); ++c) {
      const uint32_t var = table.var_ids[c];
      terms[q.sorted_pos[var]] = q.pred_var[var] ? graph.PropertyName(row[c])
                                                 : graph.VertexName(row[c]);
    }
    rows.push_back(perfbench::RowHash(terms));
  }
  return perfbench::DigestRows(std::move(rows), /*dedupe=*/false);
}

/// The round order: a seeded permutation of the pool, the same every
/// round.
std::vector<size_t> Sequence(size_t n, uint64_t seed) {
  std::vector<size_t> seq(n);
  for (size_t i = 0; i < n; ++i) seq[i] = i;
  perfbench::Prng rng(seed ^ 0x5eed);
  for (size_t i = n; i > 1; --i) std::swap(seq[i - 1], seq[rng.Below(i)]);
  return seq;
}

// ---------------------------------------------------------------------------
// Result collection.

struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void Check(const std::string& error) {
    if (error.empty()) return;
    correct = false;
    if (errors.size() < 20) errors.push_back(error);
  }
  void Print() const {
    for (const std::string& e : errors) std::cerr << "CHECK FAILED: " << e << "\n";
    std::ostringstream os;
    os.precision(17);
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
      os << (i ? ", " : "") << "\"" << metrics[i].first
         << "\": {\"value\": " << metrics[i].second.first << ", \"unit\": \""
         << metrics[i].second.second << "\"}";
    }
    os << "}}";
    std::cout << os.str() << std::endl;
  }
};

double Median(const std::vector<double>& v) { return perfbench::Percentile(v, 0.5); }

/// Offline passes are timed by the fastest one: segment writing ends in
/// fsync, whose latency on a shared disk comes in stalls of whole
/// seconds, and passes of tens of milliseconds move with every burst of
/// load from outside.
double Min(const std::vector<double>& v) { return *std::min_element(v.begin(), v.end()); }

double Mean(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return v.empty() ? 0 : s / static_cast<double>(v.size());
}

/// Peak resident set of a process, from /proc/<pid>/status, in MiB.
double PeakRssMib(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  Fail("no VmHWM for pid " + pid);
}

// ---------------------------------------------------------------------------
// Checks of the program's outputs against the generated inputs.

std::vector<IdTriple> ToIds(const std::vector<rdf::Triple>& triples) {
  std::vector<IdTriple> out;
  out.reserve(triples.size());
  for (const rdf::Triple& t : triples) out.push_back({t.subject, t.property, t.object});
  return out;
}

std::vector<TextTriple> ToText(const rdf::RdfGraph& graph,
                               const std::vector<rdf::Triple>& triples) {
  std::vector<TextTriple> out;
  out.reserve(triples.size());
  for (const rdf::Triple& t : triples) {
    out.push_back({graph.VertexName(t.subject), graph.PropertyName(t.property),
                   graph.VertexName(t.object)});
  }
  return out;
}

/// Ownership, |L_cross| with Theorem 2, and a full scan of every segment
/// in `dir` against its site's triples.
void CheckPartitioning(const rdf::RdfGraph& graph,
                       const partition::Partitioning& part,
                       const std::vector<bool>& internal, const std::string& dir,
                       Report* report) {
  const std::vector<IdTriple> edges = ToIds(graph.triples());
  std::vector<std::vector<IdTriple>> sites;
  for (const partition::Partition& p : part.partitions()) {
    std::vector<IdTriple> site = ToIds(p.internal_edges);
    const std::vector<IdTriple> crossing = ToIds(p.crossing_edges);
    site.insert(site.end(), crossing.begin(), crossing.end());
    sites.push_back(std::move(site));
  }
  report->Check(perfbench::CheckOwnership(part.k(), graph.num_vertices(),
                                          part.assignment().part, edges, sites));
  report->Check(perfbench::CheckLcross(part.assignment().part, edges,
                                       part.num_crossing_properties(), internal));
  for (uint32_t i = 0; i < part.k(); ++i) {
    storage::SegmentStore segment =
        Must(storage::SegmentStore::Open(storage::SegmentPath(dir, i)), "open segment");
    std::vector<IdTriple> scanned;
    segment.Scan(rdf::kInvalidVertex, rdf::kInvalidProperty, rdf::kInvalidVertex,
                 [&scanned](const rdf::Triple& t) {
                   scanned.push_back({t.subject, t.property, t.object});
                   return true;
                 });
    const std::string error = perfbench::CheckSegmentScan(sites[i], scanned);
    report->Check(error.empty() ? "" : "site " + std::to_string(i) + ": " + error);
  }
}

/// One served answer: which query, at which generation, and its digest.
struct Served {
  uint32_t query;
  uint64_t generation;
  AnswerDigest digest;
};

/// Checks served answers against the reference evaluation over the
/// whole graph. No run publishes a second generation, so every answer
/// must come from `generation`; all answers to one query must agree, and
/// each distinct query is evaluated once.
void CheckAnswers(const std::vector<TextTriple>& triples, uint64_t generation,
                  const std::vector<PoolQuery>& pool, const std::vector<Served>& served,
                  Report* report) {
  std::map<uint32_t, AnswerDigest> answers;
  for (const Served& s : served) {
    if (s.generation != generation) {
      report->Check("query " + pool[s.query].name + " answered from generation " +
                    std::to_string(s.generation));
    }
    auto [it, fresh] = answers.emplace(s.query, s.digest);
    if (!fresh && !(it->second == s.digest)) {
      report->Check("query " + pool[s.query].name + " answered differently");
    }
  }
  const perfbench::RefStore ref(triples);
  for (const auto& [q, got] : answers) {
    const AnswerDigest want = ref.Evaluate(pool[q].text);
    if (!(want == got)) {
      report->Check("query " + pool[q].name + ": " + std::to_string(got.rows) +
                    " rows, reference has " + std::to_string(want.rows) + " (" +
                    pool[q].text + ")");
    }
  }
}

// ---------------------------------------------------------------------------
// The closed loop: `clients` threads, each sending its next query only
// after the previous reply, over whole rounds of the sequence.

struct Sample {
  uint32_t round;
  double start_s, end_s;  // since the loop started
  bool nonieq;
  double ms() const { return (end_s - start_s) * 1e3; }
};

struct LoopResult {
  std::vector<Sample> samples;
  std::vector<Served> served;
  uint64_t failed = 0;
};

/// Round r >= 1 starts only if `keep_going(r)`.
template <typename KeepGoing>
LoopResult ClosedLoop(serve::QueryService& service, const std::vector<PoolQuery>& pool,
                      const std::vector<size_t>& sequence, int clients,
                      KeepGoing keep_going) {
  std::mutex mu;
  size_t next = 0, limit = 0;
  bool stopped = false;
  LoopResult result;
  const Clock::time_point start = Clock::now();
  auto take = [&](size_t* index) {
    std::lock_guard<std::mutex> lock(mu);
    // A new round starts only as a whole, and only while wanted.
    if (next == limit && !stopped) {
      if (limit > 0 && !keep_going(limit / sequence.size())) {
        stopped = true;
      } else {
        limit += sequence.size();
      }
    }
    if (next == limit) return false;
    *index = next++;
    return true;
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      std::vector<Sample> samples;
      std::vector<Served> served;
      uint64_t failed = 0;
      size_t i = 0;
      while (take(&i)) {
        const uint32_t q = static_cast<uint32_t>(sequence[i % sequence.size()]);
        const double t0 = Seconds(start);
        Result<exec::QueryResponse> r =
            service.Execute(exec::QueryRequest::FromText(pool[q].text));
        const double t1 = Seconds(start);
        if (!r.ok()) {
          ++failed;
        } else {
          samples.push_back({static_cast<uint32_t>(i / sequence.size()), t0, t1,
                             r->stats.cls == exec::IeqClass::kNonIeq});
          served.push_back({q, r->generation,
                            DigestBindings(pool[q], r->bindings, service.state()->graph())});
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      result.samples.insert(result.samples.end(), samples.begin(), samples.end());
      result.served.insert(result.served.end(), served.begin(), served.end());
      result.failed += failed;
    });
  }
  for (std::thread& t : threads) t.join();
  return result;
}

/// Query metrics from the best of the run's windows of whole rounds, each
/// window at least 1,000 queries (so that its p95 has 50 samples beyond
/// it). Load from outside only ever slows a window, and on a shared host
/// it drifts over seconds: the median window of the memory-bound non-IEQ
/// queries moved by up to 30% between runs of one seed, the best one
/// less. The share of queries the program classifies non-IEQ is an
/// output of the run, printed on standard error.
void ReportQueries(const LoopResult& loop, size_t pool_size, Report* report) {
  report->attempted += loop.samples.size() + loop.failed;
  report->failed += loop.failed;
  const uint32_t per_window = static_cast<uint32_t>((1000 + pool_size - 1) / pool_size);
  uint32_t rounds = 0;
  for (const Sample& s : loop.samples) rounds = std::max(rounds, s.round + 1);
  const uint32_t windows = std::max<uint32_t>(1, rounds / per_window);
  std::vector<std::vector<const Sample*>> by_window(windows);
  for (const Sample& s : loop.samples) {
    by_window[std::min(windows - 1, s.round / per_window)].push_back(&s);
  }
  std::vector<double> p50, p95, nonieq_mean, qps;
  size_t nonieq_samples = 0;
  for (const std::vector<const Sample*>& window : by_window) {
    std::vector<double> all, nonieq;
    double first = 1e300, last = 0;
    for (const Sample* s : window) {
      all.push_back(s->ms());
      if (s->nonieq) nonieq.push_back(s->ms());
      first = std::min(first, s->start_s);
      last = std::max(last, s->end_s);
    }
    nonieq_samples += nonieq.size();
    p50.push_back(Median(all));
    p95.push_back(perfbench::Percentile(all, 0.95));
    // With no query needing a cross-site join, the mix's mean stands in.
    nonieq_mean.push_back(Mean(nonieq.empty() ? all : nonieq));
    qps.push_back(static_cast<double>(window.size()) / (last - first));
  }
  std::cerr << "window non-IEQ means (ms):";
  for (double m : nonieq_mean) std::cerr << ' ' << m;
  std::cerr << "\nquery windows: " << windows << " of " << per_window << " rounds, "
            << loop.samples.size() << " queries, " << nonieq_samples << " non-IEQ ("
            << 100.0 * static_cast<double>(nonieq_samples) /
                   static_cast<double>(std::max<size_t>(1, loop.samples.size()))
            << "%)\n";
  report->Metric("query_p50_ms", Min(p50), "ms");
  report->Metric("query_p95_ms", Min(p95), "ms");
  report->Metric("nonieq_mean_ms", Min(nonieq_mean), "ms");
  report->Metric("throughput_qps", *std::max_element(qps.begin(), qps.end()), "queries/s");
}

serve::ServingStateOptions StateOptions() {
  serve::ServingStateOptions o;
  o.executor.num_threads = 1;  // the service's workers are the parallelism
  o.build_threads = 0;
  return o;
}

serve::QueryServiceOptions ServiceOptions(int workers, bool result_cache = true) {
  serve::QueryServiceOptions o;
  o.num_workers = workers;
  // The offline workloads time queries over the partitioning they made,
  // so their answers are never served from the cache.
  if (!result_cache) o.result_cache_capacity = 0;
  o.admission = serve::QueryServiceOptions::Admission::kBlock;
  return o;
}

std::vector<std::shared_ptr<const store::TripleSource>> OpenSegments(const std::string& dir) {
  const uint64_t fingerprint = Must(partition::PartitionIo::Fingerprint(dir), "fingerprint");
  std::vector<std::shared_ptr<const store::TripleSource>> out;
  for (uint32_t i = 0; i < kSites; ++i) {
    storage::SegmentStore::OpenOptions options;
    options.expected_fingerprint = fingerprint;
    out.push_back(std::make_shared<const storage::SegmentStore>(Must(
        storage::SegmentStore::Open(storage::SegmentPath(dir, i), options), "open segment")));
  }
  return out;
}

dynamic::MaintainerOptions MaintainerOpts() {
  // As `mpc serve --updates` runs it: repartition policy "never".
  dynamic::MaintainerOptions o;
  o.policy.kind = dynamic::RepartitionPolicy::Kind::kNever;
  o.mpc = MpcOpts();
  o.num_threads = 0;
  o.executor.num_threads = 1;
  return o;
}

void CheckLive(const dynamic::IncrementalMaintainer& m, const perfbench::Inputs& in,
               size_t applied, Report* report) {
  report->Check(perfbench::CheckSameTriples(
      perfbench::Replay(in.triples, in.updates, applied),
      ToText(m.graph(), m.LiveTriples()), "live triples after the update stream"));
}

// ---------------------------------------------------------------------------
// gen

/// Flushes every file under `dir` to disk, so that the run that follows
/// does not share the disk with the write-back of its own inputs.
void SyncTree(const std::string& dir) {
  for (const auto& entry : std::filesystem::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    const int fd = ::open(entry.path().c_str(), O_RDONLY);
    if (fd < 0 || ::fsync(fd) != 0) Fail("cannot sync " + entry.path().string());
    ::close(fd);
  }
}

int Gen(const Workload& w, uint64_t seed, const Paths& paths) {
  std::filesystem::create_directories(paths.dir);
  perfbench::Inputs in = perfbench::GenerateData(w.spec, seed);
  if (!perfbench::WriteNTriples(in.triples, paths.graph())) Fail("cannot write the graph");
  // Candidates the reference evaluator needs more than kMaxQueryWork
  // triple visits for are dropped, so that a few heavy queries do not
  // make the mix's cost depend on the seed.
  const perfbench::RefStore ref(in.triples);
  in.pool = perfbench::GenerateQueries(in.triples, w.spec, seed, [&](const std::string& text) {
    size_t work = 0;
    ref.Evaluate(text, &work);
    return work <= kMaxQueryWork;
  });
  std::cout << perfbench::Fingerprint(in) << std::endl;
  if (!perfbench::WriteQueries(in.pool, paths.queries()) ||
      !perfbench::WriteUpdates(in.updates, paths.updates())) {
    Fail("cannot write inputs under " + paths.dir);
  }
  if (w.kind == Kind::kServeRemote) {
    // The served partition directory with packed segments, made by the
    // program's own offline pipeline; the fastest of nine passes gives
    // this workload's partition_s and pack_s. Each pass writes a fresh
    // directory: rewriting files in place makes the file system flush
    // the old contents first, which times the disk.
    const rdf::RdfGraph graph = ParseGraph(paths.graph());
    const partition::Partitioning part = core::MpcPartitioner(MpcOpts()).Partition(graph);
    Must(partition::PartitionIo::Save(graph, part, paths.parts()), "save");
    Pack(graph, part, paths.parts());
    std::vector<double> partition_s, pack_s;
    for (int rep = 0; rep < 9; ++rep) {
      const std::string dir = paths.dir + "/pass" + std::to_string(rep);
      Clock::time_point t0 = Clock::now();
      const partition::Partitioning again = core::MpcPartitioner(MpcOpts()).Partition(graph);
      Must(partition::PartitionIo::Save(graph, again, dir), "save");
      partition_s.push_back(Seconds(t0));
      t0 = Clock::now();
      Pack(graph, again, dir);
      pack_s.push_back(Seconds(t0));
      std::filesystem::remove_all(dir);
    }
    std::ofstream(paths.offline()) << std::setprecision(17) << Min(partition_s) << ' '
                                   << Min(pack_s) << '\n';
  }
  SyncTree(paths.dir);
  return 0;
}

// ---------------------------------------------------------------------------
// run, tracing off: the end-to-end metrics.

/// offline-*: parse once (set-up), then whole pipeline passes (partition
/// + save, pack) for 60% of the run, then the produced partitioning
/// serves the generated query mix from its segments for the rest.
void RunOffline(const Workload& w, uint64_t seed, double seconds, const Paths& paths,
                Report* report) {
  rdf::RdfGraph graph = ParseGraph(paths.graph());
  report->Metric("setup_s", Seconds(g_process_start), "s");

  const Clock::time_point loop_start = Clock::now();
  std::vector<double> partition_s, pack_s;
  std::vector<uint32_t> first_assignment;
  std::vector<bool> internal;
  std::unique_ptr<partition::Partitioning> part;
  uint64_t bytes = 0;
  std::string dir;
  while (partition_s.size() < 2 || Seconds(loop_start) < 0.5 * seconds) {
    // A fresh directory per pass (see Gen); the previous one goes.
    part.reset();
    if (!dir.empty()) std::filesystem::remove_all(dir);
    dir = paths.dir + "/pass" + std::to_string(partition_s.size());
    core::MpcRunStats stats;
    Clock::time_point t0 = Clock::now();
    part = std::make_unique<partition::Partitioning>(
        core::MpcPartitioner(MpcOpts()).Partition(graph, &stats));
    Must(partition::PartitionIo::Save(graph, *part, dir), "save");
    partition_s.push_back(Seconds(t0));
    t0 = Clock::now();
    bytes = Pack(graph, *part, dir);
    pack_s.push_back(Seconds(t0));
    ++report->attempted;
    if (first_assignment.empty()) {
      first_assignment = part->assignment().part;
      internal = stats.selection.internal;
    } else if (part->assignment().part != first_assignment) {
      report->Check("partitioning differs between passes");
    }
  }
  report->Metric("partition_s", Min(partition_s), "s");
  report->Metric("pack_s", Min(pack_s), "s");
  report->Metric("lcross", static_cast<double>(part->num_crossing_properties()), "properties");
  report->Metric("replication_ratio", ReplicationRatio(*part, graph.num_edges()), "ratio");
  report->Metric("segment_bytes_per_triple",
                 static_cast<double>(bytes) / static_cast<double>(graph.num_edges()), "B");

  // The graph and the partitioning move into the service, so the process
  // holds one copy of each, as `mpc serve` would; the checks read them
  // back from the service after the peak resident set is taken.
  const std::vector<PoolQuery> pool = LoadPool(paths.queries());
  serve::QueryService service(
      serve::ServingState::WrapBackend(
          std::move(graph),
          std::make_unique<exec::Cluster>(
              Must(exec::Cluster::BuildFromSegments(std::move(*part), dir, 0), "open segments")),
          0, StateOptions()),
      ServiceOptions(kClients, /*result_cache=*/false));
  part.reset();
  const Clock::time_point deadline = g_process_start + std::chrono::duration_cast<
      Clock::duration>(std::chrono::duration<double>(seconds));
  const LoopResult loop = ClosedLoop(service, pool, Sequence(pool.size(), seed), kClients,
                                     [&](size_t) { return Clock::now() < deadline; });
  report->Metric("peak_rss_mib", PeakRssMib("self"), "MiB");
  ReportQueries(loop, pool.size(), report);

  // Checks, after every measurement.
  const serve::ServingState& state = *service.state();
  const perfbench::Inputs in = perfbench::GenerateData(w.spec, seed);
  report->Check(perfbench::CheckSameTriples(in.triples, ToText(state.graph(), state.graph().triples()),
                                            "parsed graph"));
  CheckPartitioning(state.graph(), state.cluster().partitioning(), internal, dir, report);
  CheckAnswers(in.triples, state.generation(), pool, loop.served, report);
}

void RunServeRemote(const Workload& w, uint64_t seed, double seconds, const Paths& paths,
                    const std::string& mpc_binary, Report* report) {
  // Set-up: partition directory on disk to the service accepting
  // queries, with all 8 site processes up.
  rdf::RdfGraph graph = ParseGraph(paths.graph());
  partition::Partitioning part =
      Must(partition::PartitionIo::Load(graph, paths.parts()), "load partitioning");
  exec::RemoteCluster::Options ropt;
  ropt.worker_binary = mpc_binary;
  ropt.graph_path = paths.graph();
  ropt.partition_dir = paths.parts();
  ropt.store_kind = "memory";
  ropt.socket_dir = paths.sockets();
  std::filesystem::create_directories(ropt.socket_dir);
  std::unique_ptr<exec::RemoteCluster> remote =
      Must(exec::RemoteCluster::Start(std::move(part), ropt), "start remote cluster");
  exec::RemoteCluster* sites = remote.get();
  auto service = std::make_unique<serve::QueryService>(
      serve::ServingState::WrapBackend(std::move(graph), std::move(remote), 0, StateOptions()),
      ServiceOptions(kClients));
  report->Metric("setup_s", Seconds(g_process_start), "s");

  const std::vector<PoolQuery> pool = LoadPool(paths.queries());
  const Clock::time_point loop_start = Clock::now();
  const LoopResult loop = ClosedLoop(*service, pool, Sequence(pool.size(), seed), kClients,
                                     [&](size_t) { return Seconds(loop_start) < seconds; });
  double rss = PeakRssMib("self");
  for (uint32_t i = 0; i < kSites; ++i) {
    rss += PeakRssMib(std::to_string(sites->supervisor().pid(i)));
  }

  // The offline metrics come from the passes Gen timed, over the served
  // partitioning; the checks read the graph and the partitioning back
  // from the service.
  const serve::ServingState& state = *service->state();
  const rdf::RdfGraph& served_graph = state.graph();
  const partition::Partitioning& served_part = state.cluster().partitioning();
  double partition_s = 0, pack_s = 0;
  std::ifstream(paths.offline()) >> partition_s >> pack_s;
  if (partition_s <= 0) Fail("missing " + paths.offline());
  report->Metric("partition_s", partition_s, "s");
  report->Metric("pack_s", pack_s, "s");
  report->Metric("lcross", static_cast<double>(served_part.num_crossing_properties()),
                 "properties");
  report->Metric("replication_ratio", ReplicationRatio(served_part, served_graph.num_edges()),
                 "ratio");
  report->Metric("segment_bytes_per_triple",
                 static_cast<double>(SegmentBytes(paths.parts())) /
                     static_cast<double>(served_graph.num_edges()),
                 "B");
  report->Metric("peak_rss_mib", rss, "MiB");
  ReportQueries(loop, pool.size(), report);

  const perfbench::Inputs in = perfbench::GenerateData(w.spec, seed);
  report->Check(perfbench::CheckSameTriples(
      in.triples, ToText(served_graph, served_graph.triples()), "parsed graph"));
  CheckPartitioning(served_graph, served_part, {}, paths.parts(), report);
  CheckAnswers(in.triples, state.generation(), pool, loop.served, report);
  service.reset();  // stops the site processes and waits for them
}

// ---------------------------------------------------------------------------
// run, tracing on: one client walks every layer's public calls in turn.

struct LayerTimes {
  std::vector<double> parse, plan, site_eval, site_eval_max, local_rows, rpc, reply_bytes,
      dedupe, join;
};

/// The executor's vertex-disjoint path, one public call at a time:
/// parse, plan, per-site evaluation (in-process and, when `remote` is
/// set, over RPC), merge and dedupe, join.
Result<store::BindingTable> LayeredQuery(const std::string& text, const rdf::RdfGraph& graph,
                                         const exec::ClusterBackend& local,
                                         const exec::ClusterBackend* remote,
                                         LayerTimes* times) {
  sparql::QueryGraph query;
  times->parse.push_back(TimeMs([&] {
    query = Must(sparql::SparqlParser::Parse(text), "parse query");
  }));
  exec::QueryPlan plan;
  store::ResolvedQuery resolved;
  times->plan.push_back(TimeMs([&] {
    plan = exec::PlanQuery(query, local.partitioning(), graph);
    resolved = store::ResolveQuery(query, graph);
  }));
  double eval_sum = 0, eval_max_sum = 0, rpc = 0, dedupe = 0;
  size_t rows = 0, bytes = 0;
  std::vector<store::BindingTable> results;
  for (const std::vector<size_t>& sub : plan.decomposition.subqueries) {
    std::vector<rdf::PropertyId> required;
    for (size_t idx : sub) {
      const store::ResolvedPattern& p = resolved.patterns[idx];
      if (!p.p_is_var && !p.impossible) required.push_back(p.p);
    }
    exec::SiteEvalRequest request;
    request.pattern_indices = sub;
    store::BindingTable merged;
    double slowest = 0;
    for (uint32_t site = 0; site < local.k(); ++site) {
      bool relevant = true;
      for (rdf::PropertyId p : required) relevant &= local.SiteHasProperty(site, p);
      if (!relevant) continue;
      exec::SiteEvalReply reply;
      Status st;
      const double ms = TimeMs([&] {
        st = local.EvaluateOnSite(site, resolved, request, exec::SiteCallPolicy(), &reply);
      });
      if (!st.ok()) return st;
      eval_sum += ms;
      slowest = std::max(slowest, ms);
      rows += reply.table.num_rows();
      if (remote != nullptr) {
        exec::SiteEvalReply remote_reply;
        const double remote_ms = TimeMs([&] {
          st = remote->EvaluateOnSite(site, resolved, request, exec::SiteCallPolicy(),
                                      &remote_reply);
        });
        if (!st.ok()) return st;
        if (remote_reply.table.rows != reply.table.rows) {
          return Status::Internal("site " + std::to_string(site) +
                                  " answered differently over RPC");
        }
        rpc += remote_ms - ms;
        bytes += remote_reply.table.ByteSize();
      }
      if (merged.var_ids.empty()) merged.var_ids = reply.table.var_ids;
      for (auto& row : reply.table.rows) merged.rows.push_back(std::move(row));
    }
    eval_max_sum += slowest;
    if (merged.var_ids.empty()) merged = exec::SchemaTable(resolved, sub);
    dedupe += TimeMs([&] { merged.Deduplicate(); });
    results.push_back(std::move(merged));
  }
  store::BindingTable final_table;
  double join = 0;
  if (plan.classification.independently_executable()) {
    final_table = std::move(results.front());
  } else {
    join = TimeMs([&] {
      final_table = exec::JoinAll(std::move(results));
      final_table.Deduplicate();
    });
  }
  final_table.SortColumnsAscending();
  if (query.limit() != SIZE_MAX && final_table.rows.size() > query.limit()) {
    final_table.rows.resize(query.limit());
  }
  times->site_eval.push_back(eval_sum);
  times->site_eval_max.push_back(eval_max_sum);
  times->local_rows.push_back(static_cast<double>(rows));
  times->rpc.push_back(rpc);
  times->reply_bytes.push_back(static_cast<double>(bytes));
  times->dedupe.push_back(dedupe);
  times->join.push_back(join);
  return final_table;
}

void RunTraced(const Workload& w, uint64_t seed, double seconds, const Paths& paths,
               const std::string& mpc_binary, Report* report) {
  const Clock::time_point start = Clock::now();
  rdf::RdfGraph graph;
  report->Metric("rdf.parse_s", TimeMs([&] { graph = ParseGraph(paths.graph()); }) / 1e3, "s");
  const std::vector<PoolQuery> pool = LoadPool(paths.queries());
  const std::vector<dynamic::UpdateBatch> batches =
      Must(dynamic::UpdateLog::LoadFile(paths.updates()), "load updates");

  // Offline stages, composed as MpcPartitioner::Partition composes them;
  // the result must equal Partition()'s bit for bit.
  const std::vector<uint32_t> expected =
      core::MpcPartitioner(MpcOpts()).Partition(graph).assignment().part;
  const core::MpcOptions mpc = MpcOpts();
  core::SelectorOptions selector_options;
  selector_options.base = mpc.base;
  selector_options.backward_candidates = mpc.backward_candidates;
  selector_options.exact_node_budget = mpc.exact_node_budget;
  std::vector<double> select_s, coarsen_s, metis_s, materialize_s, save_s, write_s;
  core::SelectionResult selection;
  size_t super_vertices = 0;
  uint64_t bytes = 0;
  std::unique_ptr<partition::Partitioning> part;
  std::string dir;
  while (select_s.empty() || Seconds(start) < 0.3 * seconds) {
    part.reset();
    if (!dir.empty()) std::filesystem::remove_all(dir);
    dir = paths.dir + "/traced" + std::to_string(select_s.size());
    select_s.push_back(TimeMs([&] {
      selection = core::AutoSelector(selector_options, mpc.auto_threshold).Select(graph);
    }) / 1e3);
    core::CoarsenedGraph coarse;
    coarsen_s.push_back(TimeMs([&] {
      coarse = core::CoarsenByInternalProperties(graph, selection.internal);
    }) / 1e3);
    super_vertices = coarse.num_supervertices;
    metis::MlpOptions mlp;
    mlp.k = mpc.base.k;
    mlp.epsilon = mpc.base.epsilon;
    mlp.seed = mpc.base.seed;
    std::vector<uint32_t> super_part;
    metis_s.push_back(TimeMs([&] {
      super_part = metis::MultilevelPartitioner(mlp).Partition(coarse.graph);
    }) / 1e3);
    materialize_s.push_back(TimeMs([&] {
      partition::VertexAssignment assignment;
      assignment.k = mpc.base.k;
      assignment.part.resize(graph.num_vertices());
      for (size_t v = 0; v < graph.num_vertices(); ++v) {
        assignment.part[v] = super_part[coarse.vertex_to_super[v]];
      }
      part = std::make_unique<partition::Partitioning>(
          partition::Partitioning::MaterializeVertexDisjoint(graph, std::move(assignment), 0));
    }) / 1e3);
    save_s.push_back(TimeMs([&] {
      Must(partition::PartitionIo::Save(graph, *part, dir), "save");
    }) / 1e3);
    write_s.push_back(TimeMs([&] { bytes = Pack(graph, *part, dir); }) / 1e3);
    ++report->attempted;
    if (part->assignment().part != expected) {
      report->Check("staged MPC differs from MpcPartitioner::Partition");
    }
  }
  report->Metric("mpc.select_s", Median(select_s), "s");
  report->Metric("mpc.select_iterations", static_cast<double>(selection.iterations), "count");
  report->Metric("mpc.internal_properties", static_cast<double>(selection.num_internal),
                 "count");
  report->Metric("mpc.coarsen_s", Median(coarsen_s), "s");
  report->Metric("mpc.super_vertices", static_cast<double>(super_vertices), "count");
  report->Metric("metis.partition_s", Median(metis_s), "s");
  report->Metric("partition.materialize_s", Median(materialize_s), "s");
  report->Metric("partition.save_s", Median(save_s), "s");
  report->Metric("storage.write_s", Median(write_s), "s");
  report->Metric("storage.bytes_written", static_cast<double>(bytes), "B");

  // Set-up layers.
  std::unique_ptr<exec::Cluster> memory;
  report->Metric("store.build_s", TimeMs([&] {
    memory = std::make_unique<exec::Cluster>(exec::Cluster::Build(*part, 0));
  }) / 1e3, "s");
  std::unique_ptr<exec::Cluster> segments;
  report->Metric("storage.open_s", TimeMs([&] {
    segments = std::make_unique<exec::Cluster>(
        Must(exec::Cluster::BuildFromSegments(*part, dir, 0), "open segments"));
  }) / 1e3, "s");
  // A subject-bound scan with the property unbound (`<s> ?p ?o`) on the
  // subject's own site, segment store against memory store; each must
  // return exactly the graph's triples with that subject.
  {
    perfbench::Prng rng(seed ^ 0x5ca7);
    std::vector<rdf::VertexId> subjects;
    for (size_t i = 0; i < kSubjectScans; ++i) {
      subjects.push_back(graph.triples()[rng.Below(graph.num_edges())].subject);
    }
    std::map<rdf::VertexId, std::vector<IdTriple>> expected;
    for (rdf::VertexId v : subjects) expected[v];
    for (const rdf::Triple& t : graph.triples()) {
      auto it = expected.find(t.subject);
      if (it != expected.end()) it->second.push_back({t.subject, t.property, t.object});
    }
    for (const exec::Cluster* cluster : {segments.get(), memory.get()}) {
      std::vector<std::pair<rdf::VertexId, std::vector<IdTriple>>> scans;
      const double ms = TimeMs([&] {
        for (rdf::VertexId v : subjects) {
          scans.push_back({v, {}});
          cluster->site(part->assignment().part[v])
              .Scan(v, rdf::kInvalidProperty, rdf::kInvalidVertex, [&](const rdf::Triple& t) {
                scans.back().second.push_back({t.subject, t.property, t.object});
                return true;
              });
        }
      });
      const bool on_segments = cluster == segments.get();
      report->Metric(on_segments ? "storage.subject_scan_ms" : "store.subject_scan_ms",
                     ms / static_cast<double>(subjects.size()), "ms");
      for (const auto& [v, scanned] : scans) {
        const std::string error = perfbench::CheckSegmentScan(expected[v], scanned);
        if (!error.empty()) {
          report->Check(std::string(on_segments ? "segment" : "memory") + " scan of subject " +
                        graph.VertexName(v) + ": " + error);
        }
      }
    }
  }
  segments.reset();
  // Site processes on the workload's store: memory for serve-remote,
  // segments elsewhere (memory workers each re-parse the whole graph).
  exec::RemoteCluster::Options ropt;
  ropt.worker_binary = mpc_binary;
  ropt.graph_path = paths.graph();
  ropt.partition_dir = dir;
  ropt.store_kind = w.kind == Kind::kServeRemote ? "memory" : "segment";
  ropt.socket_dir = paths.sockets();
  std::filesystem::create_directories(ropt.socket_dir);
  std::unique_ptr<exec::RemoteCluster> remote;
  report->Metric("net.sites_up_s", TimeMs([&] {
    remote = Must(exec::RemoteCluster::Start(*part, ropt), "start remote cluster");
  }) / 1e3, "s");

  // Query layers, in whole passes over the pool; the answers must equal
  // the executor's.
  const exec::ClusterBackend& local = *memory;
  const exec::DistributedExecutor executor(local, graph);
  // The first kTracedQueries of the seeded round order: each query runs
  // five times here, and on offline-lubm a non-IEQ one takes ~80 ms.
  std::vector<uint32_t> traced;
  for (size_t q : Sequence(pool.size(), seed)) {
    if (traced.size() == kTracedQueries) break;
    traced.push_back(static_cast<uint32_t>(q));
  }
  LayerTimes times;
  std::vector<Served> served;
  size_t nonieq = 0;
  do {
    const bool first_pass = served.empty();
    for (uint32_t q : traced) {
      ++report->attempted;
      Result<store::BindingTable> layered =
          LayeredQuery(pool[q].text, graph, local, remote.get(), &times);
      Result<exec::QueryResponse> whole =
          executor.Execute(exec::QueryRequest::FromText(pool[q].text));
      if (!layered.ok() || !whole.ok()) {
        ++report->failed;
        continue;
      }
      if (layered->var_ids != whole->bindings.var_ids || layered->rows != whole->bindings.rows) {
        report->Check("layered evaluation of " + pool[q].name + " differs from the executor's");
      }
      if (first_pass) nonieq += whole->stats.cls == exec::IeqClass::kNonIeq;
      served.push_back({q, 0, DigestBindings(pool[q], *layered, graph)});
    }
  } while (Seconds(start) < 0.7 * seconds);
  remote.reset();
  memory.reset();
  // Means per query: each layer's busy time, tail included (most
  // queries never reach the join, so its median is zero).
  report->Metric("sparql.parse_ms", Mean(times.parse), "ms");
  report->Metric("exec.plan_ms", Mean(times.plan), "ms");
  report->Metric("exec.site_eval_ms", Mean(times.site_eval), "ms");
  report->Metric("exec.site_eval_max_ms", Mean(times.site_eval_max), "ms");
  report->Metric("exec.local_rows", Mean(times.local_rows), "rows/query");
  report->Metric("exec.rpc_ms", Mean(times.rpc), "ms");
  report->Metric("exec.reply_bytes", Mean(times.reply_bytes), "B/query");
  report->Metric("exec.dedupe_ms", Mean(times.dedupe), "ms");
  report->Metric("exec.join_ms", Mean(times.join), "ms");
  report->Metric("exec.nonieq_pct",
                 100.0 * static_cast<double>(nonieq) / static_cast<double>(traced.size()), "%");

  // Serving layers, one client, over segments with the maintainer's
  // delta overlay (as `mpc serve --store=segment --updates` serves).
  serve::ServingStateOptions state_options = StateOptions();
  state_options.base_sources = OpenSegments(dir);
  dynamic::IncrementalMaintainer maintainer(graph.Clone(), *part, MaintainerOpts());
  serve::QueryService service(serve::ServingState::Capture(maintainer, state_options),
                              ServiceOptions(1));
  obs::Counter& decoded = obs::MetricsRegistry::Default().CounterRef("storage.segment.blocks_decoded");
  obs::Counter& pruned = obs::MetricsRegistry::Default().CounterRef("storage.segment.blocks_pruned");
  const uint64_t decoded0 = decoded.value(), pruned0 = pruned.value();
  std::vector<double> overhead;
  size_t result_hits = 0, plan_hits = 0;
  auto through_service = [&](uint32_t q) {
    ++report->attempted;
    Result<exec::QueryResponse> r = service.Execute(exec::QueryRequest::FromText(pool[q].text));
    if (!r.ok()) {
      ++report->failed;
      return;
    }
    result_hits += r->stats.result_cache_hit;
    plan_hits += r->stats.plan_cache_hit;
  };
  for (uint32_t q : traced) {
    const exec::DistributedExecutor& direct = service.state()->distributed();
    const double exec_ms = TimeMs([&] {
      (void)direct.Execute(exec::QueryRequest::FromText(pool[q].text));
    });
    const double service_ms = TimeMs([&] { through_service(q); });
    overhead.push_back(service_ms - exec_ms);
  }
  const double per_query = 1.0 / static_cast<double>(traced.size());
  report->Metric("storage.blocks_decoded",
                 static_cast<double>(decoded.value() - decoded0) * per_query, "blocks/query");
  report->Metric("storage.blocks_pruned",
                 static_cast<double>(pruned.value() - pruned0) * per_query, "blocks/query");
  for (uint32_t q : traced) through_service(q);  // second, cached pass
  report->Metric("serve.overhead_ms", Mean(overhead), "ms");
  report->Metric("serve.result_cache_hits", static_cast<double>(result_hits), "count");
  report->Metric("serve.plan_cache_hits", static_cast<double>(plan_hits), "count");

  // Update path: apply, capture, publish per batch.
  std::vector<double> apply_ms, capture_ms, publish_ms, update_ms;
  for (const dynamic::UpdateBatch& batch : batches) {
    ++report->attempted;
    std::shared_ptr<const serve::ServingState> state;
    apply_ms.push_back(TimeMs([&] { maintainer.ApplyBatch(batch); }));
    capture_ms.push_back(TimeMs([&] { state = serve::ServingState::Capture(maintainer, state_options); }));
    publish_ms.push_back(TimeMs([&] { service.Publish(std::move(state)); }));
    update_ms.push_back(apply_ms.back() + capture_ms.back() + publish_ms.back());
  }
  report->Metric("dynamic.apply_ms", Median(apply_ms), "ms");
  report->Metric("serve.capture_ms", Median(capture_ms), "ms");
  report->Metric("serve.publish_ms", Median(publish_ms), "ms");
  report->Metric("serve.update_ms", Median(update_ms), "ms");
  report->Metric("dynamic.repartitions", static_cast<double>(maintainer.repartition_count()),
                 "count");

  const perfbench::Inputs in = perfbench::GenerateData(w.spec, seed);
  report->Check(perfbench::CheckSameTriples(in.triples, ToText(graph, graph.triples()),
                                            "parsed graph"));
  CheckPartitioning(graph, *part, selection.internal, dir, report);
  CheckAnswers(in.triples, 0, pool, served, report);
  CheckLive(maintainer, in, batches.size(), report);
}

struct Args {
  std::string mode, workload, dir, mpc;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  if (argc < 2) Fail("usage: perfbench_harness gen|run|selftest [flags]");
  a.mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") a.workload = value;
    else if (flag == "--seed") a.seed = std::stoull(value);
    else if (flag == "--seconds") a.seconds = std::stod(value);
    else if (flag == "--trace") a.trace = std::stoi(value);
    else if (flag == "--dir") a.dir = value;
    else if (flag == "--mpc") a.mpc = value;
    else Fail("unknown flag " + flag);
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = ParseArgs(argc, argv);
    if (args.mode == "selftest") return perfbench::SelfTest(args.dir.empty() ? ".bench_work/selftest" : args.dir);
    const Workload& w = FindWorkload(args.workload);
    const Paths paths{args.dir};
    if (args.mode == "gen") return Gen(w, args.seed, paths);
    if (args.mode != "run") Fail("unknown mode " + args.mode);
    Report report;
    if (args.trace) {
      RunTraced(w, args.seed, args.seconds, paths, args.mpc, &report);
    } else if (w.kind == Kind::kOffline) {
      RunOffline(w, args.seed, args.seconds, paths, &report);
    } else {
      RunServeRemote(w, args.seed, args.seconds, paths, args.mpc, &report);
    }
    report.Print();
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_harness: " << e.what() << "\n";
    return 1;
  }
}
