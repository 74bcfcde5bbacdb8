// Three-workload benchmark of the Reptile reproduction (see README.md).
//
//   perfbench --workload seq_local|dist_lookup|dist_replicated --seed N
//             --seconds S --trace 0|1
//             [--reads N] [--sample N] [--spans PATH] [--tamper]
//
// Every workload corrects reads of one seeded E. coli replica. A run repeats
// the workload's set-up + correction until --seconds have passed (at least
// three repetitions), byte-compares every repetition's
// output with a core::run_sequential reference computed before the timed
// region, and prints a report followed by one JSON line: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1.
//
// Per-layer numbers come only from this file: spans around the calls into
// each module, counters the modules already report, and probes that time a
// module's public functions over the workload's own data. --reads/--sample
// shrink the dataset (self-tests); --tamper alters one output read before
// the check, to show that the check catches it.

#include <malloc.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/common.hpp"
#include "core/corrector.hpp"
#include "core/pipeline.hpp"
#include "core/spectrum.hpp"
#include "hash/count_table.hpp"
#include "parallel/dist_spectrum.hpp"
#include "parallel/lookup_service.hpp"
#include "parallel/protocol.hpp"
#include "parallel/remote_spectrum.hpp"
#include "parallel/serve.hpp"
#include "rtm/comm.hpp"
#include "seq/dataset.hpp"
#include "seq/rng.hpp"
#include "stats/accuracy.hpp"

namespace {

using namespace reptile;
using Clock = std::chrono::steady_clock;

constexpr int kRanks = 2;                ///< dist workloads: 2 ranks ...
constexpr int kBusyThreadsPerRank = 2;   ///< ... of 1 worker + 1 comm thread
constexpr std::size_t kMaxReps = 64;
/// Correction jobs per set-up: more timed jobs per run, at one set-up each.
constexpr int kJobsPerRep = 3;
/// A run starts no repetition after this many seconds, even below the
/// minimum count, so a contended host still ends within its time limit.
constexpr double kRepBudgetSeconds = 110;
constexpr std::size_t kProbeReads = 10000;   ///< probe sample size
constexpr int kPingPongRounds = 20000;
constexpr std::size_t kRttLookups = 20000;
constexpr double kMiB = 1024.0 * 1024.0;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- command line -----------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::uint64_t reads = 200000;  ///< replica size
  std::uint64_t sample = 30000;  ///< dist_lookup: reads corrected per job
  std::string spans_path;
  bool tamper = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "seq_local|dist_lookup|dist_replicated --seed N --seconds S "
               "--trace 0|1 [--reads N] [--sample N] [--spans PATH] "
               "[--tamper]\n",
               why);
  std::exit(2);
}

std::uint64_t parse_u64(const char* text, const char* flag) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') usage(flag);
  return v;
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tamper") {
      a.tamper = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value after a flag");
    const char* value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = parse_u64(value, "bad --seed");
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = static_cast<double>(parse_u64(value, "bad --seconds"));
    } else if (flag == "--trace") {
      const std::uint64_t t = parse_u64(value, "bad --trace");
      if (t > 1) usage("--trace must be 0 or 1");
      a.trace = t == 1;
    } else if (flag == "--reads") {
      a.reads = parse_u64(value, "bad --reads");
    } else if (flag == "--sample") {
      a.sample = parse_u64(value, "bad --sample");
    } else if (flag == "--spans") {
      a.spans_path = value;
    } else {
      usage("unknown flag");
    }
  }
  if (a.workload != "seq_local" && a.workload != "dist_lookup" &&
      a.workload != "dist_replicated") {
    usage("unknown --workload");
  }
  if (!have_seed) usage("--seed is required");
  if (a.seconds <= 0) usage("--seconds must be positive");
  if (a.reads < 100 || a.sample < 1) usage("--reads/--sample too small");
  return a;
}

// --- process diagnostics (Linux /proc) ---------------------------------------

/// Returns freed heap pages to the kernel and resets the peak-RSS mark
/// (VmHWM) to the current RSS, so the next peak covers only what follows.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Host-wide CPU steal ticks (the 8th field of /proc/stat's "cpu" line).
std::uint64_t steal_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  std::array<std::uint64_t, 8> v{};
  in >> cpu;
  for (auto& x : v) in >> x;
  return v[7];
}

// --- spans ------------------------------------------------------------------

/// Spans recorded in memory around the benchmark's calls into each layer
/// (name, start, end, parent, workload), written out when the run ends.
class SpanLog {
 public:
  explicit SpanLog(std::string workload)
      : workload_(std::move(workload)), origin_(Clock::now()) {}

  void set_enabled(bool on) { enabled_ = on; }

  /// Opens a span and returns its id; -1 while disabled.
  int open(const char* name, int parent = -1) {
    if (!enabled_) return -1;
    spans_.push_back({name, now_ns(), 0, parent});
    return static_cast<int>(spans_.size()) - 1;
  }

  void close(int id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  }

  bool write(const std::string& path, std::uint64_t seed) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    std::fprintf(out, "{\"workload\": \"%s\", \"seed\": %llu, \"spans\": [",
                 workload_.c_str(), static_cast<unsigned long long>(seed));
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out,
                   "%s\n  {\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                   "\"end_ns\": %lld, \"parent\": %d, \"workload\": \"%s\"}",
                   i == 0 ? "" : ",", i, s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.parent,
                   workload_.c_str());
    }
    std::fprintf(out, "\n]}\n");
    return std::fclose(out) == 0;
  }

 private:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;
  };

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  std::string workload_;
  Clock::time_point origin_;
  bool enabled_ = false;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, int parent = -1)
      : log_(log), id_(log.open(name, parent)) {}
  ~ScopedSpan() { log_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  SpanLog& log_;
  int id_;
};

// --- statistics -------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// First and third quartile, as Python's statistics.quantiles(v, n=4).
std::pair<double, double> quartiles(std::vector<double> v) {
  if (v.size() < 2) {
    const double m = median(v);
    return {m, m};
  }
  std::sort(v.begin(), v.end());
  const auto n = static_cast<long>(v.size());
  const auto cut = [&](long i) {
    const long j = std::clamp(i * (n + 1) / 4, 1L, n - 1);
    const long delta = i * (n + 1) - j * 4;
    const double lo = v[static_cast<std::size_t>(j - 1)];
    const double hi = v[static_cast<std::size_t>(j)];
    return (lo * static_cast<double>(4 - delta) +
            hi * static_cast<double>(delta)) /
           4.0;
  };
  return {cut(1), cut(3)};
}

/// Nearest-rank percentile of per-call samples.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

// --- workload data ----------------------------------------------------------

/// Seed of the replica dist_lookup builds its spectrum from. Its remote
/// lookup cost depends on the exact sizes of the owned tables (through the
/// peer filters' block counts), so a spectrum that changed with --seed would
/// swing its throughput several-fold between seeds; --seed draws the
/// corrected reads instead. This is the repository's default bench seed.
constexpr std::uint64_t kLookupReplicaSeed = 20160523;

struct Data {
  seq::SyntheticDataset ds;          ///< the replica spectra are built from
  std::vector<std::size_t> picked;   ///< reads corrected, ascending indices
  std::vector<seq::Read> reference;  ///< run_sequential output for them
  double reference_gain = 0;         ///< the reference scored against truth
  std::uint64_t fingerprint = 0;     ///< tells seeds' inputs apart

  std::size_t n() const { return picked.size(); }

  /// The picked elements of one of the dataset's parallel vectors.
  template <class T>
  std::vector<T> pick(const std::vector<T>& all) const {
    std::vector<T> out;
    out.reserve(picked.size());
    for (const std::size_t i : picked) out.push_back(all[i]);
    return out;
  }
};

Data make_data(const Args& args, const core::CorrectorParams& params) {
  const bool lookup = args.workload == "dist_lookup";
  Data d;
  d.ds = bench::scaled_replica(seq::DatasetSpec::ecoli(), args.reads,
                               lookup ? kLookupReplicaSeed : args.seed);
  std::vector<std::size_t> all(d.ds.reads.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  if (lookup && args.sample < all.size()) {
    // Seeded draw without replacement, corrected in file order.
    seq::Rng rng(args.seed);
    for (std::size_t i = 0; i < args.sample; ++i) {
      std::swap(all[i], all[i + rng.below(all.size() - i)]);
    }
    all.resize(args.sample);
    std::sort(all.begin(), all.end());
  }
  d.picked = std::move(all);
  // The reference is built from the full replica, like every workload's
  // spectrum, and compared on the picked reads.
  d.reference = d.pick(core::run_sequential(d.ds.reads, params).corrected);
  d.reference_gain = stats::score_correction(d.pick(d.ds.reads), d.reference,
                                             d.pick(d.ds.truth))
                         .gain();
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a over the picked bases
  for (const std::size_t i : d.picked) {
    for (const char c : d.ds.reads[i].bases) {
      h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
    }
  }
  d.fingerprint = h;
  return d;
}

/// Evenly strided sample of at most kProbeReads of the corrected reads.
std::vector<seq::Read> probe_sample(const Data& d) {
  const std::size_t stride = std::max<std::size_t>(1, d.n() / kProbeReads);
  std::vector<seq::Read> out;
  for (std::size_t i = 0; i < d.n() && out.size() < kProbeReads; i += stride) {
    out.push_back(d.ds.reads[d.picked[i]]);
  }
  return out;
}

// --- one repetition of a workload -------------------------------------------

/// Exact per-rank counters of one repetition (one "rank" for seq_local).
struct RankCounts {
  std::uint64_t reads = 0;
  std::uint64_t remote_lookups = 0;
  std::uint64_t batch_ids = 0;
  std::uint64_t prefetch_hits = 0;
  std::uint64_t filter_neg_hits = 0;
  std::uint64_t filter_false_positives = 0;
  std::uint64_t msgs = 0;   ///< point-to-point messages sent during the job
  std::uint64_t bytes = 0;

  bool operator==(const RankCounts&) const = default;
};

struct Counts {
  std::uint64_t lookups = 0;           ///< corrector spectrum lookups
  std::uint64_t untrusted_tiles = 0;
  std::uint64_t spectrum_bytes = 0;    ///< max over ranks
  std::vector<RankCounts> ranks;

  bool operator==(const Counts&) const = default;
};

/// Byte-compares each job's output with the reference as soon as the job
/// ends, so no output is held across jobs.
class OutputCheck {
 public:
  OutputCheck(const Data& d, bool tamper) : data_(d), tamper_(tamper) {}

  /// Counts the job's reads that differ from the reference; every read of
  /// a degraded job fails.
  void job(std::vector<seq::Read>& out, bool degraded) {
    if (tamper_ && attempted_ == 0 && !out.empty()) {
      char& b = out.front().bases.front();
      b = b == 'A' ? 'C' : 'A';
    }
    attempted_ += data_.n();
    if (degraded || out.size() != data_.n()) {
      failed_ += data_.n();
      return;
    }
    std::uint64_t wrong = 0;
    for (std::size_t i = 0; i < data_.n(); ++i) {
      if (!(out[i] == data_.reference[i])) ++wrong;
    }
    if (wrong > 0 && !scored_wrong_output_) {
      // The reported gain is the reference's while every output matches it,
      // else that of the first output that does not.
      wrong_gain_ = stats::score_correction(data_.pick(data_.ds.reads), out,
                                            data_.pick(data_.ds.truth))
                        .gain();
      scored_wrong_output_ = true;
    }
    failed_ += wrong;
  }

  /// A job that threw: all its reads fail.
  void threw() {
    attempted_ += data_.n();
    failed_ += data_.n();
  }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  double gain() const {
    return scored_wrong_output_ ? wrong_gain_ : data_.reference_gain;
  }

 private:
  const Data& data_;
  bool tamper_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool scored_wrong_output_ = false;
  double wrong_gain_ = 0;
};

/// One set-up followed by kJobsPerRep correction jobs.
struct Rep {
  bool cold = false;    ///< first repetition in this process
  bool traced = false;
  double setup_s = 0;
  std::vector<double> correct_s;  ///< one per job
  double rss_mb = 0;              ///< peak over set-up and all jobs
  Counts counts;                  ///< of the first job
  bool counts_stable = true;      ///< every later job counted the same
};

void record_job_counts(Rep& rep, Counts counts) {
  if (rep.correct_s.size() == 1) {
    rep.counts = std::move(counts);
  } else if (!(counts == rep.counts)) {
    rep.counts_stable = false;
  }
}

Rep run_seq_local(const Data& d, const core::CorrectorParams& params,
                  SpanLog& log, OutputCheck& check) {
  Rep rep;
  ScopedSpan root(log, "rep");
  reset_peak_rss();
  core::LocalSpectrum spectrum(params);
  auto t0 = Clock::now();
  {
    ScopedSpan s(log, "setup", root.id());
    for (const auto& r : d.ds.reads) spectrum.add_read(r.bases);
    spectrum.prune();
  }
  rep.setup_s = seconds_since(t0);

  const core::TileCorrector corrector(params);
  for (int job = 0; job < kJobsPerRep; ++job) {
    std::vector<seq::Read> reads = d.pick(d.ds.reads);
    const core::LookupStats before = spectrum.stats();
    Counts counts;
    t0 = Clock::now();
    {
      ScopedSpan span(log, "correct", root.id());
      for (std::size_t i = 0; i < reads.size(); i += params.chunk_size) {
        ScopedSpan chunk(log, "correct_chunk", span.id());
        const std::size_t stop = std::min(reads.size(), i + params.chunk_size);
        for (std::size_t j = i; j < stop; ++j) {
          counts.untrusted_tiles += static_cast<std::uint64_t>(
              corrector.correct(reads[j], spectrum).tiles_untrusted);
        }
      }
    }
    rep.correct_s.push_back(seconds_since(t0));
    const core::LookupStats& after = spectrum.stats();
    counts.lookups = after.kmer_lookups - before.kmer_lookups +
                     after.tile_lookups - before.tile_lookups;
    counts.spectrum_bytes = spectrum.memory_bytes();
    RankCounts only;
    only.reads = reads.size();
    counts.ranks.push_back(only);
    record_job_counts(rep, std::move(counts));
    check.job(reads, false);
  }
  rep.rss_mb = peak_rss_mb();
  return rep;
}

parallel::DistConfig dist_config(const std::string& workload,
                                 const core::CorrectorParams& params) {
  parallel::DistConfig c;
  c.params = params;
  c.ranks = kRanks;
  c.worker_threads = 1;
  c.run_options.check.enabled = false;  // measure the pipeline, not the audit
  if (workload == "dist_lookup") {
    c.heuristics.batch_lookups = true;   // fig5 "filtered_batched"
    c.heuristics.filter_lookups = true;
  } else {
    c.heuristics.allgather_kmers = true;  // fig5 "allgather both"
    c.heuristics.allgather_tiles = true;
  }
  return c;
}

Rep run_dist(const Data& d, const parallel::DistConfig& config, SpanLog& log,
             OutputCheck& check) {
  Rep rep;
  ScopedSpan root(log, "rep");
  reset_peak_rss();
  std::vector<seq::Read> build = d.ds.reads;
  auto t0 = Clock::now();
  std::optional<parallel::CorrectionServer> server;
  {
    ScopedSpan s(log, "setup", root.id());
    server.emplace(std::move(build), config);
  }
  rep.setup_s = seconds_since(t0);
  std::uint64_t spectrum_bytes = 0;
  for (const auto& b : server->build_reports()) {
    spectrum_bytes = std::max<std::uint64_t>(
        spectrum_bytes, b.footprint_after_construction.bytes);
  }

  // Message counters are world-cumulative: an empty job first reports the
  // counts after set-up, the base of the first job's own traffic.
  std::vector<rtm::TrafficSnapshot> base;
  for (const auto& r : server->submit({}).get().ranks) {
    base.push_back(r.traffic);
  }
  for (int job = 0; job < kJobsPerRep; ++job) {
    parallel::JobRequest request;
    request.reads = d.pick(d.ds.reads);
    t0 = Clock::now();
    parallel::JobReport report;
    {
      ScopedSpan span(log, "correct", root.id());
      report = server->submit(std::move(request)).get();
    }
    rep.correct_s.push_back(seconds_since(t0));
    Counts counts;
    counts.spectrum_bytes = spectrum_bytes;
    for (std::size_t r = 0; r < report.ranks.size(); ++r) {
      const parallel::RankReport& rr = report.ranks[r];
      counts.lookups += rr.lookups.kmer_lookups + rr.lookups.tile_lookups;
      counts.untrusted_tiles += rr.tiles_untrusted;
      RankCounts rc;
      rc.reads = rr.reads_processed;
      rc.remote_lookups = rr.remote.remote_lookups();
      rc.batch_ids = rr.remote.batch_ids();
      rc.prefetch_hits = rr.remote.prefetch_hits;
      rc.filter_neg_hits = rr.remote.filter_neg_hits;
      rc.filter_false_positives = rr.remote.filter_false_positives;
      rc.msgs = rr.traffic.sent_msgs() - base[r].sent_msgs();
      rc.bytes = rr.traffic.sent_bytes() - base[r].sent_bytes();
      base[r] = rr.traffic;
      counts.ranks.push_back(rc);
    }
    record_job_counts(rep, std::move(counts));
    check.job(report.corrected, report.degraded);
  }
  rep.rss_mb = peak_rss_mb();
  server->shutdown();
  return rep;
}

// --- layer probes (traced runs only) -----------------------------------------

struct Probes {
  double extract_ns_per_base = 0;
  double probe_hit_ns = 0;
  double probe_miss_ns = 0;
  double insert_ns = 0;
  double correct_us_per_read = 0;
  double pingpong_p50_us = 0;
  double pingpong_p99_us = 0;
  double rtt_p50_us = 0;
  double rtt_p99_us = 0;
  double batch_ns_per_id = 0;
};

/// Keeps probe results live so the timed loops cannot be elided.
volatile std::uint64_t sink = 0;

/// Times `fn` over `ids` and returns ns per ID.
template <class Fn>
double ns_per_id(const std::vector<std::uint64_t>& ids, Fn fn) {
  if (ids.empty()) return 0.0;
  std::uint64_t sum = 0;
  const auto t0 = Clock::now();
  for (const std::uint64_t id : ids) sum += fn(id);
  const double s = seconds_since(t0);
  sink = sum;
  return s * 1e9 / static_cast<double>(ids.size());
}

/// seq, hash and core probes over the workload's sample against a local
/// spectrum built from the whole replica.
void probe_local_layers(const Data& d, const std::vector<seq::Read>& sample,
                        const core::CorrectorParams& params, SpanLog& log,
                        int parent, Probes& p) {
  core::LocalSpectrum spectrum(params);
  {
    ScopedSpan s(log, "probe_build_local_spectrum", parent);
    for (const auto& r : d.ds.reads) spectrum.add_read(r.bases);
    spectrum.prune();
  }

  const core::SpectrumExtractor extractor(params);
  std::vector<std::uint64_t> kmers, tiles;
  std::uint64_t bases = 0;
  {
    ScopedSpan s(log, "probe_extract", parent);
    const auto t0 = Clock::now();
    for (const auto& r : sample) {
      extractor.extract(r.bases, kmers, tiles);
      bases += r.bases.size();
    }
    p.extract_ns_per_base =
        seconds_since(t0) * 1e9 / static_cast<double>(bases);
  }

  // Split the sample's IDs into hits and misses of the pruned tables, then
  // time each group separately.
  std::vector<std::uint64_t> kmer_hits, kmer_misses, tile_hits, tile_misses;
  for (const auto id : kmers) {
    (spectrum.kmers().contains(id) ? kmer_hits : kmer_misses).push_back(id);
  }
  for (const auto id : tiles) {
    (spectrum.tiles().contains(id) ? tile_hits : tile_misses).push_back(id);
  }
  const auto find_in = [](const hash::CountTable<>& table) {
    return [&table](std::uint64_t id) -> std::uint64_t {
      return table.find(id).value_or(0) + 1;
    };
  };
  {
    ScopedSpan s(log, "probe_hash_find", parent);
    const double kh = ns_per_id(kmer_hits, find_in(spectrum.kmers()));
    const double th = ns_per_id(tile_hits, find_in(spectrum.tiles()));
    const double km = ns_per_id(kmer_misses, find_in(spectrum.kmers()));
    const double tm = ns_per_id(tile_misses, find_in(spectrum.tiles()));
    const auto weighted = [](double a, std::size_t na, double b,
                             std::size_t nb) {
      return na + nb == 0 ? 0.0
                          : (a * static_cast<double>(na) +
                             b * static_cast<double>(nb)) /
                                static_cast<double>(na + nb);
    };
    p.probe_hit_ns = weighted(kh, kmer_hits.size(), th, tile_hits.size());
    p.probe_miss_ns = weighted(km, kmer_misses.size(), tm, tile_misses.size());
  }
  {
    ScopedSpan s(log, "probe_hash_insert", parent);
    hash::CountTable<> table;
    p.insert_ns = ns_per_id(kmers, [&table](std::uint64_t id) -> std::uint64_t {
      return table.increment(id);
    });
  }
  {
    ScopedSpan s(log, "probe_correct", parent);
    const core::TileCorrector corrector(params);
    // An untimed pass first, so the timed one finds the spectrum's hot
    // entries cached as a long correction loop does.
    std::vector<seq::Read> reads = sample;
    for (auto& r : reads) corrector.correct(r, spectrum);
    reads = sample;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < reads.size(); i += params.chunk_size) {
      ScopedSpan chunk(log, "correct_chunk", s.id());
      const std::size_t stop = std::min(reads.size(), i + params.chunk_size);
      for (std::size_t j = i; j < stop; ++j) {
        corrector.correct(reads[j], spectrum);
      }
    }
    p.correct_us_per_read =
        seconds_since(t0) * 1e6 / static_cast<double>(reads.size());
  }
}

rtm::RunOptions unchecked() {
  rtm::RunOptions options;
  options.check.enabled = false;
  return options;
}

/// 2-rank blocking ping-pong of lookup-sized messages through rtm::Comm.
void probe_pingpong(Probes& p) {
  std::vector<double> rtt_us;
  rtt_us.reserve(kPingPongRounds);
  rtm::run_world(
      {kRanks, 1},
      [&](rtm::Comm& comm) {
        constexpr int kPing = 3, kPong = 4;
        comm.barrier();
        for (int i = 0; i < kPingPongRounds; ++i) {
          if (comm.rank() == 0) {
            parallel::LookupRequest req;
            req.id = static_cast<std::uint64_t>(i);
            const auto t0 = Clock::now();
            comm.send_value(1, kPing, req);
            (void)comm.recv(1, kPong).as_value<parallel::LookupReply>();
            rtt_us.push_back(seconds_since(t0) * 1e6);
          } else {
            const auto req =
                comm.recv(0, kPing).as_value<parallel::LookupRequest>();
            parallel::LookupReply reply;
            reply.seq = req.id;
            comm.send_value(0, kPong, reply);
          }
        }
        comm.barrier();
      },
      unchecked());
  p.pingpong_p50_us = percentile(rtt_us, 0.50);
  p.pingpong_p99_us = percentile(rtt_us, 0.99);
}

/// Remote lookups against a live LookupService in a 2-rank world whose
/// spectrum is built from the whole replica: scalar
/// RemoteSpectrumView::kmer_count on IDs rank 1 owns, timed per call, and
/// prefetch_chunk over the sample's chunks, timed per deduplicated ID.
void probe_remote(const Data& d, const std::vector<seq::Read>& sample,
                  const core::CorrectorParams& params, Probes& p) {
  std::vector<double> rtt_us;
  double batch_seconds = 0;
  std::uint64_t batch_ids = 0;
  rtm::run_world(
      {kRanks, 1},
      [&](rtm::Comm& comm) {
        parallel::DistSpectrum spectrum(params, parallel::Heuristics{}, comm);
        const std::size_t n = d.ds.reads.size();
        const auto r = static_cast<std::size_t>(comm.rank());
        for (std::size_t i = n * r / kRanks; i < n * (r + 1) / kRanks; ++i) {
          spectrum.add_read(d.ds.reads[i].bases);
        }
        spectrum.exchange_to_owners();
        spectrum.prune();
        comm.reset_done();
        if (comm.rank() == 1) {
          parallel::LookupService service(comm, spectrum);
          std::thread server([&service] { service.serve(); });
          comm.signal_done();
          server.join();
        } else {
          std::vector<std::uint64_t> kmers, tiles, remote;
          for (const auto& read : sample) {
            spectrum.extractor().extract(read.bases, kmers, tiles);
          }
          for (const auto id : kmers) {
            if (!spectrum.owns_kmer(id)) remote.push_back(id);
            if (remote.size() == kRttLookups) break;
          }
          parallel::RemoteSpectrumView scalar(comm, spectrum);
          rtt_us.reserve(remote.size());
          for (const auto id : remote) {
            const auto t0 = Clock::now();
            (void)scalar.kmer_count(id);
            rtt_us.push_back(seconds_since(t0) * 1e6);
          }
          parallel::Heuristics batched;
          batched.batch_lookups = true;
          parallel::RemoteSpectrumView view(comm, spectrum, 0, false, {},
                                            &batched);
          for (std::size_t i = 0; i < sample.size(); i += params.chunk_size) {
            const seq::ReadBatch chunk(
                sample.begin() + static_cast<long>(i),
                sample.begin() +
                    static_cast<long>(std::min(sample.size(),
                                               i + params.chunk_size)));
            const auto t0 = Clock::now();
            view.prefetch_chunk(chunk);
            batch_seconds += seconds_since(t0);
          }
          batch_ids = view.remote_stats().batch_ids();
          comm.signal_done();
        }
        comm.barrier();
      },
      unchecked());
  p.rtt_p50_us = percentile(rtt_us, 0.50);
  p.rtt_p99_us = percentile(rtt_us, 0.99);
  p.batch_ns_per_id = batch_ids == 0 ? 0.0
                                     : batch_seconds * 1e9 /
                                           static_cast<double>(batch_ids);
}

// --- measuring loop ---------------------------------------------------------

/// What the repetitions of one run produced.
struct Run {
  std::vector<Rep> reps;  ///< those that did not throw
  std::uint64_t attempted = 0;  ///< reads submitted, over all jobs
  /// Reads that differ from the reference, plus every read of a job that
  /// threw or reported degraded evidence.
  std::uint64_t failed = 0;
  double gain = 0;
  bool counts_stable = true;  ///< every job's counters equal the first's
  std::uint64_t steal_ticks = 0;
  double window_s = 0;
};

/// Closed loop, one repetition at a time, until the window has passed.
/// Traced runs alternate untraced and traced repetitions, so the tracing
/// overhead is measured in the same process.
Run measure(const Args& args, const Data& data,
            const core::CorrectorParams& params, SpanLog& log,
            Clock::time_point started) {
  const parallel::DistConfig config = dist_config(args.workload, params);
  const std::size_t min_reps = 3;
  OutputCheck check(data, args.tamper);
  Run run;
  std::size_t started_reps = 0;
  const std::uint64_t steal_before = steal_ticks();
  const auto window = Clock::now();
  const auto another = [&] {
    if (started_reps == 0) return true;
    if (seconds_since(started) > kRepBudgetSeconds) return false;
    return started_reps < min_reps ||
           (seconds_since(window) < args.seconds && started_reps < kMaxReps);
  };
  while (another()) {
    const bool traced = args.trace && started_reps % 2 == 1;
    log.set_enabled(traced);
    try {
      Rep rep = args.workload == "seq_local"
                    ? run_seq_local(data, params, log, check)
                    : run_dist(data, config, log, check);
      rep.cold = started_reps == 0;
      rep.traced = traced;
      if (!rep.counts_stable ||
          (!run.reps.empty() && !(rep.counts == run.reps.front().counts))) {
        run.counts_stable = false;
      }
      run.reps.push_back(std::move(rep));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: repetition threw: %s\n", e.what());
      check.threw();
    }
    log.set_enabled(false);
    ++started_reps;
  }
  run.steal_ticks = steal_ticks() - steal_before;
  run.window_s = seconds_since(window);
  run.attempted = check.attempted();
  run.failed = check.failed();
  run.gain = check.gain();
  return run;
}

// --- report -----------------------------------------------------------------

struct Metric {
  std::string name;
  const char* unit;
  double value;
};

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

double as_double(std::uint64_t v) { return static_cast<double>(v); }

/// Metrics derived from the exact counters: the same in every run of one
/// seed, traced or not.
std::vector<Metric> count_metrics(const Counts& c, std::size_t reads,
                                  double gain) {
  std::uint64_t remote_max = 0, remote_sum = 0, hits = 0, msgs = 0, bytes = 0;
  double remote_per_read_max = 0, fp_rate_max = 0;
  for (const RankCounts& r : c.ranks) {
    remote_max = std::max(remote_max, r.remote_lookups);
    remote_sum += r.remote_lookups;
    hits += r.prefetch_hits;
    msgs += r.msgs;
    bytes += r.bytes;
    remote_per_read_max =
        std::max(remote_per_read_max,
                 ratio(as_double(r.remote_lookups), as_double(r.reads)));
    const std::uint64_t filtered =
        r.filter_neg_hits + r.filter_false_positives;
    fp_rate_max =
        std::max(fp_rate_max, ratio(as_double(r.filter_false_positives),
                                    as_double(filtered)));
  }
  const auto per_read = [reads](std::uint64_t v) {
    return ratio(as_double(v), static_cast<double>(reads));
  };
  // With no remote lookups at all the ranks are balanced by definition.
  const double imbalance =
      remote_sum == 0 ? 1.0
                      : as_double(remote_max) *
                            static_cast<double>(c.ranks.size()) /
                            as_double(remote_sum);
  return {
      {"spectrum_mb_per_rank", "MB", as_double(c.spectrum_bytes) / kMiB},
      {"gain", "ratio", gain},
      {"core.lookups_per_read", "1", per_read(c.lookups)},
      {"core.untrusted_tiles_per_read", "1", per_read(c.untrusted_tiles)},
      {"rtm.msgs_per_read", "1", per_read(msgs)},
      {"rtm.bytes_per_read", "B", per_read(bytes)},
      {"parallel.remote_lookups_per_read", "1", remote_per_read_max},
      {"parallel.remote_lookup_imbalance", "ratio", imbalance},
      {"parallel.prefetch_hit_share", "ratio",
       ratio(as_double(hits), as_double(hits + remote_sum))},
      {"parallel.filter_fp_rate", "ratio", fp_rate_max},
  };
}

void print_rep_table(const Run& run, int busy_threads) {
  std::printf("\nrep  start  traced  setup_s     peak_rss_mb  "
              "correct_s per job\n");
  for (std::size_t i = 0; i < run.reps.size(); ++i) {
    const Rep& r = run.reps[i];
    std::printf("%-4zu %-6s %-7d %-11.4f %-12.1f", i, r.cold ? "cold" : "warm",
                r.traced ? 1 : 0, r.setup_s, r.rss_mb);
    for (const double s : r.correct_s) std::printf(" %.4f", s);
    std::printf("\n");
  }
  std::printf("noise: steal_ticks=%llu busy_threads=%d reps=%zu "
              "window_s=%.2f\n",
              static_cast<unsigned long long>(run.steal_ticks), busy_threads,
              run.reps.size(), run.window_s);
  std::printf("\n%-22s %-6s %-14s %-14s %-14s %s\n", "metric", "unit",
              "median", "q1", "q3", "n");
}

/// One row of the metric table: median with its quartiles.
void print_row(const char* name, const char* unit,
               const std::vector<double>& v) {
  const auto [q1, q3] = quartiles(v);
  std::printf("%-22s %-6s %-14.6g %-14.6g %-14.6g %zu\n", name, unit,
              median(v), q1, q3, v.size());
}

void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

Probes run_probes(const Data& data, const core::CorrectorParams& params,
                  SpanLog& log) {
  Probes p;
  log.set_enabled(true);
  {
    ScopedSpan probes(log, "probes");
    const std::vector<seq::Read> sample = probe_sample(data);
    probe_local_layers(data, sample, params, log, probes.id(), p);
    {
      ScopedSpan s(log, "probe_pingpong", probes.id());
      probe_pingpong(p);
    }
    {
      ScopedSpan s(log, "probe_remote", probes.id());
      probe_remote(data, sample, params, p);
    }
  }
  log.set_enabled(false);
  return p;
}

/// Closure prediction of the correction wall: the slowest rank's reads x
/// local corrector CPU + remote lookups x scalar round trip + batched IDs x
/// batched cost per ID.
double predict_correct_s(const Counts& c, const Probes& p) {
  double predicted = 0;
  for (const RankCounts& r : c.ranks) {
    predicted = std::max(
        predicted, as_double(r.reads) * p.correct_us_per_read * 1e-6 +
                       as_double(r.remote_lookups) * p.rtt_p50_us * 1e-6 +
                       as_double(r.batch_ids) * p.batch_ns_per_id * 1e-9);
  }
  return predicted;
}

}  // namespace

int main(int argc, char** argv) {
  const auto started = Clock::now();
  const Args args = parse_args(argc, argv);
  const core::CorrectorParams params = bench::bench_params();
  const int busy_threads =
      args.workload == "seq_local" ? 1 : kRanks * kBusyThreadsPerRank;

  const Data data = make_data(args, params);
  std::printf("perfbench workload=%s seed=%llu replica_reads=%zu "
              "corrected_reads=%zu busy_threads=%d hw_threads=%u "
              "dataset=%016llx\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              data.ds.reads.size(), data.n(), busy_threads,
              std::thread::hardware_concurrency(),
              static_cast<unsigned long long>(data.fingerprint));

  SpanLog log(args.workload);
  const Run run = measure(args, data, params, log, started);

  // End-to-end figures come from the untraced repetitions only.
  std::vector<double> setup, rate, rss, correct, wall_plain, wall_traced;
  for (const Rep& r : run.reps) {
    // The first repetition also pays process warm-up, which is not a cost
    // of tracing, so the overhead compares warm repetitions only.
    if (!r.cold) {
      double wall = r.setup_s;
      for (const double s : r.correct_s) wall += s;
      (r.traced ? wall_traced : wall_plain).push_back(wall);
    }
    if (r.traced) continue;
    setup.push_back(r.setup_s);
    rss.push_back(r.rss_mb);
    for (const double s : r.correct_s) {
      correct.push_back(s);
      rate.push_back(ratio(static_cast<double>(data.n()), s));
    }
  }
  const Counts c = run.reps.empty() ? Counts{} : run.reps.front().counts;
  const std::vector<Metric> counted = count_metrics(c, data.n(), run.gain);
  const double spectrum_mb = counted[0].value;

  print_rep_table(run, busy_threads);
  print_row("setup_s", "s", setup);
  print_row("reads_per_s", "1/s", rate);
  print_row("peak_rss_mb", "MB", rss);
  print_row("spectrum_mb_per_rank", "MB", {spectrum_mb});
  print_row("gain", "ratio", {run.gain});
  print_row("failed_share", "ratio",
            {ratio(as_double(run.failed), as_double(run.attempted))});
  for (std::size_t r = 0; r < c.ranks.size(); ++r) {
    const RankCounts& k = c.ranks[r];
    std::printf("rank %zu: reads=%llu remote_lookups=%llu batch_ids=%llu "
                "prefetch_hits=%llu filter_neg_hits=%llu "
                "filter_false_positives=%llu msgs=%llu bytes=%llu\n",
                r, static_cast<unsigned long long>(k.reads),
                static_cast<unsigned long long>(k.remote_lookups),
                static_cast<unsigned long long>(k.batch_ids),
                static_cast<unsigned long long>(k.prefetch_hits),
                static_cast<unsigned long long>(k.filter_neg_hits),
                static_cast<unsigned long long>(k.filter_false_positives),
                static_cast<unsigned long long>(k.msgs),
                static_cast<unsigned long long>(k.bytes));
  }
  std::printf("\ncounts stable=%s", run.counts_stable ? "true" : "false");
  for (const Metric& m : counted) {
    std::printf(" %s=%.17g", m.name.c_str(), m.value);
  }
  std::printf("\n");

  const bool correct_output = run.failed == 0;
  if (!args.trace) {
    print_json(correct_output, run.attempted, run.failed,
               {{"setup_s", "s", median(setup)},
                {"reads_per_s", "1/s", median(rate)},
                {"peak_rss_mb", "MB", median(rss)},
                {"spectrum_mb_per_rank", "MB", spectrum_mb},
                {"gain", "ratio", run.gain}});
    return 0;
  }

  const Probes p = run_probes(data, params, log);
  const double predicted = predict_correct_s(c, p);
  const double measured = median(correct);
  const double residual = ratio(measured - predicted, measured);
  std::printf("closure: predicted_correct_s=%.4f measured_correct_s=%.4f "
              "residual_share=%.4f (max rank: reads x %.3f us + remote x "
              "%.2f us + batch ids x %.1f ns)\n",
              predicted, measured, residual, p.correct_us_per_read,
              p.rtt_p50_us, p.batch_ns_per_id);

  if (!args.spans_path.empty() && !log.write(args.spans_path, args.seed)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 args.spans_path.c_str());
    return 1;
  }

  std::vector<Metric> layer = {
      {"seq.extract_ns_per_base", "ns", p.extract_ns_per_base},
      {"hash.probe_hit_ns", "ns", p.probe_hit_ns},
      {"hash.probe_miss_ns", "ns", p.probe_miss_ns},
      {"hash.insert_ns", "ns", p.insert_ns},
      {"core.correct_us_per_read", "us", p.correct_us_per_read},
      {"rtm.pingpong_p50_us", "us", p.pingpong_p50_us},
      {"rtm.pingpong_p99_us", "us", p.pingpong_p99_us},
      {"parallel.lookup_rtt_p50_us", "us", p.rtt_p50_us},
      {"parallel.lookup_rtt_p99_us", "us", p.rtt_p99_us},
      {"parallel.batch_ns_per_id", "ns", p.batch_ns_per_id},
      {"closure.predicted_correct_s", "s", predicted},
      {"closure.residual_share", "ratio", residual},
      {"obs.trace_overhead_share", "ratio",
       ratio(median(wall_traced), median(wall_plain)) - 1.0},
  };
  // spectrum_mb_per_rank and gain are end-to-end metrics; the rest of the
  // counters are per-layer.
  layer.insert(layer.end(), counted.begin() + 2, counted.end());
  print_json(correct_output, run.attempted, run.failed, layer);
  return 0;
}
