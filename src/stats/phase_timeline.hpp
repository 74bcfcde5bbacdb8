#pragma once
// The unified report core shared by every pipeline driver.
//
// One run produces one report per rank (or one total, sequentially); before
// this header existed each driver hand-copied the same timing/counter fields
// into its own result struct (core::SequentialResult,
// parallel::RankReport, parallel::BaselineRankReport) and re-implemented the
// same max/total reductions over them. PhaseTimeline is the single struct
// all three now inherit: per-stage wall time, the peak construction
// footprint sampled per chunk, and the lookup/remote/service counters the
// paper's figures are built from. It is also the instrumentation seam the
// perfmodel calibration and the per-rank report tables read.
//
// The counter structs below (LookupStats, RemoteLookupStats, ServiceStats,
// SpectrumFootprint) historically lived in core/ and parallel/; they are
// pure counters with no dependencies, so they moved down here and the old
// namespaces re-export them under their original names.
//
// Each counter struct lists its members once, in `fields()`; the member-wise
// sum and difference below iterate that list, so adding a counter means
// adding one member and one list entry.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace reptile::stats {

/// A counter struct: lists its members once in a static `fields()`.
template <class S>
concept CounterFields = requires { S::fields(); };

/// Member-wise sum of two counter structs.
template <CounterFields S>
constexpr S& operator+=(S& into, const S& from) noexcept {
  for (const auto member : S::fields()) into.*member += from.*member;
  return into;
}

/// Member-wise difference (a delta since a snapshot).
template <CounterFields S>
constexpr S& operator-=(S& into, const S& from) noexcept {
  for (const auto member : S::fields()) into.*member -= from.*member;
  return into;
}

/// Lookup-side instrumentation. The paper's evaluation hinges on these
/// counters (remote tile lookups per rank, misses on non-existent tiles).
struct LookupStats {
  std::uint64_t kmer_lookups = 0;
  std::uint64_t kmer_misses = 0;  ///< lookups that found no entry
  std::uint64_t tile_lookups = 0;
  std::uint64_t tile_misses = 0;

  static constexpr auto fields() {
    return std::array{&LookupStats::kmer_lookups, &LookupStats::kmer_misses,
                      &LookupStats::tile_lookups, &LookupStats::tile_misses};
  }
};

/// Remote-side counters for one rank's correction phase.
struct RemoteLookupStats {
  std::uint64_t remote_kmer_lookups = 0;
  std::uint64_t remote_tile_lookups = 0;
  std::uint64_t remote_kmer_absent = 0;  ///< replies that said "not in spectrum"
  std::uint64_t remote_tile_absent = 0;
  std::uint64_t reads_table_hits = 0;    ///< resolved by the reads tables
  std::uint64_t group_lookups = 0;       ///< resolved by partial replication

  // batch_lookups extension counters. The dedup counts are kept per kind
  // because round dedup is per kind too (one queue per table): a numeric ID
  // appearing in both the k-mer and the tile requests of one round is two
  // distinct spectrum entries and must count in both tables — a merged
  // counter would hide a cross-kind accounting bug (regression-tested in
  // test_batch_lookup.cpp).
  std::uint64_t batch_requests = 0;      ///< vectored requests sent (one per
                                         ///< owner, kind and round)
  std::uint64_t batch_kmer_ids = 0;      ///< deduped k-mer IDs sent
  std::uint64_t batch_tile_ids = 0;      ///< deduped tile IDs sent
  std::uint64_t batch_kmer_ids_raw = 0;  ///< remote-needing k-mer IDs pre-dedup
  std::uint64_t batch_tile_ids_raw = 0;  ///< remote-needing tile IDs pre-dedup
  std::uint64_t prefetch_hits = 0;    ///< lookups answered by the chunk cache
  std::uint64_t prefetch_misses = 0;  ///< fell through the cache to scalar

  // filter_lookups extension counters.
  std::uint64_t filter_neg_hits = 0;  ///< remote lookups answered "absent"
                                      ///< locally by a peer filter
  std::uint64_t filter_false_positives = 0;  ///< filter said maybe, owner
                                             ///< replied absent (wasted trip)

  // Timeout/retry protocol counters (RetryPolicy; all 0 on fault-free runs
  // with retries disabled).
  std::uint64_t lookup_retries = 0;   ///< scalar requests retransmitted
  std::uint64_t lookup_timeouts = 0;  ///< reply waits that expired
  std::uint64_t degraded_lookups = 0; ///< scalar lookups given up after
                                      ///< max_retries (corrector skips)
  std::uint64_t stale_replies_suppressed = 0;  ///< seq-mismatched replies
  std::uint64_t malformed_replies = 0;  ///< undecodable replies discarded
  std::uint64_t batch_retries = 0;    ///< batch requests retransmitted
  std::uint64_t batch_abandoned = 0;  ///< batches given up (IDs go scalar)

  std::uint64_t remote_lookups() const noexcept {
    return remote_kmer_lookups + remote_tile_lookups;
  }

  /// Deduped IDs carried by vectored requests, both kinds.
  std::uint64_t batch_ids() const noexcept {
    return batch_kmer_ids + batch_tile_ids;
  }

  /// Remote-needing IDs before per-round dedup, both kinds.
  std::uint64_t batch_ids_raw() const noexcept {
    return batch_kmer_ids_raw + batch_tile_ids_raw;
  }

  /// Average IDs per vectored request (0 when none were sent).
  double avg_batch_size() const noexcept {
    return batch_requests == 0
               ? 0.0
               : static_cast<double>(batch_ids()) /
                     static_cast<double>(batch_requests);
  }

  /// Fraction of remote-needing IDs removed by per-round deduplication.
  double dedup_ratio() const noexcept {
    return batch_ids_raw() == 0
               ? 0.0
               : 1.0 - static_cast<double>(batch_ids()) /
                           static_cast<double>(batch_ids_raw());
  }

  /// Fraction of would-be remote lookups answered by the prefetch cache.
  double prefetch_hit_rate() const noexcept {
    const std::uint64_t total = prefetch_hits + prefetch_misses;
    return total == 0 ? 0.0
                      : static_cast<double>(prefetch_hits) /
                            static_cast<double>(total);
  }

  static constexpr auto fields() {
    using S = RemoteLookupStats;
    return std::array{&S::remote_kmer_lookups, &S::remote_tile_lookups,
                      &S::remote_kmer_absent, &S::remote_tile_absent,
                      &S::reads_table_hits, &S::group_lookups,
                      &S::batch_requests, &S::batch_kmer_ids,
                      &S::batch_tile_ids, &S::batch_kmer_ids_raw,
                      &S::batch_tile_ids_raw, &S::prefetch_hits,
                      &S::prefetch_misses, &S::filter_neg_hits,
                      &S::filter_false_positives, &S::lookup_retries,
                      &S::lookup_timeouts, &S::degraded_lookups,
                      &S::stale_replies_suppressed, &S::malformed_replies,
                      &S::batch_retries, &S::batch_abandoned};
  }
};

/// Per-service counters (the communication thread), read after the join.
struct ServiceStats {
  std::uint64_t requests_served = 0;  ///< messages answered (scalar + batch)
  std::uint64_t kmer_requests = 0;    ///< scalar k-mer requests
  std::uint64_t tile_requests = 0;    ///< scalar tile requests
  std::uint64_t probe_calls = 0;  ///< tag probes (non-universal mode only)
  std::uint64_t absent_replies = 0;   ///< -1 answers, scalar or batched
  std::uint64_t batch_requests = 0;   ///< vectored requests answered
  std::uint64_t batch_ids_served = 0; ///< IDs looked up across all batches
  /// Requests dropped unanswered because the payload was malformed (wrong
  /// size / truncated by fault injection). The requester's timeout retry
  /// recovers; answering garbage would be worse than staying silent.
  std::uint64_t malformed_requests = 0;
  /// Stall-delayed filter-exchange copies drained (discarded) at the end of
  /// the serve loop. Always 0 on fault-free runs: the exchange completes
  /// before the service starts.
  std::uint64_t filter_stragglers = 0;

  static constexpr auto fields() {
    using S = ServiceStats;
    return std::array{&S::requests_served, &S::kmer_requests, &S::tile_requests,
                      &S::probe_calls, &S::absent_replies, &S::batch_requests,
                      &S::batch_ids_served, &S::malformed_requests,
                      &S::filter_stragglers};
  }
};

/// Sizes/memory snapshot of the spectrum tables (plus replicas). Sequential
/// and baseline runs fill only the hash_* entries and bytes.
struct SpectrumFootprint {
  std::size_t hash_kmer_entries = 0;
  std::size_t hash_tile_entries = 0;
  std::size_t reads_kmer_entries = 0;
  std::size_t reads_tile_entries = 0;
  std::size_t replica_kmer_entries = 0;
  std::size_t replica_tile_entries = 0;
  std::size_t filter_bytes = 0;  ///< peer membership filters (filter_lookups)
  std::size_t bytes = 0;  ///< total table memory (filters included)
};

/// One resource-ledger account's attribution for a run (obs-free mirror of
/// obs::LedgerSnapshot; the pipeline layer fills it when the ledger is
/// armed, so stats/ stays dependency-free).
struct LedgerAccountSample {
  const char* account = "";             ///< stable snake_case account name
  std::uint64_t build_end_bytes = 0;    ///< balance when construction ended
  std::uint64_t peak_bytes = 0;         ///< high-water mark over the run
};

/// One stage's sample in a run's timeline, recorded by the stage graph.
struct StageSample {
  std::string stage;               ///< stage name, e.g. "build_spectrum"
  double seconds = 0;              ///< stage wall time
  std::size_t spectrum_bytes = 0;  ///< spectrum footprint at stage end
};

/// The shared core of every per-rank (or sequential) report: what one rank
/// measured, independent of which driver ran it.
struct PhaseTimeline {
  std::uint64_t reads_processed = 0;
  std::uint64_t reads_changed = 0;
  std::uint64_t substitutions = 0;   ///< "errors corrected" in the figures
  std::uint64_t tiles_untrusted = 0;
  std::uint64_t tiles_fixed = 0;
  /// Tiles conservatively skipped because a backing lookup degraded (gave
  /// up after timeout retries). Always 0 on fault-free runs.
  std::uint64_t tiles_degraded = 0;
  /// Reads passed through UNCORRECTED because the job's correction-phase
  /// deadline expired (serve-mode SLO). The job is marked degraded; the
  /// reads are never miscorrected. Always 0 when no deadline is set.
  std::uint64_t reads_deadline_skipped = 0;
  std::uint64_t batches = 0;  ///< construction-phase chunks processed
  /// Non-empty work-queue grants received (the dynamic prior-art baseline
  /// only; 0 everywhere else).
  std::uint64_t work_grants = 0;

  LookupStats lookups;        ///< correction-phase lookups issued
  RemoteLookupStats remote;   ///< of which remote
  ServiceStats service;       ///< requests served for other ranks

  SpectrumFootprint footprint_after_construction;
  SpectrumFootprint footprint_after_correction;
  /// Peak construction-phase footprint (sampled after each chunk; the
  /// batch-reads heuristic exists to cap exactly this).
  std::size_t construction_peak_bytes = 0;

  double construct_seconds = 0;  ///< k-mer construction wall time
  double correct_seconds = 0;    ///< error-correction wall time
  double comm_seconds = 0;       ///< of which blocked on remote replies

  /// Per-stage wall times in graph order, recorded by pipeline::StageGraph.
  std::vector<StageSample> stages;

  /// Per-account resource-ledger attribution (empty unless the run armed
  /// the ledger, DistConfig::trace.ledger). The ledger is process-global,
  /// so in the in-process runtime every rank's rows carry the same values —
  /// the world-wide bill, analogous to an MPI job's per-node RSS.
  std::vector<LedgerAccountSample> ledger;
  std::uint64_t ledger_total_peak_bytes = 0;  ///< hwm of the live total
  std::uint64_t ledger_rss_peak_bytes = 0;    ///< OS cross-check (statm)

  /// The scalar counters above, listed once.
  static constexpr auto counters() {
    using S = PhaseTimeline;
    return std::array{&S::reads_processed, &S::reads_changed, &S::substitutions,
                      &S::tiles_untrusted, &S::tiles_fixed, &S::tiles_degraded,
                      &S::reads_deadline_skipped, &S::batches, &S::work_grants};
  }

  /// Adds another timeline's counters (scalar, lookup, remote, service)
  /// into this one. Footprints, seconds and samples do not sum; callers
  /// combine those themselves.
  void add_counters(const PhaseTimeline& other) noexcept {
    for (const auto member : counters()) this->*member += other.*member;
    lookups += other.lookups;
    remote += other.remote;
    service += other.service;
  }

  /// The timeline slice of a derived report (assignment target for the
  /// stage graph's accumulated core).
  PhaseTimeline& timeline() noexcept { return *this; }
  const PhaseTimeline& timeline() const noexcept { return *this; }
};

/// Sum of one member over a range of report rows. `member` may point into
/// PhaseTimeline or into the derived report type itself, so the same helper
/// reduces shared fields (substitutions) and driver-specific ones
/// (chunks_granted).
template <class Range, class Row, class T>
T field_total(const Range& rows, T Row::* member) {
  T acc{};
  for (const auto& r : rows) acc += r.*member;
  return acc;
}

/// Maximum of one member over a range of report rows (zero when empty).
template <class Range, class Row, class T>
T field_max(const Range& rows, T Row::* member) {
  T best{};
  for (const auto& r : rows) {
    if (r.*member > best) best = r.*member;
  }
  return best;
}

}  // namespace reptile::stats
