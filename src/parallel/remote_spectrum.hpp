#pragma once
// SpectrumView over the distributed spectrum: the worker thread's lookup
// chain.
//
// Paper Step IV lookup strategy: "If a rank during error correction does not
// have a k-mer (or tile), it first finds out if it is the owning rank. In
// case the processing rank p is the owning rank, this implies that the k-mer
// or tile does not exist; in case the processing rank is not the owning
// rank, it looks up its readsKmer hash table (in case of the corresponding
// mode of execution). If the k-mer is not found, it sends a message to the
// owning rank, requesting the count."
//
// Chain, in order (first hit wins):
//   1. replicated table        (allgather_* heuristics; never remote)
//   2. owned table             (when this rank is the owner — a miss here is
//                               a definitive global absence)
//   3. group table             (partial replication, the paper's Section V
//                               future work: definitive for owners inside
//                               this rank's replication group)
//   4. reads table             (read_kmers heuristic; holds global counts)
//   5. peer filter             (filter_lookups extension: the owner's
//                               exchanged membership filter; "definitely
//                               absent" is exact — the owner would reply -1
//                               — and answers locally; "maybe" falls
//                               through and pays the wire)
//   6. prefetch cache          (batch_lookups extension: chunk-local counts
//                               fetched in rounds with one vectored request
//                               per owner; counts here are verbatim remote
//                               replies, so hits are exact. A miss while the
//                               chunk's rounds run is deferred to the next
//                               round instead of going to step 7)
//   7. remote request/reply    (blocking; reply -1 maps to count 0);
//      with add_remote the reply is cached into the reads table (shared,
//      single worker) or this worker's prefetch cache (multi-worker).

#include <array>
#include <cstdint>
#include <vector>

#include "core/spectrum.hpp"
#include "hash/count_table.hpp"
#include "obs/metrics.hpp"
#include "parallel/dist_spectrum.hpp"
#include "parallel/protocol.hpp"
#include "rtm/comm.hpp"
#include "seq/read.hpp"
#include "stats/phase_timeline.hpp"
#include "stats/stopwatch.hpp"

namespace reptile::parallel {

/// Remote-side counters for one rank's correction phase; the definition
/// lives in the unified report core (stats/phase_timeline.hpp).
using RemoteLookupStats = stats::RemoteLookupStats;

class RemoteSpectrumView final : public core::SpectrumView {
 public:
  /// `worker_slot` distinguishes concurrent correction worker threads of
  /// one rank: each slot's remote requests carry their own reply tag so
  /// replies route back to the right thread. Slot 0 is the single-threaded
  /// default. With `cache_remote_locally` the add_remote heuristic caches
  /// scalar replies into this worker's chunk-local prefetch cache instead
  /// of the shared reads tables — the thread-safe variant used when
  /// several workers share one rank. `retry` arms the timeout/retry
  /// protocol (see protocol.hpp); the default (disabled) blocks forever,
  /// exactly the paper's behaviour. `heur_override` substitutes the
  /// correction-phase heuristics (universal / batch_lookups /
  /// filter_lookups / add_remote) for the spectrum's build heuristics —
  /// the serve-mode per-job override seam; nullptr keeps the build values.
  RemoteSpectrumView(rtm::Comm& comm, DistSpectrum& spectrum,
                     int worker_slot = 0, bool cache_remote_locally = false,
                     RetryPolicy retry = {},
                     const Heuristics* heur_override = nullptr);

  /// Round 0 of a chunk's batched lookups (batch_lookups heuristic; no-op
  /// otherwise): scans `batch` once, extracts every gate tile (the tiles at
  /// TileCodec::tile_positions), filters out the locally resolvable ones
  /// (same chain as lookup()), dedupes, buckets by owning rank, and issues
  /// one vectored request per owner. Replies repopulate the chunk-local
  /// prefetch cache (cleared first, and capped at
  /// core::CorrectorParams::prefetch_capacity IDs per chunk). Call once per
  /// chunk, before correcting its reads.
  ///
  /// It also opens the chunk's later rounds: until a round makes no
  /// progress, a lookup that would go remote and misses the cache is
  /// DEFERRED — recorded for the next fetch_round(), answered with a
  /// placeholder 0, and counted in deferred_lookups() — so the corrector
  /// must be driven through TileCorrector::resume() with fetch_round()
  /// between passes.
  void prefetch_chunk(const seq::ReadBatch& batch);

  /// Sends the lookups deferred since the last round as one vectored
  /// request per owner and kind and waits for the replies. A round that
  /// adds nothing new to the chunk cache (prefetch_capacity reached, or
  /// every batch abandoned after retries) ends deferral for the chunk: the
  /// remaining lookups then take the scalar path, with its retries and
  /// degradation guard.
  void fetch_round();

  std::uint32_t kmer_count(seq::kmer_id_t id) override;
  std::uint32_t tile_count(seq::tile_id_t id) override;
  const core::LookupStats& stats() const override { return stats_; }

  /// Lookups that gave up after max_retries and returned a conservative 0.
  /// The corrector snapshots this around each tile decision and refuses to
  /// apply corrections whose evidence involved a degraded lookup.
  std::uint64_t degraded_lookups() const override {
    return remote_.degraded_lookups;
  }

  std::uint64_t deferred_lookups() const override { return deferred_; }
  std::uint64_t begin_tile() override;
  void suspend_tile() override;

  const RemoteLookupStats& remote_stats() const noexcept { return remote_; }

  /// Wall-clock time the worker spent blocked on remote replies — the
  /// paper's per-rank "communication time".
  double comm_seconds() const noexcept { return comm_wait_.seconds(); }

 private:
  std::uint32_t lookup(std::uint64_t id, LookupKind kind);
  /// `filter_said_maybe` marks a lookup the peer filter let through, so an
  /// absent reply is counted as a filter false positive.
  std::uint32_t remote_lookup(int owner, std::uint64_t id, LookupKind kind,
                              bool filter_said_maybe = false);

  /// True when `id` of `kind` can only be resolved by messaging `owner`
  /// (i.e. it would reach step 5+ of the lookup chain).
  bool needs_remote(std::uint64_t id, LookupKind kind, int& owner) const;

  /// Inserts into the chunk-local cache, respecting prefetch_capacity.
  void cache_local(std::uint64_t id, LookupKind kind, std::uint32_t count);

  std::size_t cached_entries() const noexcept {
    return kinds_[0].prefetch.size() + kinds_[1].prefetch.size();
  }

  /// Sends the queued IDs (deduped, capped at the cache's remaining room)
  /// as one vectored request per owner and kind, awaits the replies into
  /// the chunk cache, and empties the queues. Returns the number of cache
  /// entries the round added.
  std::size_t run_round();

  /// Lazily resolved latency histogram (nullptr when metrics are off).
  /// Cached per view: registry lookups lock a mutex, which a per-lookup
  /// fetch would put on the hot path. Valid for the whole run — the
  /// registry only invalidates instruments between runs.
  obs::Histogram* latency_histogram(const char* name, obs::Histogram*& slot,
                                    bool& resolved);

  rtm::Comm* comm_;
  DistSpectrum* spectrum_;
  Heuristics heur_;
  int worker_slot_;
  bool cache_remote_locally_;
  RetryPolicy retry_;
  /// Per-view request sequence numbers; 0 is reserved for unsequenced
  /// traffic, so allocation starts at 1. Worker-private (no locking).
  std::uint64_t next_seq_ = 1;
  core::LookupStats stats_;
  RemoteLookupStats remote_;
  stats::Accumulator comm_wait_;

  obs::Histogram* rtt_hist_ = nullptr;
  bool rtt_hist_resolved_ = false;
  obs::Histogram* batch_hist_ = nullptr;
  bool batch_hist_resolved_ = false;

  /// One kind's chunk-local state. Worker-private, so no locking is ever
  /// needed.
  struct KindState {
    /// Prefetch cache: verbatim remote counts (0 = definitive absence),
    /// cleared by every prefetch_chunk.
    hash::CountTable<> prefetch;
    /// Indexed by owning rank: the IDs the next round requests (duplicates
    /// allowed; run_round dedupes).
    std::vector<std::vector<std::uint64_t>> queue;
  };
  KindState& at(LookupKind kind) noexcept {
    return kinds_[static_cast<std::size_t>(kind)];
  }

  /// Indexed by LookupKind.
  std::array<KindState, 2> kinds_;

  // Round state. The marks are the counters at the last begin_tile():
  // during a deferring pass only the logical counters move (lookups, local
  // hits, cache hits), so suspend_tile() restores both structs whole.
  bool deferring_ = false;
  int round_ = 0;
  std::uint64_t deferred_ = 0;
  core::LookupStats stats_mark_;
  RemoteLookupStats remote_mark_;
  std::vector<seq::tile_id_t> tile_scratch_;
};

}  // namespace reptile::parallel
