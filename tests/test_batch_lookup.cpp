// Batched remote lookups (batch_lookups extension): wire format, the
// service's vectored reply path, identity of the prefetch-cached correction
// with the sequential baseline, multi-worker reply routing, and the bounded
// caches' eviction behaviour.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>

#include "core/pipeline.hpp"
#include "core/spectrum.hpp"
#include "hash/hashing.hpp"
#include "parallel/dist_pipeline.hpp"
#include "parallel/wire.hpp"
#include "seq/dataset.hpp"

namespace reptile::parallel {
namespace {

core::CorrectorParams test_params() {
  core::CorrectorParams p;
  p.k = 10;
  p.tile_overlap = 4;
  p.kmer_threshold = 3;
  p.tile_threshold = 3;
  p.chunk_size = 64;
  return p;
}

const seq::SyntheticDataset& dataset() {
  static const seq::SyntheticDataset ds = [] {
    seq::DatasetSpec spec{"batch", 1200, 70, 2000};
    seq::ErrorModelParams errors;
    errors.error_rate_start = 0.005;
    errors.error_rate_end = 0.012;
    return seq::SyntheticDataset::generate(spec, errors, 4242);
  }();
  return ds;
}

const core::SequentialResult& sequential_reference() {
  static const core::SequentialResult ref =
      core::run_sequential(dataset().reads, test_params());
  return ref;
}

void expect_identical_to_sequential(const DistResult& result) {
  const auto& ref = sequential_reference();
  ASSERT_EQ(result.corrected.size(), ref.corrected.size());
  for (std::size_t i = 0; i < ref.corrected.size(); ++i) {
    ASSERT_EQ(result.corrected[i].number, ref.corrected[i].number);
    ASSERT_EQ(result.corrected[i].bases, ref.corrected[i].bases)
        << "read " << ref.corrected[i].number;
  }
  EXPECT_EQ(result.total_substitutions(), ref.substitutions);
}

// ---- wire format -----------------------------------------------------------

TEST(BatchWire, RoundTripsIdsAndHeader) {
  const std::vector<std::uint64_t> ids = {0, 1, 42, ~std::uint64_t{0},
                                          0xdeadbeefcafe1234ull};
  std::vector<std::uint8_t> buf;
  encode_batch_request(LookupKind::kTile, 1027,
                       std::span<const std::uint64_t>(ids.data(), ids.size()),
                       buf);
  EXPECT_EQ(buf.size(), sizeof(BatchLookupHeader) + ids.size() * 8);
  const BatchLookupRequest req = decode_batch_request(buf.data(), buf.size());
  EXPECT_EQ(req.kind, LookupKind::kTile);
  EXPECT_EQ(req.reply_to, 1027);
  EXPECT_EQ(req.ids, ids);
}

TEST(BatchWire, RoundTripsEmptyRequest) {
  std::vector<std::uint8_t> buf;
  encode_batch_request(LookupKind::kKmer, kTagBatchReplyBase, {}, buf);
  EXPECT_EQ(buf.size(), sizeof(BatchLookupHeader));
  const BatchLookupRequest req = decode_batch_request(buf.data(), buf.size());
  EXPECT_EQ(req.kind, LookupKind::kKmer);
  EXPECT_TRUE(req.ids.empty());
}

TEST(BatchWire, RejectsMalformedBuffers) {
  std::vector<std::uint8_t> buf;
  const std::vector<std::uint64_t> ids = {1, 2, 3};
  encode_batch_request(LookupKind::kKmer, kTagBatchReplyBase,
                       std::span<const std::uint64_t>(ids.data(), ids.size()),
                       buf);
  // Truncated header.
  EXPECT_THROW(decode_batch_request(buf.data(), sizeof(BatchLookupHeader) - 1),
               std::runtime_error);
  // Body shorter than the header's count promises.
  EXPECT_THROW(decode_batch_request(buf.data(), buf.size() - 8),
               std::runtime_error);
  // Trailing garbage beyond count * 8.
  buf.push_back(0);
  EXPECT_THROW(decode_batch_request(buf.data(), buf.size()),
               std::runtime_error);
  buf.pop_back();
  // Unknown kind.
  buf[0] = 7;
  EXPECT_THROW(decode_batch_request(buf.data(), buf.size()),
               std::runtime_error);
}

// ---- service protocol ------------------------------------------------------

TEST(BatchProtocol, ServiceAnswersVectoredRequest) {
  seq::DatasetSpec spec{"svc", 100, 40, 400};
  const auto ds = seq::SyntheticDataset::generate(spec, {}, 123);
  core::CorrectorParams p;
  p.k = 8;
  p.tile_overlap = 2;
  p.kmer_threshold = 1;
  p.tile_threshold = 1;

  ServiceStats stats;
  rtm::run_world({2, 1}, [&](rtm::Comm& comm) {
    DistSpectrum spectrum(p, Heuristics{}, comm);
    if (comm.rank() == 0) {
      for (const auto& r : ds.reads) spectrum.add_read(r.bases);
    }
    spectrum.exchange_to_owners();

    // Rank 0 tells the driver a k-mer it owns, and its count.
    std::uint64_t probe_id = 0;
    std::uint32_t probe_count = 0;
    if (comm.rank() == 0) {
      spectrum.owned_table(LookupKind::kKmer).for_each([&](std::uint64_t id, std::uint32_t c) {
        if (probe_count == 0) {
          probe_id = id;
          probe_count = c;
        }
      });
      comm.send_value(1, 99, probe_id);
      comm.send_value(1, 98, static_cast<std::uint64_t>(probe_count));
    } else {
      probe_id = comm.recv(0, 99).as_value<std::uint64_t>();
      probe_count = static_cast<std::uint32_t>(
          comm.recv(0, 98).as_value<std::uint64_t>());
    }

    comm.reset_done();
    if (comm.rank() == 0) {
      LookupService service(comm, spectrum);
      std::thread server([&service] { service.serve(); });
      comm.signal_done();
      server.join();
      stats = service.stats();
    } else {
      const std::vector<std::uint64_t> ids = {probe_id, ~std::uint64_t{0}};
      std::vector<std::uint8_t> buf;
      const int reply_to = batch_reply_tag(LookupKind::kKmer, 0);
      encode_batch_request(
          LookupKind::kKmer, reply_to,
          std::span<const std::uint64_t>(ids.data(), ids.size()), buf);
      comm.send<std::uint8_t>(
          0, kTagBatchRequest,
          std::span<const std::uint8_t>(buf.data(), buf.size()));
      const auto reply = decode_batch_reply(comm.recv(0, reply_to).payload);
      EXPECT_EQ(reply.seq, 0u);  // unsequenced request echoes seq 0
      ASSERT_EQ(reply.counts.size(), 2u);
      EXPECT_EQ(reply.counts[0], static_cast<std::int32_t>(probe_count));
      EXPECT_EQ(reply.counts[1], -1);  // absent IDs reply -1, index-aligned
      comm.signal_done();
    }
    comm.barrier();
  });
  EXPECT_EQ(stats.batch_requests, 1u);
  EXPECT_EQ(stats.batch_ids_served, 2u);
  EXPECT_EQ(stats.requests_served, 1u);
  EXPECT_EQ(stats.absent_replies, 1u);
}

// ---- identity with the sequential baseline ---------------------------------

struct BatchedCase {
  const char* name;
  int ranks;
  Heuristics heur;
};

class BatchedIdentity : public ::testing::TestWithParam<BatchedCase> {};

TEST_P(BatchedIdentity, MatchesSequential) {
  DistConfig config;
  config.params = test_params();
  config.ranks = GetParam().ranks;
  config.ranks_per_node = 2;
  config.heuristics = GetParam().heur;
  config.heuristics.batch_lookups = true;
  const auto result = run_distributed(dataset().reads, config);
  expect_identical_to_sequential(result);
}

Heuristics with_flags(bool universal, bool read_kmers, bool add_remote,
                      int group = 1) {
  Heuristics h;
  h.universal = universal;
  h.read_kmers = read_kmers;
  h.add_remote = add_remote;
  h.partial_replication_group = group;
  return h;
}

INSTANTIATE_TEST_SUITE_P(
    Configs, BatchedIdentity,
    ::testing::Values(
        BatchedCase{"r2_base", 2, with_flags(false, false, false)},
        BatchedCase{"r4_base", 4, with_flags(false, false, false)},
        BatchedCase{"r8_base", 8, with_flags(false, false, false)},
        BatchedCase{"r4_read_kmers", 4, with_flags(false, true, false)},
        BatchedCase{"r4_universal", 4, with_flags(true, false, false)},
        BatchedCase{"r4_add_remote", 4, with_flags(false, true, true)},
        BatchedCase{"r4_partial_repl", 4, with_flags(false, false, false, 2)}),
    [](const ::testing::TestParamInfo<BatchedCase>& info) {
      return info.param.name;
    });

TEST(BatchedLookups, TinyPrefetchCapacityStaysIdentical) {
  // When the cap truncates the prefetch set, the overflow must simply fall
  // back to scalar lookups — never change the output.
  DistConfig config;
  config.params = test_params();
  config.params.prefetch_capacity = 8;
  config.ranks = 4;
  config.heuristics.batch_lookups = true;
  const auto result = run_distributed(dataset().reads, config);
  expect_identical_to_sequential(result);
}

TEST(BatchedLookups, ChaosDeliveryStaysIdentical) {
  DistConfig config;
  config.params = test_params();
  config.ranks = 4;
  config.heuristics.batch_lookups = true;
  config.run_options.chaos.seed = 7;
  const auto result = run_distributed(dataset().reads, config);
  expect_identical_to_sequential(result);
}

// ---- multi-worker routing --------------------------------------------------

TEST(BatchedLookups, MultiWorkerRepliesRouteToRightSlot) {
  DistConfig config;
  config.params = test_params();
  config.params.chunk_size = 32;  // plenty of worker interleaving
  config.ranks = 4;
  config.worker_threads = 4;
  config.heuristics.batch_lookups = true;
  const auto result = run_distributed(dataset().reads, config);
  expect_identical_to_sequential(result);
  std::uint64_t batch_requests = 0;
  for (const auto& r : result.ranks) {
    batch_requests += r.remote.batch_requests;
  }
  EXPECT_GT(batch_requests, 0u);
}

TEST(BatchedLookups, AddRemoteWithWorkersNeedsBatchLookups) {
  DistConfig config;
  config.params = test_params();
  config.ranks = 2;
  config.worker_threads = 2;
  config.heuristics.read_kmers = true;
  config.heuristics.add_remote = true;
  // Without batch_lookups the shared reads-table cache is not thread-safe.
  EXPECT_THROW(run_distributed(dataset().reads, config),
               std::invalid_argument);
  // With it, replies go to worker-private caches and the combination runs.
  config.heuristics.batch_lookups = true;
  const auto result = run_distributed(dataset().reads, config);
  expect_identical_to_sequential(result);
}

// ---- stats -----------------------------------------------------------------

TEST(BatchedLookups, PrefetchAbsorbsScalarLookups) {
  DistConfig config;
  config.params = test_params();
  config.ranks = 4;
  const auto scalar = run_distributed(dataset().reads, config);
  config.heuristics.batch_lookups = true;
  const auto batched = run_distributed(dataset().reads, config);

  std::uint64_t scalar_remote = 0;
  for (const auto& r : scalar.ranks) {
    scalar_remote += r.remote.remote_lookups();
    EXPECT_EQ(r.remote.batch_requests, 0u);
    EXPECT_EQ(r.remote.prefetch_hits, 0u);
  }
  std::uint64_t batched_remote = 0, requests = 0, ids = 0, ids_raw = 0,
                 hits = 0, served = 0;
  for (const auto& r : batched.ranks) {
    batched_remote += r.remote.remote_lookups();
    requests += r.remote.batch_requests;
    ids += r.remote.batch_ids();
    ids_raw += r.remote.batch_ids_raw();
    hits += r.remote.prefetch_hits;
    served += r.service.batch_requests;
    EXPECT_GE(r.remote.dedup_ratio(), 0.0);
    EXPECT_LE(r.remote.prefetch_hit_rate(), 1.0);
  }
  // The read-spectrum IDs move into vectored requests; scalar round trips
  // remain only for mid-correction candidate misses.
  EXPECT_GT(requests, 0u);
  EXPECT_GT(served, 0u);
  EXPECT_GT(hits, 0u);
  EXPECT_LT(batched_remote, scalar_remote);
  // A chunk repeats k-mers across overlapping reads: dedup must bite.
  EXPECT_LT(ids, ids_raw);
  // Vectored requests are far fewer than the IDs they carry.
  EXPECT_LT(requests, ids / 4);
}

TEST(BatchedLookups, DedupStatsSplitPerKind) {
  // Chunk dedup runs per kind (one seen-set per table): an ID numerically
  // present in both the k-mer and the tile request vectors of one chunk is
  // two distinct spectrum entries, so it must be counted — and sent — in
  // both tables. A merged counter would let a cross-kind dedup bug hide;
  // the per-kind split pins it.
  DistConfig config;
  config.params = test_params();
  config.ranks = 4;
  config.heuristics.batch_lookups = true;
  const auto result = run_distributed(dataset().reads, config);
  std::uint64_t kmer_ids = 0, tile_ids = 0, kmer_raw = 0, tile_raw = 0;
  for (const auto& r : result.ranks) {
    kmer_ids += r.remote.batch_kmer_ids;
    tile_ids += r.remote.batch_tile_ids;
    kmer_raw += r.remote.batch_kmer_ids_raw;
    tile_raw += r.remote.batch_tile_ids_raw;
    // The summing accessors are definitionally the per-kind totals.
    EXPECT_EQ(r.remote.batch_ids(),
              r.remote.batch_kmer_ids + r.remote.batch_tile_ids);
    EXPECT_EQ(r.remote.batch_ids_raw(),
              r.remote.batch_kmer_ids_raw + r.remote.batch_tile_ids_raw);
    // Dedup can only shrink a kind's ID stream, never move IDs across
    // kinds: each kind's sent count is bounded by its own raw count.
    EXPECT_LE(r.remote.batch_kmer_ids, r.remote.batch_kmer_ids_raw);
    EXPECT_LE(r.remote.batch_tile_ids, r.remote.batch_tile_ids_raw);
  }
  // Both tables produce remote traffic on this dataset.
  EXPECT_GT(kmer_ids, 0u);
  EXPECT_GT(tile_ids, 0u);
  EXPECT_LE(kmer_ids, kmer_raw);
  EXPECT_LE(tile_ids, tile_raw);
}

TEST(BatchedLookups, CrossKindIdCountedInBothTables) {
  // Direct unit pin of per-kind round queues. With k=8 and tile_overlap=2
  // a tile spans 14 bases, so a read of the form AAAAAA+S packs its first
  // tile to the SAME numeric value as the k-mer S (the six A's are the
  // zero high bits). Round 0 (prefetch_chunk) requests the reads' gate
  // tiles; looking up each read's k-mer S then defers it into round 1. The
  // shared numeric ID must be counted — and sent — once PER KIND; dedup
  // shared across kinds would silently drop one of them. The per-kind
  // sent/raw counters are compared against expectations computed
  // independently with the same extractor and owner hash.
  core::CorrectorParams p;
  p.k = 8;
  p.tile_overlap = 2;
  p.kmer_threshold = 1;
  p.tile_threshold = 1;
  p.canonical = false;  // keep the packed-ID construction literal

  // Each read contributes one tile whose ID equals pack(S) — the same
  // value as the k-mer S at offset 6. Duplicated reads exercise dedup.
  const char* kSuffixes[] = {"CGTCAGGT", "GATTACAG", "TTGACCAA", "CCATGGTC",
                             "GTTCAAGC", "ACCTGTTG", "TGGCATCA", "CAGTTGCA"};
  seq::ReadBatch batch;
  for (const char* s : kSuffixes) {
    seq::Read r;
    r.number = static_cast<seq::seq_num_t>(batch.size() + 1);
    r.bases = std::string("AAAAAA") + s;
    r.quals.assign(r.bases.size(), 40);
    batch.push_back(r);
    batch.push_back(r);  // duplicate: raw counts double, sent counts don't
  }

  rtm::run_world({2, 1}, [&](rtm::Comm& comm) {
    Heuristics h;
    h.batch_lookups = true;
    DistSpectrum spectrum(p, h, comm);
    spectrum.exchange_to_owners();
    comm.reset_done();
    if (comm.rank() == 0) {
      LookupService service(comm, spectrum);
      std::thread server([&service] { service.serve(); });
      comm.signal_done();
      server.join();
    } else {
      // Expected per-kind remote streams, computed independently: every
      // occurrence owned by rank 0 counts raw, every distinct ID once.
      core::SpectrumExtractor extractor(p);
      std::vector<seq::kmer_id_t> read_kmers;
      std::vector<seq::tile_id_t> tiles;
      for (const auto& r : batch) {
        read_kmers.push_back(extractor.kmer_codec().pack(
            std::string_view(r.bases).substr(6)));
        std::vector<seq::kmer_id_t> unused;
        extractor.extract(r.bases, unused, tiles);
      }
      std::set<std::uint64_t> kmer_set, tile_set;
      std::uint64_t kmer_raw = 0, tile_raw = 0;
      for (const auto id : read_kmers) {
        if (hash::owner_of(id, comm.size()) == 0) {
          ++kmer_raw;
          kmer_set.insert(id);
        }
      }
      for (const auto id : tiles) {
        if (hash::owner_of(id, comm.size()) == 0) {
          ++tile_raw;
          tile_set.insert(id);
        }
      }
      // The construction above guarantees numeric overlap between the two
      // kinds' remote streams (any suffix whose packed ID hashes to rank 0
      // appears in both sets) — the exact case cross-kind dedup corrupts.
      std::size_t overlap = 0;
      for (const auto id : tile_set) overlap += kmer_set.count(id);
      ASSERT_GT(overlap, 0u);

      RemoteSpectrumView view(comm, spectrum);
      view.prefetch_chunk(batch);
      const auto& stats = view.remote_stats();
      EXPECT_EQ(stats.batch_kmer_ids, 0u);  // round 0 asks gate tiles only
      EXPECT_EQ(stats.batch_tile_ids, tile_set.size());
      EXPECT_EQ(stats.batch_tile_ids_raw, tile_raw);

      for (const auto id : read_kmers) {
        EXPECT_EQ(view.kmer_count(id), 0u);  // deferred or owned locally
      }
      EXPECT_EQ(view.deferred_lookups(), kmer_raw);
      view.fetch_round();
      EXPECT_EQ(stats.batch_kmer_ids, kmer_set.size());
      EXPECT_EQ(stats.batch_tile_ids, tile_set.size());
      EXPECT_EQ(stats.batch_kmer_ids_raw, kmer_raw);
      EXPECT_EQ(stats.batch_tile_ids_raw, tile_raw);
      // One vectored request per kind with remote IDs, all owned by rank 0.
      EXPECT_EQ(stats.batch_requests, (kmer_set.empty() ? 0u : 1u) +
                                          (tile_set.empty() ? 0u : 1u));
      // The round's replies answer the deferred lookups from the cache.
      const std::uint64_t hits_before = stats.prefetch_hits;
      for (const auto id : kmer_set) (void)view.kmer_count(id);
      EXPECT_EQ(stats.prefetch_hits - hits_before, kmer_set.size());
      EXPECT_EQ(stats.remote_lookups(), 0u);
      comm.signal_done();
    }
    comm.barrier();
  });
}

TEST(BatchedLookups, FewerMessagesAndLargerPayloadsThanScalar) {
  DistConfig config;
  config.params = test_params();
  config.ranks = 4;
  const auto scalar = run_distributed(dataset().reads, config);
  config.heuristics.batch_lookups = true;
  const auto batched = run_distributed(dataset().reads, config);
  std::uint64_t scalar_msgs = 0, batched_msgs = 0;
  std::uint64_t scalar_largest = 0, batched_largest = 0;
  for (const auto& r : scalar.ranks) {
    scalar_msgs += r.traffic.sent_msgs();
    scalar_largest = std::max(scalar_largest, r.traffic.largest_msg_bytes);
  }
  for (const auto& r : batched.ranks) {
    batched_msgs += r.traffic.sent_msgs();
    batched_largest = std::max(batched_largest, r.traffic.largest_msg_bytes);
  }
  EXPECT_LT(batched_msgs, scalar_msgs);
  EXPECT_GT(batched_largest, scalar_largest);
}

// ---- bounded caches --------------------------------------------------------

TEST(RemoteCache, EvictsOldestBeyondCapacity) {
  core::CorrectorParams p = test_params();
  p.remote_cache_capacity = 4;
  rtm::run_world({1, 1}, [&](rtm::Comm& comm) {
    Heuristics h;
    h.read_kmers = true;
    h.add_remote = true;
    DistSpectrum spectrum(p, h, comm);
    for (std::uint64_t id = 0; id < 10; ++id) {
      spectrum.cache_remote(LookupKind::kKmer, id, static_cast<std::uint32_t>(id + 1));
    }
    // FIFO: only the 4 newest replies survive.
    for (std::uint64_t id = 0; id < 6; ++id) {
      EXPECT_FALSE(spectrum.reads(LookupKind::kKmer, id).has_value()) << "id " << id;
    }
    for (std::uint64_t id = 6; id < 10; ++id) {
      const auto c = spectrum.reads(LookupKind::kKmer, id);
      ASSERT_TRUE(c.has_value()) << "id " << id;
      EXPECT_EQ(*c, static_cast<std::uint32_t>(id + 1));
    }
    // Re-caching an evicted ID readmits it (and evicts the then-oldest).
    spectrum.cache_remote(LookupKind::kKmer, 0, 1);
    EXPECT_TRUE(spectrum.reads(LookupKind::kKmer, 0).has_value());
    EXPECT_FALSE(spectrum.reads(LookupKind::kKmer, 6).has_value());
  });
}

TEST(RemoteCache, CapacityOneIsLegalAndIdentical) {
  DistConfig config;
  config.params = test_params();
  config.params.remote_cache_capacity = 1;
  config.ranks = 4;
  config.heuristics.read_kmers = true;
  config.heuristics.add_remote = true;
  const auto result = run_distributed(dataset().reads, config);
  expect_identical_to_sequential(result);
}

TEST(RemoteCache, ZeroCapacitiesRejected) {
  core::CorrectorParams p = test_params();
  p.prefetch_capacity = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = test_params();
  p.remote_cache_capacity = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace reptile::parallel
