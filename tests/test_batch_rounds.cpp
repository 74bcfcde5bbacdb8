// Batched lookup rounds (batch_lookups): every correction-phase lookup is
// resolved in bulk rounds, so a fault-free run sends no scalar round trip,
// while the output and the logical lookup counters stay exactly the
// scalar run's.
//
// Matrix: seeds x 1-4 ranks x lookup configurations x max_hamming 1/2.
// Each batched run is compared with core::run_sequential (bytes) and with
// the scalar run of the same read_kmers/filter setting (counters).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/pipeline.hpp"
#include "parallel/dist_pipeline.hpp"
#include "seq/dataset.hpp"

namespace reptile::parallel {
namespace {

core::CorrectorParams round_params(int max_hamming) {
  core::CorrectorParams p;
  p.k = 10;
  p.tile_overlap = 4;
  p.chunk_size = 48;
  p.max_hamming = max_hamming;
  return p;
}

seq::SyntheticDataset round_dataset(std::uint64_t seed) {
  seq::DatasetSpec spec{"rounds", 500, 60, 1000};
  seq::ErrorModelParams errors;
  errors.error_rate_start = 0.005;
  errors.error_rate_end = 0.015;
  return seq::SyntheticDataset::generate(spec, errors, seed);
}

struct Totals {
  std::uint64_t kmer_lookups = 0;
  std::uint64_t tile_lookups = 0;
  std::uint64_t filter_neg_hits = 0;
  std::uint64_t remote_lookups = 0;
  std::uint64_t prefetch_hits = 0;
  std::uint64_t batch_requests = 0;
};

Totals totals(const DistResult& result) {
  Totals t;
  for (const auto& r : result.ranks) {
    t.kmer_lookups += r.lookups.kmer_lookups;
    t.tile_lookups += r.lookups.tile_lookups;
    t.filter_neg_hits += r.remote.filter_neg_hits;
    t.remote_lookups += r.remote.remote_lookups();
    t.prefetch_hits += r.remote.prefetch_hits;
    t.batch_requests += r.remote.batch_requests;
  }
  return t;
}

void expect_identical(const DistResult& result,
                      const core::SequentialResult& ref,
                      const std::string& where) {
  ASSERT_EQ(result.corrected.size(), ref.corrected.size()) << where;
  for (std::size_t i = 0; i < ref.corrected.size(); ++i) {
    ASSERT_EQ(result.corrected[i].bases, ref.corrected[i].bases)
        << where << " read " << ref.corrected[i].number;
  }
  EXPECT_EQ(result.total_substitutions(), ref.substitutions) << where;
}

struct RoundCase {
  const char* name;
  bool filter;
  bool read_kmers;
  bool add_remote;  ///< with 2 workers: replies cached per worker
};

class BatchRounds : public ::testing::TestWithParam<RoundCase> {};

TEST_P(BatchRounds, IdenticalOutputAndScalarLogicalCounters) {
  const RoundCase& rc = GetParam();
  for (const std::uint64_t seed : {11ull, 12ull}) {
    const auto ds = round_dataset(seed);
    for (const int hamming : {1, 2}) {
      const auto ref = core::run_sequential(ds.reads, round_params(hamming));
      for (int ranks = 1; ranks <= 4; ++ranks) {
        const std::string where = std::string(rc.name) + " seed " +
                                  std::to_string(seed) + " hd" +
                                  std::to_string(hamming) + " ranks " +
                                  std::to_string(ranks);
        DistConfig config;
        config.params = round_params(hamming);
        config.ranks = ranks;
        config.heuristics.filter_lookups = rc.filter;
        config.heuristics.read_kmers = rc.read_kmers;
        const auto scalar = run_distributed(ds.reads, config);
        expect_identical(scalar, ref, where + " scalar");

        config.heuristics.batch_lookups = true;
        config.heuristics.add_remote = rc.add_remote;
        config.worker_threads = rc.add_remote ? 2 : 1;
        const auto batched = run_distributed(ds.reads, config);
        expect_identical(batched, ref, where);

        const Totals s = totals(scalar);
        const Totals b = totals(batched);
        EXPECT_EQ(b.kmer_lookups, s.kmer_lookups) << where;
        EXPECT_EQ(b.tile_lookups, s.tile_lookups) << where;
        EXPECT_EQ(b.filter_neg_hits, s.filter_neg_hits) << where;
        // Fault-free at the default capacity: nothing goes scalar.
        EXPECT_EQ(b.remote_lookups, 0u) << where;
        if (!rc.add_remote) {
          // Every lookup the scalar run sent is a cache hit here.
          EXPECT_EQ(b.prefetch_hits + b.remote_lookups, s.remote_lookups)
              << where;
        }
        if (ranks > 1 && s.remote_lookups > 0) {
          EXPECT_GT(b.batch_requests, 0u) << where;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, BatchRounds,
    ::testing::Values(RoundCase{"batched_lookups", false, false, false},
                      RoundCase{"filtered_batched", true, false, false},
                      RoundCase{"batched_read_kmers", false, true, false},
                      RoundCase{"workers_add_remote", false, true, true}),
    [](const ::testing::TestParamInfo<RoundCase>& info) {
      return info.param.name;
    });

TEST(BatchRounds, CapacityOneFallsBackToScalar) {
  // A one-entry chunk cache fills in round 0; the next round fits nothing,
  // so deferral ends and the reads finish on the scalar path.
  const auto ds = round_dataset(11);
  for (const bool filter : {false, true}) {
    DistConfig config;
    config.params = round_params(2);
    config.ranks = 3;
    config.heuristics.filter_lookups = filter;
    const auto scalar = run_distributed(ds.reads, config);
    config.params.prefetch_capacity = 1;
    config.heuristics.batch_lookups = true;
    const auto batched = run_distributed(ds.reads, config);
    expect_identical(batched, core::run_sequential(ds.reads, config.params),
                     filter ? "filtered" : "plain");
    const Totals s = totals(scalar);
    const Totals b = totals(batched);
    EXPECT_GT(b.remote_lookups, 0u);
    EXPECT_EQ(b.kmer_lookups, s.kmer_lookups);
    EXPECT_EQ(b.tile_lookups, s.tile_lookups);
    EXPECT_EQ(b.filter_neg_hits, s.filter_neg_hits);
    EXPECT_EQ(b.prefetch_hits + b.remote_lookups, s.remote_lookups);
  }
}

}  // namespace
}  // namespace reptile::parallel
