// Integration tests: distributed spectrum construction (Steps II-III).
#include "parallel/dist_spectrum.hpp"

#include <gtest/gtest.h>

#include <map>
#include <mutex>

#include "core/spectrum.hpp"
#include "seq/dataset.hpp"

namespace reptile::parallel {
namespace {

core::CorrectorParams small_params() {
  core::CorrectorParams p;
  p.k = 8;
  p.tile_overlap = 2;
  p.kmer_threshold = 2;
  p.tile_threshold = 2;
  return p;
}

seq::SyntheticDataset make_dataset(std::uint64_t seed, std::uint64_t n = 600) {
  seq::DatasetSpec spec{"t", n, 50, 1500};
  seq::ErrorModelParams errors;
  errors.error_rate_start = 0.01;
  errors.error_rate_end = 0.02;
  return seq::SyntheticDataset::generate(spec, errors, seed);
}

/// Reference: global (unpruned) counts from the sequential builder.
std::map<std::uint64_t, std::uint32_t> sequential_kmer_counts(
    const std::vector<seq::Read>& reads, const core::CorrectorParams& p) {
  core::SpectrumExtractor ex(p);
  std::map<std::uint64_t, std::uint32_t> counts;
  std::vector<seq::kmer_id_t> kmers;
  std::vector<seq::tile_id_t> tiles;
  for (const auto& r : reads) {
    kmers.clear();
    tiles.clear();
    ex.extract(r.bases, kmers, tiles);
    for (auto id : kmers) ++counts[id];
  }
  return counts;
}

/// Runs Step II+III across np ranks and returns each rank's owned tables'
/// union, as (id -> count).
std::map<std::uint64_t, std::uint32_t> distributed_kmer_counts(
    const std::vector<seq::Read>& reads, const core::CorrectorParams& p,
    int np, bool batch, unsigned prune_threshold) {
  std::map<std::uint64_t, std::uint32_t> merged;
  std::mutex merge_mutex;
  Heuristics heur;
  heur.batch_reads = batch;
  core::CorrectorParams params = p;
  params.kmer_threshold = prune_threshold;
  params.tile_threshold = prune_threshold;
  rtm::run_world({np, 1}, [&](rtm::Comm& comm) {
    DistSpectrum spectrum(params, heur, comm);
    const std::size_t begin =
        reads.size() * static_cast<std::size_t>(comm.rank()) /
        static_cast<std::size_t>(np);
    const std::size_t end =
        reads.size() * static_cast<std::size_t>(comm.rank() + 1) /
        static_cast<std::size_t>(np);
    if (batch) {
      const std::size_t chunk = 37;
      const std::uint64_t mine = (end - begin + chunk - 1) / chunk;
      const std::uint64_t rounds = comm.allreduce_max(mine);
      std::size_t pos = begin;
      for (std::uint64_t b = 0; b < rounds; ++b) {
        for (std::size_t i = 0; i < chunk && pos < end; ++i, ++pos) {
          spectrum.add_read(reads[pos].bases);
        }
        spectrum.exchange_to_owners();
      }
    } else {
      for (std::size_t i = begin; i < end; ++i) {
        spectrum.add_read(reads[i].bases);
      }
      spectrum.exchange_to_owners();
    }
    if (prune_threshold > 1) spectrum.prune();
    std::lock_guard lock(merge_mutex);
    spectrum.owned_table(LookupKind::kKmer).for_each([&](std::uint64_t id, std::uint32_t c) {
      // Each ID must live on exactly one rank.
      EXPECT_EQ(merged.count(id), 0u) << "id owned by two ranks";
      EXPECT_EQ(hash::owner_of(id, np), comm.rank());
      merged[id] = c;
    });
  });
  return merged;
}

TEST(DistSpectrum, GlobalCountsMatchSequential) {
  const auto ds = make_dataset(1);
  const auto p = small_params();
  const auto reference = sequential_kmer_counts(ds.reads, p);
  for (int np : {1, 2, 4, 8}) {
    const auto dist = distributed_kmer_counts(ds.reads, p, np, false, 1);
    EXPECT_EQ(dist, reference) << "np=" << np;
  }
}

TEST(DistSpectrum, BatchModeProducesSameSpectrum) {
  const auto ds = make_dataset(2);
  const auto p = small_params();
  const auto one_shot = distributed_kmer_counts(ds.reads, p, 4, false, 1);
  const auto batched = distributed_kmer_counts(ds.reads, p, 4, true, 1);
  EXPECT_EQ(batched, one_shot);
}

TEST(DistSpectrum, PruningMatchesSequentialThreshold) {
  const auto ds = make_dataset(3);
  const auto p = small_params();
  auto reference = sequential_kmer_counts(ds.reads, p);
  std::erase_if(reference, [](const auto& kv) { return kv.second < 3; });
  const auto dist = distributed_kmer_counts(ds.reads, p, 4, false, 3);
  EXPECT_EQ(dist, reference);
}

TEST(DistSpectrum, OwnedLookupsAnswerOnlyOwnedIds) {
  const auto ds = make_dataset(4, 100);
  const auto p = small_params();
  rtm::run_world({4, 1}, [&](rtm::Comm& comm) {
    Heuristics heur;
    DistSpectrum spectrum(p, heur, comm);
    const std::size_t begin =
        ds.reads.size() * static_cast<std::size_t>(comm.rank()) / 4;
    const std::size_t end =
        ds.reads.size() * static_cast<std::size_t>(comm.rank() + 1) / 4;
    for (std::size_t i = begin; i < end; ++i) {
      spectrum.add_read(ds.reads[i].bases);
    }
    spectrum.exchange_to_owners();
    spectrum.owned_table(LookupKind::kKmer).for_each([&](std::uint64_t id, std::uint32_t) {
      EXPECT_TRUE(spectrum.owns_kmer(id));
      EXPECT_TRUE(spectrum.owned(LookupKind::kKmer, id).has_value());
    });
  });
}

TEST(DistSpectrum, ReplicationGathersWholeSpectrum) {
  const auto ds = make_dataset(5, 200);
  const auto p = small_params();
  const auto reference = sequential_kmer_counts(ds.reads, p);
  rtm::run_world({4, 1}, [&](rtm::Comm& comm) {
    Heuristics heur;
    heur.allgather_kmers = true;
    DistSpectrum spectrum(p, heur, comm);
    const std::size_t begin =
        ds.reads.size() * static_cast<std::size_t>(comm.rank()) / 4;
    const std::size_t end =
        ds.reads.size() * static_cast<std::size_t>(comm.rank() + 1) / 4;
    for (std::size_t i = begin; i < end; ++i) {
      spectrum.add_read(ds.reads[i].bases);
    }
    spectrum.exchange_to_owners();
    spectrum.replicate(LookupKind::kKmer);
    // Every rank sees every k-mer with its exact global count.
    for (const auto& [id, count] : reference) {
      ASSERT_EQ(spectrum.replica(LookupKind::kKmer, id), count);
    }
  });
}

TEST(DistSpectrum, ReadsTablesHoldGlobalCountsAfterFetch) {
  const auto ds = make_dataset(6, 300);
  auto p = small_params();
  p.kmer_threshold = 2;
  p.tile_threshold = 2;
  auto reference = sequential_kmer_counts(ds.reads, p);
  rtm::run_world({4, 1}, [&](rtm::Comm& comm) {
    Heuristics heur;
    heur.read_kmers = true;
    DistSpectrum spectrum(p, heur, comm);
    const std::size_t begin =
        ds.reads.size() * static_cast<std::size_t>(comm.rank()) / 4;
    const std::size_t end =
        ds.reads.size() * static_cast<std::size_t>(comm.rank() + 1) / 4;
    std::vector<seq::kmer_id_t> my_kmers;
    std::vector<seq::tile_id_t> my_tiles;
    core::SpectrumExtractor ex(p);
    for (std::size_t i = begin; i < end; ++i) {
      spectrum.add_read(ds.reads[i].bases);
      ex.extract(ds.reads[i].bases, my_kmers, my_tiles);
    }
    spectrum.exchange_to_owners();
    spectrum.prune();
    spectrum.fetch_global_reads_tables();
    // Every non-owned k-mer of this rank's reads is answerable locally,
    // with the global (pruned) count.
    for (auto id : my_kmers) {
      if (spectrum.owns_kmer(id)) continue;
      const auto local = spectrum.reads(LookupKind::kKmer, id);
      ASSERT_TRUE(local.has_value());
      const auto it = reference.find(id);
      const std::uint32_t global =
          (it != reference.end() && it->second >= p.kmer_threshold)
              ? it->second
              : 0;
      EXPECT_EQ(*local, global);
    }
  });
}

TEST(DistSpectrum, FootprintAccountsAllTables) {
  const auto ds = make_dataset(7, 100);
  const auto p = small_params();
  rtm::run_world({2, 1}, [&](rtm::Comm& comm) {
    Heuristics heur;
    DistSpectrum spectrum(p, heur, comm);
    for (const auto& r : ds.reads) spectrum.add_read(r.bases);
    const auto before = spectrum.footprint();
    EXPECT_GT(before.reads_kmer_entries, 0u);
    EXPECT_GT(before.bytes, 0u);
    spectrum.exchange_to_owners();
    const auto after = spectrum.footprint();
    EXPECT_EQ(after.reads_kmer_entries, 0u);  // pending cleared
    EXPECT_GT(after.hash_kmer_entries, 0u);
    spectrum.drop_reads_tables();
    EXPECT_GT(spectrum.footprint().hash_tile_entries, 0u);
  });
}

}  // namespace
}  // namespace reptile::parallel
