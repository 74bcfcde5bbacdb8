// Golden footprint test: every SpectrumFootprint field, after construction
// and after correction, plus construction_peak_bytes, for every rank of a
// fixed dataset at 1, 3 and 4 ranks under each table-shaping heuristic —
// and the replicated baseline's spectrum_bytes. Table sizes and capacities
// follow from the set of IDs each table receives and how it was pre-sized,
// so any drift here means a table was filled, sized or freed differently.
// A deliberate change must re-pin these lines and say why.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "parallel/baseline_replicated.hpp"
#include "parallel/dist_pipeline.hpp"
#include "seq/dataset.hpp"

namespace reptile::parallel {
namespace {

core::CorrectorParams footprint_params() {
  core::CorrectorParams p;
  p.k = 10;
  p.tile_overlap = 4;
  p.kmer_threshold = 3;
  p.tile_threshold = 3;
  p.chunk_size = 64;
  return p;
}

const seq::SyntheticDataset& footprint_dataset() {
  static const seq::SyntheticDataset ds = [] {
    seq::DatasetSpec spec{"footprint", 900, 70, 1500};
    seq::ErrorModelParams errors;
    errors.error_rate_start = 0.004;
    errors.error_rate_end = 0.012;
    return seq::SyntheticDataset::generate(spec, errors, 4242);
  }();
  return ds;
}

std::string fields(const stats::SpectrumFootprint& f) {
  std::ostringstream out;
  out << f.hash_kmer_entries << ' ' << f.hash_tile_entries << ' '
      << f.reads_kmer_entries << ' ' << f.reads_tile_entries << ' '
      << f.replica_kmer_entries << ' ' << f.replica_tile_entries << ' '
      << f.filter_bytes << ' ' << f.bytes;
  return out.str();
}

/// One line per rank: "r<rank> C[<after construction>] R[<after
/// correction>] peak <construction_peak_bytes>".
std::string footprint_lines(const Heuristics& heur, int ranks) {
  DistConfig config;
  config.params = footprint_params();
  config.heuristics = heur;
  config.ranks = ranks;
  const DistResult result = run_distributed(footprint_dataset().reads, config);
  std::ostringstream out;
  for (const RankReport& r : result.ranks) {
    out << 'r' << r.rank << " C[" << fields(r.footprint_after_construction)
        << "] R[" << fields(r.footprint_after_correction) << "] peak "
        << r.construction_peak_bytes << '\n';
  }
  return out.str();
}

struct Case {
  const char* name;
  Heuristics heur;
};

std::vector<Case> cases() {
  std::vector<Case> out;
  out.push_back({"base", Heuristics{}});
  Heuristics h;
  h.read_kmers = true;
  out.push_back({"read_kmers", h});
  h.add_remote = true;
  out.push_back({"read_kmers+add_remote", h});
  h = Heuristics{};
  h.allgather_kmers = true;
  out.push_back({"allgather_kmers", h});
  h = Heuristics{};
  h.allgather_tiles = true;
  out.push_back({"allgather_tiles", h});
  h.allgather_kmers = true;
  out.push_back({"allgather_both", h});
  h = Heuristics{};
  h.batch_reads = true;
  out.push_back({"batch_reads", h});
  h = Heuristics{};
  h.partial_replication_group = 2;
  out.push_back({"partial_replication_group 2", h});
  h = Heuristics{};
  h.filter_lookups = true;
  out.push_back({"filter_lookups", h});
  return out;
}

// Keyed "<case> @<ranks>"; values are footprint_lines() output.
const std::vector<std::pair<std::string, std::string>>& golden() {
  static const std::vector<std::pair<std::string, std::string>> g = {
      {"base @1",
       "r0 C[1502 1305 0 0 0 0 0 160576] R[1502 1305 0 0 0 0 0 160576] peak 267904\n"},
      {"read_kmers @1",
       "r0 C[1502 1305 0 0 0 0 0 160992] R[1502 1305 0 0 0 0 0 160992] peak 267904\n"},
      {"read_kmers+add_remote @1",
       "r0 C[1502 1305 0 0 0 0 0 160992] R[1502 1305 0 0 0 0 0 160992] peak 267904\n"},
      {"allgather_kmers @1",
       "r0 C[0 1305 0 0 1502 0 0 80496] R[0 1305 0 0 1502 0 0 80496] peak 267904\n"},
      {"allgather_tiles @1",
       "r0 C[1502 0 0 0 0 1305 0 133744] R[1502 0 0 0 0 1305 0 133744] peak 267904\n"},
      {"allgather_both @1",
       "r0 C[0 0 0 0 1502 1305 0 53664] R[0 0 0 0 1502 1305 0 53664] peak 267904\n"},
      {"batch_reads @1",
       "r0 C[1502 1305 0 0 0 0 0 160576] R[1502 1305 0 0 0 0 0 160576] peak 267488\n"},
      {"partial_replication_group 2 @1",
       "r0 C[1502 1305 0 0 1502 1305 0 266656] R[1502 1305 0 0 1502 1305 0 266656] peak 267904\n"},
      {"filter_lookups @1",
       "r0 C[1502 1305 0 0 0 0 0 160576] R[1502 1305 0 0 0 0 0 160576] peak 267904\n"},
      {"base @3",
       "r0 C[472 429 0 0 0 0 0 80704] R[472 429 0 0 0 0 0 80704] peak 174304\n"
       "r1 C[527 426 0 0 0 0 0 67392] R[527 426 0 0 0 0 0 67392] peak 174304\n"
       "r2 C[503 450 0 0 0 0 0 67392] R[503 450 0 0 0 0 0 67392] peak 174304\n"},
      {"read_kmers @3",
       "r0 C[472 429 1985 1086 0 0 0 160576] R[472 429 1985 1086 0 0 0 160576] peak 280384\n"
       "r1 C[527 426 1915 1061 0 0 0 147264] R[527 426 1915 1061 0 0 0 147264] peak 280384\n"
       "r2 C[503 450 2180 1038 0 0 0 147264] R[503 450 2180 1038 0 0 0 147264] peak 280384\n"},
      {"read_kmers+add_remote @3",
       "r0 C[472 429 1985 1086 0 0 0 160576] R[472 429 1985 8809 0 0 0 621720] peak 280384\n"
       "r1 C[527 426 1915 1061 0 0 0 147264] R[527 426 1915 8371 0 0 0 605104] peak 280384\n"
       "r2 C[503 450 2180 1038 0 0 0 147264] R[503 450 2180 7211 0 0 0 596008] peak 280384\n"},
      {"allgather_kmers @3",
       "r0 C[0 429 0 0 1502 0 0 53872] R[0 429 0 0 1502 0 0 53872] peak 174304\n"
       "r1 C[0 426 0 0 1502 0 0 40560] R[0 426 0 0 1502 0 0 40560] peak 174304\n"
       "r2 C[0 450 0 0 1502 0 0 40560] R[0 450 0 0 1502 0 0 40560] peak 174304\n"},
      {"allgather_tiles @3",
       "r0 C[472 0 0 0 0 1305 0 80496] R[472 0 0 0 0 1305 0 80496] peak 174304\n"
       "r1 C[527 0 0 0 0 1305 0 80496] R[527 0 0 0 0 1305 0 80496] peak 174304\n"
       "r2 C[503 0 0 0 0 1305 0 80496] R[503 0 0 0 0 1305 0 80496] peak 174304\n"},
      {"allgather_both @3",
       "r0 C[0 0 0 0 1502 1305 0 53664] R[0 0 0 0 1502 1305 0 53664] peak 174304\n"
       "r1 C[0 0 0 0 1502 1305 0 53664] R[0 0 0 0 1502 1305 0 53664] peak 174304\n"
       "r2 C[0 0 0 0 1502 1305 0 53664] R[0 0 0 0 1502 1305 0 53664] peak 174304\n"},
      {"batch_reads @3",
       "r0 C[472 429 0 0 0 0 0 80704] R[472 429 0 0 0 0 0 80704] peak 107744\n"
       "r1 C[527 426 0 0 0 0 0 67392] R[527 426 0 0 0 0 0 67392] peak 67808\n"
       "r2 C[503 450 0 0 0 0 0 67392] R[503 450 0 0 0 0 0 67392] peak 67808\n"},
      {"partial_replication_group 2 @3",
       "r0 C[472 429 0 0 999 855 0 120224] R[472 429 0 0 999 855 0 120224] peak 174304\n"
       "r1 C[527 426 0 0 999 855 0 106912] R[527 426 0 0 999 855 0 106912] peak 174304\n"
       "r2 C[503 450 0 0 503 450 0 120224] R[503 450 0 0 503 450 0 120224] peak 174304\n"},
      {"filter_lookups @3",
       "r0 C[472 429 0 0 0 0 0 80704] R[472 429 0 0 0 0 3072 83776] peak 174304\n"
       "r1 C[527 426 0 0 0 0 0 67392] R[527 426 0 0 0 0 3008 70400] peak 174304\n"
       "r2 C[503 450 0 0 0 0 0 67392] R[503 450 0 0 0 0 3008 70400] peak 174304\n"},
      {"base @4",
       "r0 C[376 328 0 0 0 0 0 40768] R[376 328 0 0 0 0 0 40768] peak 134368\n"
       "r1 C[366 326 0 0 0 0 0 40768] R[366 326 0 0 0 0 0 40768] peak 134368\n"
       "r2 C[377 310 0 0 0 0 0 40768] R[377 310 0 0 0 0 0 40768] peak 134368\n"
       "r3 C[383 341 0 0 0 0 0 40768] R[383 341 0 0 0 0 0 40768] peak 134368\n"},
      {"read_kmers @4",
       "r0 C[376 328 2073 959 0 0 0 120640] R[376 328 2073 959 0 0 0 120640] peak 240448\n"
       "r1 C[366 326 1875 942 0 0 0 120640] R[366 326 1875 942 0 0 0 120640] peak 240448\n"
       "r2 C[377 310 1868 1010 0 0 0 120640] R[377 310 1868 1010 0 0 0 120640] peak 240448\n"
       "r3 C[383 341 2081 1019 0 0 0 120640] R[383 341 2081 1019 0 0 0 120640] peak 240448\n"},
      {"read_kmers+add_remote @4",
       "r0 C[376 328 2073 959 0 0 0 120640] R[376 328 2073 7294 0 0 0 570680] peak 240448\n"
       "r1 C[366 326 1875 942 0 0 0 120640] R[366 326 1875 6786 0 0 0 247264] peak 240448\n"
       "r2 C[377 310 1868 1010 0 0 0 120640] R[377 310 1868 7376 0 0 0 570928] peak 240448\n"
       "r3 C[383 341 2081 1019 0 0 0 120640] R[383 341 2081 6487 0 0 0 244256] peak 240448\n"},
      {"allgather_kmers @4",
       "r0 C[0 328 0 0 1502 0 0 40560] R[0 328 0 0 1502 0 0 40560] peak 134368\n"
       "r1 C[0 326 0 0 1502 0 0 40560] R[0 326 0 0 1502 0 0 40560] peak 134368\n"
       "r2 C[0 310 0 0 1502 0 0 40560] R[0 310 0 0 1502 0 0 40560] peak 134368\n"
       "r3 C[0 341 0 0 1502 0 0 40560] R[0 341 0 0 1502 0 0 40560] peak 134368\n"},
      {"allgather_tiles @4",
       "r0 C[376 0 0 0 0 1305 0 53872] R[376 0 0 0 0 1305 0 53872] peak 134368\n"
       "r1 C[366 0 0 0 0 1305 0 53872] R[366 0 0 0 0 1305 0 53872] peak 134368\n"
       "r2 C[377 0 0 0 0 1305 0 53872] R[377 0 0 0 0 1305 0 53872] peak 134368\n"
       "r3 C[383 0 0 0 0 1305 0 53872] R[383 0 0 0 0 1305 0 53872] peak 134368\n"},
      {"allgather_both @4",
       "r0 C[0 0 0 0 1502 1305 0 53664] R[0 0 0 0 1502 1305 0 53664] peak 134368\n"
       "r1 C[0 0 0 0 1502 1305 0 53664] R[0 0 0 0 1502 1305 0 53664] peak 134368\n"
       "r2 C[0 0 0 0 1502 1305 0 53664] R[0 0 0 0 1502 1305 0 53664] peak 134368\n"
       "r3 C[0 0 0 0 1502 1305 0 53664] R[0 0 0 0 1502 1305 0 53664] peak 134368\n"},
      {"batch_reads @4",
       "r0 C[376 328 0 0 0 0 0 40768] R[376 328 0 0 0 0 0 40768] peak 67808\n"
       "r1 C[366 326 0 0 0 0 0 40768] R[366 326 0 0 0 0 0 40768] peak 67808\n"
       "r2 C[377 310 0 0 0 0 0 40768] R[377 310 0 0 0 0 0 40768] peak 67808\n"
       "r3 C[383 341 0 0 0 0 0 40768] R[383 341 0 0 0 0 0 40768] peak 67808\n"},
      {"partial_replication_group 2 @4",
       "r0 C[376 328 0 0 742 654 0 66976] R[376 328 0 0 742 654 0 66976] peak 134368\n"
       "r1 C[366 326 0 0 742 654 0 66976] R[366 326 0 0 742 654 0 66976] peak 134368\n"
       "r2 C[377 310 0 0 760 651 0 66976] R[377 310 0 0 760 651 0 66976] peak 134368\n"
       "r3 C[383 341 0 0 760 651 0 66976] R[383 341 0 0 760 651 0 66976] peak 134368\n"},
      {"filter_lookups @4",
       "r0 C[376 328 0 0 0 0 0 40768] R[376 328 0 0 0 0 3456 44224] peak 134368\n"
       "r1 C[366 326 0 0 0 0 0 40768] R[366 326 0 0 0 0 3520 44288] peak 134368\n"
       "r2 C[377 310 0 0 0 0 0 40768] R[377 310 0 0 0 0 3456 44224] peak 134368\n"
       "r3 C[383 341 0 0 0 0 0 40768] R[383 341 0 0 0 0 3392 44160] peak 134368\n"},
  };
  return g;
}

std::string golden_for(const std::string& key) {
  for (const auto& [k, v] : golden()) {
    if (k == key) return v;
  }
  return "<missing>";
}

class SpectrumFootprint : public ::testing::TestWithParam<int> {};

TEST_P(SpectrumFootprint, EveryFieldIsPinned) {
  const int ranks = GetParam();
  for (const Case& c : cases()) {
    const std::string key = std::string(c.name) + " @" + std::to_string(ranks);
    const std::string actual = footprint_lines(c.heur, ranks);
    EXPECT_EQ(actual, golden_for(key)) << key << "\nactual:\n" << actual;
  }
}

INSTANTIATE_TEST_SUITE_P(Ranks, SpectrumFootprint, ::testing::Values(1, 3, 4));

TEST(SpectrumFootprintBaseline, ReplicatedSpectrumBytesArePinned) {
  for (const auto& [ranks, bytes] :
       std::vector<std::pair<int, std::size_t>>{{1, 159744}, {4, 159744}}) {
    BaselineConfig config;
    config.params = footprint_params();
    config.ranks = ranks;
    const auto result = run_replicated_baseline(footprint_dataset().reads,
                                                config);
    for (const BaselineRankReport& r : result.ranks) {
      EXPECT_EQ(r.spectrum_bytes, bytes)
          << ranks << " ranks, rank " << r.rank;
    }
  }
}

}  // namespace
}  // namespace reptile::parallel
