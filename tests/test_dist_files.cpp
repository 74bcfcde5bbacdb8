// Integration tests: the file-based pipeline (Step I from real FASTA +
// quality files) matches the in-memory pipeline and the sequential baseline.
#include "parallel/dist_pipeline.hpp"

#include <gtest/gtest.h>

#include <filesystem>

#include "core/pipeline.hpp"
#include "seq/alphabet.hpp"
#include "seq/dataset.hpp"
#include "seq/fasta_io.hpp"

namespace reptile::parallel {
namespace {

namespace fs = std::filesystem;

class DistFilesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() / "reptile_dist_files";
    fs::create_directories(dir_);
    seq::DatasetSpec spec{"mini", 800, 60, 2000};
    seq::ErrorModelParams errors;
    errors.error_rate_start = 0.005;
    errors.error_rate_end = 0.012;
    ds_ = seq::SyntheticDataset::generate(spec, errors, 55);
    seq::write_read_files(fasta(), qual(), ds_.reads);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path fasta() const { return dir_ / "reads.fa"; }
  fs::path qual() const { return dir_ / "reads.qual"; }

  static DistConfig config(int ranks, bool load_balance) {
    DistConfig c;
    c.params.k = 10;
    c.params.tile_overlap = 4;
    c.params.chunk_size = 100;
    c.ranks = ranks;
    c.ranks_per_node = 2;
    c.heuristics.load_balance = load_balance;
    return c;
  }

  fs::path dir_;
  seq::SyntheticDataset ds_;
};

TEST_F(DistFilesTest, MatchesInMemoryPipeline) {
  for (int ranks : {1, 2, 5}) {
    const auto cfg = config(ranks, true);
    const auto from_files = run_distributed_files(fasta(), qual(), cfg);
    const auto in_memory = run_distributed(ds_.reads, cfg);
    ASSERT_EQ(from_files.corrected.size(), in_memory.corrected.size())
        << "ranks=" << ranks;
    EXPECT_EQ(from_files.corrected, in_memory.corrected) << "ranks=" << ranks;
  }
}

TEST_F(DistFilesTest, MatchesSequentialBaseline) {
  const auto cfg = config(4, true);
  const auto from_files = run_distributed_files(fasta(), qual(), cfg);
  const auto ref = core::run_sequential(ds_.reads, cfg.params);
  ASSERT_EQ(from_files.corrected.size(), ref.corrected.size());
  for (std::size_t i = 0; i < ref.corrected.size(); ++i) {
    ASSERT_EQ(from_files.corrected[i].bases, ref.corrected[i].bases)
        << "read " << ref.corrected[i].number;
  }
}

TEST_F(DistFilesTest, StreamingModeWithoutLoadBalance) {
  // Without load balancing, ranks stream their byte partition directly
  // from the files (no in-memory materialization); results must still be
  // identical to the baseline.
  const auto cfg = config(3, false);
  const auto from_files = run_distributed_files(fasta(), qual(), cfg);
  const auto ref = core::run_sequential(ds_.reads, cfg.params);
  ASSERT_EQ(from_files.corrected.size(), ref.corrected.size());
  for (std::size_t i = 0; i < ref.corrected.size(); ++i) {
    ASSERT_EQ(from_files.corrected[i].bases, ref.corrected[i].bases);
  }
}

TEST_F(DistFilesTest, MoreRanksThanNeededStillWorks) {
  // Some ranks may receive an empty byte partition.
  seq::DatasetSpec tiny{"tiny", 5, 60, 500};
  const auto small = seq::SyntheticDataset::generate(tiny, {}, 1);
  const auto f = dir_ / "tiny.fa";
  const auto q = dir_ / "tiny.qual";
  seq::write_read_files(f, q, small.reads);
  const auto cfg = config(8, true);
  const auto result = run_distributed_files(f, q, cfg);
  EXPECT_EQ(result.corrected.size(), 5u);
}

TEST_F(DistFilesTest, NonAcgtBasesAreSanitizedOnIngest) {
  // 'N', 'n' and an IUPAC code ('R') must never reach the k-mer packer: the
  // readers replace them with 'A' (Reptile's preprocessing), so a run over
  // such files equals the run over the same reads sanitized beforehand.
  std::vector<seq::Read> dirty = ds_.reads;
  std::vector<seq::Read> clean = ds_.reads;
  const char codes[] = {'N', 'n', 'R'};
  for (std::size_t i = 0; i < dirty.size(); i += 7) {
    std::string& b = dirty[i].bases;
    b[(i * 13) % b.size()] = codes[(i / 7) % 3];
    b[(i * 29 + 5) % b.size()] = codes[(i / 7 + 1) % 3];
    clean[i].bases = seq::sanitize_sequence(b);
  }
  const auto dirty_fa = dir_ / "dirty.fa";
  const auto dirty_q = dir_ / "dirty.qual";
  const auto clean_fa = dir_ / "clean.fa";
  const auto clean_q = dir_ / "clean.qual";
  seq::write_read_files(dirty_fa, dirty_q, dirty);
  seq::write_read_files(clean_fa, clean_q, clean);

  const auto loaded = seq::read_all(dirty_fa, dirty_q);
  EXPECT_EQ(loaded, clean);
  const auto params = config(1, true).params;
  EXPECT_EQ(core::run_sequential(loaded, params).corrected,
            core::run_sequential(clean, params).corrected);
  // Each rank ingests its byte partition through PartitionedReadSource;
  // with load balancing the reads are then redistributed before Step II.
  for (const bool load_balance : {true, false}) {
    const auto cfg = config(2, load_balance);
    EXPECT_EQ(run_distributed_files(dirty_fa, dirty_q, cfg).corrected,
              run_distributed_files(clean_fa, clean_q, cfg).corrected)
        << "load_balance=" << load_balance;
  }
}

}  // namespace
}  // namespace reptile::parallel
