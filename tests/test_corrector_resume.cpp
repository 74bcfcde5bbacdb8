// Differential test of the resumable tile walk (TileCorrector::resume).
//
// DeferringView wraps a LocalSpectrum and defers a seeded random subset of
// lookups: it answers a placeholder 0, bumps deferred_lookups(), and learns
// the true count only when the test "fetches" (the round between passes).
// The view is written here from the SpectrumView contract alone, sharing no
// code with the distributed deferral. Driving every read through resume()
// until done must give the same bases, the same ReadCorrection and the same
// logical lookup counters as one correct() against the full spectrum.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/corrector.hpp"
#include "core/spectrum.hpp"
#include "seq/dataset.hpp"

namespace reptile::core {
namespace {

class DeferringView final : public SpectrumView {
 public:
  DeferringView(LocalSpectrum& truth, double defer_rate, std::uint64_t seed)
      : truth_(&truth), defer_rate_(defer_rate), rng_(seed) {}

  std::uint32_t kmer_count(seq::kmer_id_t id) override {
    ++stats_.kmer_lookups;
    const std::uint32_t c = answer(id, /*is_kmer=*/true);
    if (c == 0) ++stats_.kmer_misses;
    return c;
  }

  std::uint32_t tile_count(seq::tile_id_t id) override {
    ++stats_.tile_lookups;
    const std::uint32_t c = answer(id, /*is_kmer=*/false);
    if (c == 0) ++stats_.tile_misses;
    return c;
  }

  const LookupStats& stats() const override { return stats_; }
  std::uint64_t deferred_lookups() const override { return deferred_; }

  std::uint64_t begin_tile() override {
    mark_ = stats_;
    return deferred_;
  }

  void suspend_tile() override {
    stats_ = mark_;
    ++suspensions_;
  }

  /// The round: every deferred ID becomes answerable.
  void fetch() {
    for (const auto& key : pending_) known_.insert(key);
    pending_.clear();
  }

  std::uint64_t suspensions() const { return suspensions_; }

 private:
  std::uint32_t answer(std::uint64_t id, bool is_kmer) {
    const std::pair<bool, std::uint64_t> key{is_kmer, id};
    if (!known_.contains(key) &&
        std::bernoulli_distribution(defer_rate_)(rng_)) {
      pending_.insert(key);
      ++deferred_;
      return 0;  // placeholder, never a verdict
    }
    // Answered lookups read the truth through its own counters-free path:
    // the table, not LocalSpectrum::kmer_count.
    const auto& table = is_kmer ? truth_->kmers() : truth_->tiles();
    return table.find(id).value_or(0);
  }

  LocalSpectrum* truth_;
  double defer_rate_;
  std::mt19937_64 rng_;
  std::set<std::pair<bool, std::uint64_t>> known_;
  std::set<std::pair<bool, std::uint64_t>> pending_;
  std::uint64_t deferred_ = 0;
  std::uint64_t suspensions_ = 0;
  LookupStats stats_;
  LookupStats mark_;
};

const seq::SyntheticDataset& dataset() {
  static const seq::SyntheticDataset ds = [] {
    seq::DatasetSpec spec{"resume", 900, 60, 1500};
    seq::ErrorModelParams errors;
    errors.error_rate_start = 0.01;
    errors.error_rate_end = 0.03;
    return seq::SyntheticDataset::generate(spec, errors, 515);
  }();
  return ds;
}

/// The dataset's reads plus the awkward shapes: N bases, and reads shorter
/// than one tile (and exactly one tile long).
std::vector<seq::Read> test_reads(const CorrectorParams& p) {
  std::vector<seq::Read> reads = dataset().reads;
#ifdef NDEBUG
  // KmerCodec::pack asserts ACGT input in debug builds. Optimized builds
  // pack an N deterministically, and both walks must treat it alike.
  for (std::size_t i = 0; i < reads.size(); i += 37) {
    reads[i].bases[reads[i].bases.size() / 2] = 'N';
  }
#endif
  const auto tlen = static_cast<std::size_t>(p.tile_length());
  for (std::size_t i = 5; i < reads.size(); i += 53) {
    const std::size_t len = i % 2 == 0 ? tlen - 1 : tlen;
    reads[i].bases.resize(len);
    reads[i].quals.resize(len);
  }
  return reads;
}

struct ResumeCase {
  const char* name;
  int max_hamming;
  bool restrict_to_low_quality;
  int max_corrections_per_read;
};

class CorrectorResume : public ::testing::TestWithParam<ResumeCase> {};

TEST_P(CorrectorResume, MatchesUninterruptedCorrect) {
  const ResumeCase& rc = GetParam();
  CorrectorParams p;
  p.k = 10;
  p.tile_overlap = 4;
  p.max_hamming = rc.max_hamming;
  p.restrict_to_low_quality = rc.restrict_to_low_quality;
  p.max_corrections_per_read = rc.max_corrections_per_read;

  LocalSpectrum spectrum(p);
  for (const auto& r : dataset().reads) spectrum.add_read(r.bases);
  spectrum.prune();
  const TileCorrector corrector(p);

  std::vector<seq::Read> expected = test_reads(p);
  const LookupStats before = spectrum.stats();
  std::vector<ReadCorrection> expected_rc;
  for (auto& r : expected) expected_rc.push_back(corrector.correct(r, spectrum));
  LookupStats expected_stats = spectrum.stats();
  expected_stats -= before;

  std::uint64_t changed = 0;
  for (const auto& c : expected_rc) changed += c.changed() ? 1 : 0;
  ASSERT_GT(changed, 0u) << "dataset must exercise corrections";

  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    for (const double rate : {0.2, 0.7, 1.0}) {
      DeferringView view(spectrum, rate, seed);
      std::vector<seq::Read> reads = test_reads(p);
      std::vector<ReadCursor> cursors(reads.size());
      // The chunk loop: passes over the unfinished reads, one fetch between
      // passes.
      std::vector<std::size_t> unfinished(reads.size());
      for (std::size_t i = 0; i < reads.size(); ++i) unfinished[i] = i;
      int passes = 0;
      while (!unfinished.empty()) {
        ASSERT_LT(++passes, 1000) << "resume loop does not converge";
        std::vector<std::size_t> next;
        for (const std::size_t i : unfinished) {
          if (!corrector.resume(reads[i], view, cursors[i])) next.push_back(i);
        }
        unfinished = std::move(next);
        view.fetch();
      }
      if (rate > 0.5) {
        EXPECT_GT(view.suspensions(), 0u);
      }
      for (std::size_t i = 0; i < reads.size(); ++i) {
        ASSERT_EQ(reads[i].bases, expected[i].bases)
            << "seed " << seed << " rate " << rate << " read " << i;
        const ReadCorrection& got = cursors[i].result;
        const ReadCorrection& want = expected_rc[i];
        ASSERT_EQ(got.substitutions, want.substitutions) << "read " << i;
        ASSERT_EQ(got.tiles_untrusted, want.tiles_untrusted) << "read " << i;
        ASSERT_EQ(got.tiles_fixed, want.tiles_fixed) << "read " << i;
        ASSERT_EQ(got.tiles_degraded, want.tiles_degraded) << "read " << i;
      }
      // Logical counters count the deciding pass only.
      EXPECT_EQ(view.stats().kmer_lookups, expected_stats.kmer_lookups);
      EXPECT_EQ(view.stats().kmer_misses, expected_stats.kmer_misses);
      EXPECT_EQ(view.stats().tile_lookups, expected_stats.tile_lookups);
      EXPECT_EQ(view.stats().tile_misses, expected_stats.tile_misses);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Params, CorrectorResume,
    ::testing::Values(ResumeCase{"hd1", 1, false, 8},
                      ResumeCase{"hd2", 2, false, 8},
                      ResumeCase{"hd2_low_quality_only", 2, true, 8},
                      ResumeCase{"hd2_capped", 2, false, 1},
                      ResumeCase{"hd1_capped_low_quality", 1, true, 2}),
    [](const ::testing::TestParamInfo<ResumeCase>& info) {
      return info.param.name;
    });

TEST(TileIndexing, IndexedStartsMatchTheStridedTiling) {
  // The walk indexes tiles without building a position vector. Reference
  // tiling, spelled out: strided starts 0, step, 2*step, ... plus a tail
  // tile flush with the read end when the stride falls short of it.
  const seq::TileCodec codec(10, 4);
  const int tlen = codec.tile_len();
  for (int len = 0; len < 80; ++len) {
    std::vector<int> want;
    for (int pos = 0; pos + tlen <= len; pos += codec.step()) {
      want.push_back(pos);
    }
    if (!want.empty() && want.back() + tlen < len) want.push_back(len - tlen);
    ASSERT_EQ(codec.num_tiles(len), static_cast<int>(want.size()))
        << "len " << len;
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(codec.tile_start(static_cast<int>(i), len), want[i])
          << "len " << len << " tile " << i;
    }
  }
}

}  // namespace
}  // namespace reptile::core
