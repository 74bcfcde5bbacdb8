// Chaos sweep: the distributed pipeline across seeds x fault plans x lookup
// modes (scalar request/reply vs batched prefetch), checked against the
// sequential baseline.
//
// Identity contract per plan class (DESIGN.md §4d):
//  * delay-only plans lose nothing — output must be bit-identical;
//  * lossy plans (drops/truncation) may degrade lookups — the output must be
//    CONSERVATIVELY identical: every base either matches the sequential
//    correction or is the original (a skipped substitution). A substitution
//    the baseline never applied is a miscorrection and fails the sweep.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "parallel/dist_pipeline.hpp"
#include "seq/dataset.hpp"

namespace reptile {
namespace {

core::CorrectorParams sweep_params() {
  core::CorrectorParams p;
  p.k = 10;
  p.tile_overlap = 4;
  p.chunk_size = 64;
  return p;
}

const seq::SyntheticDataset& sweep_dataset() {
  static const seq::SyntheticDataset ds = [] {
    seq::DatasetSpec spec{"sweep", 400, 60, 900};
    seq::ErrorModelParams errors;
    errors.error_rate_start = 0.005;
    errors.error_rate_end = 0.012;
    return seq::SyntheticDataset::generate(spec, errors, 77);
  }();
  return ds;
}

const core::SequentialResult& sweep_reference() {
  static const core::SequentialResult ref =
      core::run_sequential(sweep_dataset().reads, sweep_params());
  return ref;
}

/// Reads of `result` that differ from the sequential baseline, after
/// checking each differing base is the ORIGINAL base: a degraded run may
/// skip a substitution, never apply one the baseline did not.
std::size_t count_divergent(const parallel::DistResult& result,
                            const std::string& where) {
  const auto& ds = sweep_dataset();
  const auto& ref = sweep_reference();
  EXPECT_EQ(result.corrected.size(), ref.corrected.size()) << where;
  std::size_t divergent = 0;
  for (std::size_t i = 0; i < ref.corrected.size(); ++i) {
    EXPECT_EQ(result.corrected[i].number, ref.corrected[i].number) << where;
    const std::string& dist = result.corrected[i].bases;
    const std::string& fixed = ref.corrected[i].bases;
    if (dist == fixed) continue;
    ++divergent;
    const std::string& original = ds.reads[i].bases;
    EXPECT_EQ(dist.size(), fixed.size()) << where;
    for (std::size_t b = 0; b < std::min(dist.size(), fixed.size()); ++b) {
      if (dist[b] != fixed[b]) {
        EXPECT_EQ(dist[b], original[b])
            << where << " read " << ref.corrected[i].number << " base " << b
            << ": miscorrection (neither original nor baseline)";
      }
    }
  }
  return divergent;
}

struct SweepCase {
  const char* name;
  rtm::FaultPlan plan;     ///< seed overwritten per sweep iteration
  bool lossy;              ///< expected contract (plan.lossy() cross-check)
  bool batched;            ///< batch_lookups mode
};

rtm::FaultPlan delay_only() {
  rtm::FaultPlan p;
  p.max_delay_us = 250;
  return p;
}

rtm::FaultPlan delays_and_drops() {
  rtm::FaultPlan p = delay_only();
  p.drop_rate = 0.06;
  return p;
}

rtm::FaultPlan full_chaos() {
  rtm::FaultPlan p = delay_only();
  p.drop_rate = 0.05;
  p.duplicate_rate = 0.05;
  p.truncate_rate = 0.02;
  p.stall_rate = 0.002;
  p.stall_us = 1500;
  return p;
}

class ChaosSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(ChaosSweep, HoldsIdentityContract) {
  const SweepCase& cs = GetParam();
  const auto& ds = sweep_dataset();
  const auto& ref = sweep_reference();

  for (const std::uint64_t seed : {101ull, 202ull}) {
    parallel::DistConfig config;
    config.params = sweep_params();
    config.ranks = 4;
    config.heuristics.batch_lookups = cs.batched;
    config.run_options.chaos = cs.plan;
    config.run_options.chaos.seed = seed;
    ASSERT_EQ(config.run_options.chaos.lossy(), cs.lossy) << cs.name;
    if (cs.lossy) {
      config.retry.timeout_ticks = 5;
      config.retry.max_retries = 12;
    }

    const auto result = parallel::run_distributed(ds.reads, config);
    ASSERT_EQ(result.corrected.size(), ref.corrected.size());

    std::uint64_t degraded = 0;
    for (const auto& r : result.ranks) {
      degraded += r.tiles_degraded;
      EXPECT_EQ(r.check.fifo_violations, 0u)
          << cs.name << " seed " << seed << " rank " << r.rank;
      // The audit text names each leak's envelope, tag and seq.
      EXPECT_EQ(r.check.leaked_messages, 0u)
          << cs.name << " seed " << seed << " rank " << r.rank << "\n"
          << result.check_report;
      EXPECT_EQ(r.check.orphaned_replies, 0u)
          << cs.name << " seed " << seed << " rank " << r.rank << "\n"
          << result.check_report;
    }
    if (!cs.lossy) {
      EXPECT_EQ(degraded, 0u) << cs.name;
    }

    const std::string where = std::string(cs.name) + " seed " +
                              std::to_string(seed);
    const std::size_t divergent = count_divergent(result, where);
    if (!cs.lossy) {
      EXPECT_EQ(divergent, 0u) << where << ": delay-only plan changed reads";
    }
    // Degradation is the only licence to diverge.
    if (degraded == 0) {
      EXPECT_EQ(divergent, 0u) << cs.name << " seed " << seed;
      EXPECT_EQ(result.total_substitutions(), ref.substitutions)
          << cs.name << " seed " << seed;
    }
    EXPECT_LE(result.total_substitutions(), ref.substitutions);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Plans, ChaosSweep,
    ::testing::Values(
        SweepCase{"delay_scalar", delay_only(), false, false},
        SweepCase{"delay_batched", delay_only(), false, true},
        SweepCase{"drops_scalar", delays_and_drops(), true, false},
        SweepCase{"drops_batched", delays_and_drops(), true, true},
        SweepCase{"full_scalar", full_chaos(), true, false},
        SweepCase{"full_batched", full_chaos(), true, true}),
    [](const ::testing::TestParamInfo<SweepCase>& info) {
      return info.param.name;
    });

TEST(ChaosSweepRounds, StalledPeerAbandonsRoundsWithoutMiscorrecting) {
  // Stall windows far longer than a one-attempt batch timeout: rounds whose
  // owner is stalled are abandoned, their IDs are deferred again, and once
  // a round adds nothing the reads finish on the scalar path (whose own
  // retries may degrade). The run must finish and never miscorrect.
  parallel::DistConfig config;
  config.params = sweep_params();
  config.ranks = 4;
  config.heuristics.batch_lookups = true;
  config.run_options.chaos.seed = 303;
  config.run_options.chaos.max_delay_us = 50;
  config.run_options.chaos.stall_rate = 0.05;
  config.run_options.chaos.stall_us = 20000;
  config.retry.timeout_ticks = 1;
  config.retry.max_retries = 0;

  const auto result =
      parallel::run_distributed(sweep_dataset().reads, config);
  std::uint64_t abandoned = 0;
  for (const auto& r : result.ranks) {
    abandoned += r.remote.batch_abandoned;
    EXPECT_EQ(r.check.fifo_violations, 0u) << "rank " << r.rank;
  }
  EXPECT_GT(abandoned, 0u);
  count_divergent(result, "stalled rounds");
  EXPECT_LE(result.total_substitutions(), sweep_reference().substitutions);
}

}  // namespace
}  // namespace reptile
