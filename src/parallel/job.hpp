#pragma once
// Per-job configuration of a resident correction server (DESIGN.md §13).
//
// The rank-vs-job lifetime split (pipeline/context.hpp) pins which knobs a
// streamed job may override: anything the spectrum was built from — k,
// tile_overlap, the thresholds, canonical IDs, and the construction-phase
// heuristics (read_kmers, allgather_*, batch_reads, bloom_construction,
// partial_replication_group) — is RANK-lifetime and fixed at server start.
// Everything that only steers the correction phase is fair game per job:
// the corrector search knobs, chunking, the lookup-path heuristics
// (universal / batch_lookups / filter_lookups / add_remote), the retry
// policy, and the deadline. Every member is an optional: unset keeps the
// server's build-time value, so an empty JobOverrides reproduces a one-shot
// run bit for bit.

#include <cstddef>
#include <optional>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "core/params.hpp"
#include "parallel/heuristics.hpp"
#include "parallel/protocol.hpp"

namespace reptile::parallel {

/// Correction-phase overrides of one streamed job; unset = the server's
/// build-time value. Parsed from the config `job.*` namespace
/// (parallel/config_file.hpp) or filled programmatically per JobRequest.
struct JobOverrides {
  // --- corrector search knobs (core::CorrectorParams) -------------------
  std::optional<int> qual_threshold;
  std::optional<bool> restrict_to_low_quality;
  std::optional<int> max_positions_per_tile;
  std::optional<int> max_hamming;
  std::optional<double> dominance_ratio;
  std::optional<int> max_corrections_per_read;
  std::optional<std::size_t> chunk_size;
  std::optional<std::size_t> prefetch_capacity;

  // --- correction-phase lookup heuristics -------------------------------
  std::optional<bool> universal;
  std::optional<bool> batch_lookups;
  std::optional<bool> filter_lookups;
  std::optional<bool> add_remote;

  // --- SLO --------------------------------------------------------------
  /// Wall-clock budget for the job's correction phase, in seconds;
  /// unset/0 = no deadline. A job that blows it finishes conservatively
  /// (remaining reads pass through uncorrected) and is marked degraded.
  std::optional<double> deadline_seconds;
  /// Timeout/retry policy override for the job's remote lookups.
  std::optional<RetryPolicy> retry;

  /// Each corrector-knob override paired with the core::CorrectorParams
  /// member it replaces, listed once: apply_to, any_set and the config
  /// file's `job.<key>` names (parallel/config_file.cpp) all iterate it.
  static constexpr auto param_fields() {
    using J = JobOverrides;
    using P = core::CorrectorParams;
    return std::tuple{
        std::pair{&J::qual_threshold, &P::qual_threshold},
        std::pair{&J::restrict_to_low_quality, &P::restrict_to_low_quality},
        std::pair{&J::max_positions_per_tile, &P::max_positions_per_tile},
        std::pair{&J::max_hamming, &P::max_hamming},
        std::pair{&J::dominance_ratio, &P::dominance_ratio},
        std::pair{&J::max_corrections_per_read, &P::max_corrections_per_read},
        std::pair{&J::chunk_size, &P::chunk_size},
        std::pair{&J::prefetch_capacity, &P::prefetch_capacity}};
  }

  /// The same pairing for the correction-phase lookup heuristics.
  static constexpr auto heuristic_fields() {
    using J = JobOverrides;
    using H = Heuristics;
    return std::tuple{std::pair{&J::universal, &H::universal},
                      std::pair{&J::batch_lookups, &H::batch_lookups},
                      std::pair{&J::filter_lookups, &H::filter_lookups},
                      std::pair{&J::add_remote, &H::add_remote}};
  }

  bool any_set() const noexcept {
    const auto set = [this](const auto&... pair) {
      return (... || (this->*pair.first).has_value());
    };
    return std::apply(set, param_fields()) ||
           std::apply(set, heuristic_fields()) || deadline_seconds || retry;
  }

  /// The job's effective parameters: the build parameters with this job's
  /// overrides applied. Build-lifetime fields pass through untouched.
  core::CorrectorParams apply_to(const core::CorrectorParams& build) const {
    return overridden(build, param_fields());
  }

  /// The job's effective heuristics: build heuristics with the correction-
  /// phase flags swapped. Construction-phase flags pass through untouched —
  /// the spectrum they shaped already exists.
  Heuristics apply_to(const Heuristics& build) const {
    return overridden(build, heuristic_fields());
  }

  /// Validates the overrides against the server's build configuration;
  /// throws std::invalid_argument with the same messages a one-shot run of
  /// the effective config would produce, plus the serve-specific
  /// constraints (add_remote needs the build-time reads tables; concurrent
  /// workers with add_remote need batch_lookups).
  void validate(const core::CorrectorParams& build_params,
                const Heuristics& build_heur, int worker_threads) const {
    apply_to(build_params).validate();
    const Heuristics h = apply_to(build_heur);
    h.validate();  // catches add_remote without read_kmers
    if (h.add_remote && !build_heur.read_kmers) {
      throw std::invalid_argument(
          "job: add_remote needs the reads tables, which exist only when "
          "the server was built with heuristics.read_kmers");
    }
    if (worker_threads > 1 && h.add_remote && !h.batch_lookups) {
      throw std::invalid_argument(
          "job: add_remote with worker_threads > 1 requires batch_lookups "
          "(shared reads tables are not thread-safe to write)");
    }
    if (deadline_seconds && *deadline_seconds < 0.0) {
      throw std::invalid_argument("job: deadline_seconds must be >= 0");
    }
    if (retry) retry->validate();
  }

 private:
  template <class Build, class Pairs>
  Build overridden(Build out, const Pairs& pairs) const {
    const auto apply_one = [&](const auto& pair) {
      if (const auto& value = this->*pair.first) out.*pair.second = *value;
    };
    std::apply([&](const auto&... pair) { (apply_one(pair), ...); }, pairs);
    return out;
  }
};

}  // namespace reptile::parallel
