// parallel::run_distributed / run_distributed_files as stage-graph
// configurations: the full paper instance (LoadBalance -> BuildSpectrum ->
// Correct over the partitioned spectrum model), one graph run per rank
// inside the in-process runtime, then the cross-rank merge.

#include "parallel/dist_pipeline.hpp"

#include <memory>
#include <stdexcept>
#include <utility>

#include "obs/ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/protocol_table.hpp"
#include "parallel/report.hpp"
#include "pipeline/context.hpp"
#include "pipeline/dist_model.hpp"
#include "pipeline/stages.hpp"
#include "rtm/check/check.hpp"
#include "rtm/comm.hpp"
#include "seq/fasta_io.hpp"

namespace reptile::parallel {

namespace {

/// One rank's run over its Step I partition `raw_source`; writes its slice
/// of the shared output arrays.
void rank_main(rtm::Comm& comm, seq::ReadSource& raw_source,
               const DistConfig& config,
               std::vector<std::vector<seq::Read>>& corrected_per_rank,
               std::vector<RankReport>& reports) {
  const int rank = comm.rank();

  pipeline::DistSpectrumModel model(config.params, config.heuristics, comm);
  pipeline::RankContext ctx;
  ctx.bind(config.params, config.heuristics);
  ctx.rank.worker_threads = config.worker_threads;
  ctx.rank.comm = &comm;
  ctx.rank.model = &model;
  ctx.job.retry = config.retry;
  ctx.job.source = &raw_source;
  pipeline::paper_graph().run(ctx);

  RankReport report;
  report.timeline() = std::move(ctx.job.report);
  report.rank = rank;
  report.traffic = comm.world().traffic().snapshot(rank);

  corrected_per_rank[static_cast<std::size_t>(rank)] =
      std::move(ctx.job.corrected);
  reports[static_cast<std::size_t>(rank)] = std::move(report);
}

DistResult merge_results(std::vector<std::vector<seq::Read>> corrected_per_rank,
                         std::vector<RankReport> reports,
                         std::string check_report) {
  DistResult result;
  result.ranks = std::move(reports);
  result.corrected = pipeline::MergeStage::run(std::move(corrected_per_rank));
  result.check_report = std::move(check_report);
  return result;
}

/// Copies the finalized per-rank audit counters into the reports and
/// returns the audit text.
std::string apply_check_snapshots(rtm::World& world,
                                  std::vector<RankReport>& reports) {
  rtm::check::RunChecker* check = world.checker();
  if (check == nullptr) return "";
  for (RankReport& report : reports) {
    report.check = check->snapshot(report.rank);
  }
  return check->final_report();
}

/// Applies the run's observability configuration. Called unconditionally at
/// the start of every run — including the default-disabled state — so a
/// traced run never leaks tracing or metrics into the next run in the same
/// process (the identity tests depend on a disabled run being bit-identical
/// to the seed).
void begin_observability(const DistConfig& config) {
  obs::Tracer::instance().configure(config.trace);
  obs::Registry::global().configure(config.trace.metrics);
  obs::ResourceLedger::global().configure(config.trace.ledger);
}

/// End-of-run observability: mirrors each rank's timeline counters into the
/// metrics registry, then — once the runtime threads have all joined, which
/// is what makes the ring buffers safe to read — writes one trace shard per
/// rank. Destroying the World is the join point, so the caller must pass
/// ownership in and lets this function release it first.
void finish_observability(std::unique_ptr<rtm::World> world,
                          const DistConfig& config,
                          const std::vector<RankReport>& reports) {
  for (const RankReport& report : reports) publish_metrics(report);
  if (obs::ResourceLedger::global().enabled()) {
    obs::publish_ledger_metrics(obs::ResourceLedger::global().snapshot());
  }
  world.reset();  // joins chaos/watchdog threads; ring buffers now quiescent
  if (config.trace.enabled && !config.trace.path.empty()) {
    obs::Tracer::instance().write_shards(config.trace.path, config.ranks);
  }
}

}  // namespace

void validate_dist_config(const DistConfig& config) {
  config.params.validate();
  config.heuristics.validate();
  if (config.worker_threads < 1) {
    throw std::invalid_argument("worker_threads must be >= 1");
  }
  if (config.worker_threads > 1 && config.heuristics.add_remote &&
      !config.heuristics.batch_lookups) {
    throw std::invalid_argument(
        "add_remote caches into the shared reads tables, which is not "
        "thread-safe with worker_threads > 1: enable "
        "heuristics.batch_lookups (replies then land in each worker's "
        "chunk-local prefetch cache) or use worker_threads == 1");
  }
  config.run_options.chaos.validate();
  config.retry.validate();
  if (config.run_options.chaos.lossy() && !config.retry.enabled()) {
    throw std::invalid_argument(
        "chaos plan drops or truncates messages but the retry protocol is "
        "disabled: a lost lookup would block its worker forever. Set "
        "retry.timeout_ticks > 0 (see parallel::RetryPolicy)");
  }
}

rtm::RunOptions resolve_run_options(const DistConfig& config) {
  rtm::RunOptions options = config.run_options;
  if (options.check.enabled && options.check.lint &&
      options.check.tags.empty()) {
    options.check.tags = lookup_tag_table();
    options.check.strict_tags = true;
  }
  return options;
}

DistResult run_distributed(const std::vector<seq::Read>& reads,
                           const DistConfig& config) {
  validate_dist_config(config);
  begin_observability(config);

  std::vector<std::vector<seq::Read>> corrected_per_rank(
      static_cast<std::size_t>(config.ranks));
  std::vector<RankReport> reports(static_cast<std::size_t>(config.ranks));

  auto world = rtm::run_world(config.topology(), [&](rtm::Comm& comm) {
    const std::size_t begin = reads.size() *
                              static_cast<std::size_t>(comm.rank()) /
                              static_cast<std::size_t>(comm.size());
    const std::size_t end = reads.size() *
                            static_cast<std::size_t>(comm.rank() + 1) /
                            static_cast<std::size_t>(comm.size());
    seq::SliceReadSource source(reads, begin, end);
    rank_main(comm, source, config, corrected_per_rank, reports);
  }, resolve_run_options(config));
  std::string audit = apply_check_snapshots(*world, reports);
  finish_observability(std::move(world), config, reports);

  return merge_results(std::move(corrected_per_rank), std::move(reports),
                       std::move(audit));
}

DistResult run_distributed_files(const std::filesystem::path& fasta,
                                 const std::filesystem::path& qual,
                                 const DistConfig& config) {
  validate_dist_config(config);
  begin_observability(config);

  std::vector<std::vector<seq::Read>> corrected_per_rank(
      static_cast<std::size_t>(config.ranks));
  std::vector<RankReport> reports(static_cast<std::size_t>(config.ranks));

  auto world = rtm::run_world(config.topology(), [&](rtm::Comm& comm) {
    // Step I proper: every rank opens both files and takes its byte range.
    seq::PartitionedReadSource source(fasta, qual, comm.rank(), comm.size());
    rank_main(comm, source, config, corrected_per_rank, reports);
  }, resolve_run_options(config));
  std::string audit = apply_check_snapshots(*world, reports);
  finish_observability(std::move(world), config, reports);

  return merge_results(std::move(corrected_per_rank), std::move(reports),
                       std::move(audit));
}

}  // namespace reptile::parallel
