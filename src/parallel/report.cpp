#include "parallel/report.hpp"

#include "obs/metrics.hpp"

namespace reptile::parallel {

namespace {

enum class Metric { kNone, kCounter, kGauge };

/// One per-rank quantity: its RunReport column (nullptr = not reported),
/// its Prometheus type and name, and its value. Values travel as double,
/// which is exact for counters below 2^53.
struct CounterRow {
  const char* column;
  Metric kind;
  const char* metric;
  double (*value)(const RankReport&);
};

using R = const RankReport&;
constexpr Metric kNone = Metric::kNone;
constexpr Metric kCounter = Metric::kCounter;
constexpr Metric kGauge = Metric::kGauge;

// Rows with a column are in RunReport schema order. Prometheus names are
// explicit rather than derived from the column: the two namespaces already
// differed (the reads column is published as the processed-reads counter)
// and the exposition must stay byte-identical.
constexpr CounterRow kCounters[] = {
    {"rank", kNone, nullptr, [](R r) -> double { return r.rank; }},
    {"reads", kCounter, "reptile_reads_processed",
     [](R r) -> double { return r.reads_processed; }},
    {"reads_changed", kCounter, "reptile_reads_changed",
     [](R r) -> double { return r.reads_changed; }},
    {"substitutions", kCounter, "reptile_substitutions",
     [](R r) -> double { return r.substitutions; }},
    {"tiles_untrusted", kCounter, "reptile_tiles_untrusted",
     [](R r) -> double { return r.tiles_untrusted; }},
    {nullptr, kCounter, "reptile_tiles_fixed",
     [](R r) -> double { return r.tiles_fixed; }},
    {nullptr, kCounter, "reptile_reads_deadline_skipped",
     [](R r) -> double { return r.reads_deadline_skipped; }},
    {nullptr, kCounter, "reptile_chunks_built",
     [](R r) -> double { return r.batches; }},
    {"kmer_lookups", kCounter, "reptile_lookup_kmer_total",
     [](R r) -> double { return r.lookups.kmer_lookups; }},
    {nullptr, kCounter, "reptile_lookup_kmer_miss",
     [](R r) -> double { return r.lookups.kmer_misses; }},
    {"tile_lookups", kCounter, "reptile_lookup_tile_total",
     [](R r) -> double { return r.lookups.tile_lookups; }},
    {nullptr, kCounter, "reptile_lookup_tile_miss",
     [](R r) -> double { return r.lookups.tile_misses; }},
    {"remote_kmer_lookups", kCounter, "reptile_remote_kmer_lookups",
     [](R r) -> double { return r.remote.remote_kmer_lookups; }},
    {"remote_tile_lookups", kCounter, "reptile_remote_tile_lookups",
     [](R r) -> double { return r.remote.remote_tile_lookups; }},
    {nullptr, kCounter, "reptile_remote_kmer_absent",
     [](R r) -> double { return r.remote.remote_kmer_absent; }},
    {nullptr, kCounter, "reptile_remote_tile_absent",
     [](R r) -> double { return r.remote.remote_tile_absent; }},
    {nullptr, kCounter, "reptile_reads_table_hits",
     [](R r) -> double { return r.remote.reads_table_hits; }},
    {nullptr, kCounter, "reptile_group_lookups",
     [](R r) -> double { return r.remote.group_lookups; }},
    {"requests_served", kCounter, "reptile_service_requests",
     [](R r) -> double { return r.service.requests_served; }},
    {nullptr, kCounter, "reptile_service_kmer_requests",
     [](R r) -> double { return r.service.kmer_requests; }},
    {nullptr, kCounter, "reptile_service_tile_requests",
     [](R r) -> double { return r.service.tile_requests; }},
    {nullptr, kCounter, "reptile_service_absent_replies",
     [](R r) -> double { return r.service.absent_replies; }},
    {"probe_calls", kNone, nullptr,
     [](R r) -> double { return r.service.probe_calls; }},
    {"batch_requests", kCounter, "reptile_batch_requests",
     [](R r) -> double { return r.remote.batch_requests; }},
    {nullptr, kCounter, "reptile_batch_ids",
     [](R r) -> double { return r.remote.batch_ids(); }},
    {"batch_kmer_ids", kNone, nullptr,
     [](R r) -> double { return r.remote.batch_kmer_ids; }},
    {"batch_tile_ids", kNone, nullptr,
     [](R r) -> double { return r.remote.batch_tile_ids; }},
    {"avg_batch_size", kNone, nullptr,
     [](R r) -> double { return r.remote.avg_batch_size(); }},
    {"dedup_ratio", kNone, nullptr,
     [](R r) -> double { return r.remote.dedup_ratio(); }},
    {"prefetch_hits", kCounter, "reptile_prefetch_hits",
     [](R r) -> double { return r.remote.prefetch_hits; }},
    {nullptr, kCounter, "reptile_prefetch_misses",
     [](R r) -> double { return r.remote.prefetch_misses; }},
    {"prefetch_hit_rate", kNone, nullptr,
     [](R r) -> double { return r.remote.prefetch_hit_rate(); }},
    {"filter_neg_hits", kCounter, "reptile_filter_neg_hits",
     [](R r) -> double { return r.remote.filter_neg_hits; }},
    {"filter_false_positives", kCounter, "reptile_filter_false_positives",
     [](R r) -> double { return r.remote.filter_false_positives; }},
    {"filter_bytes", kGauge, "reptile_filter_bytes",
     [](R r) -> double { return r.footprint_after_correction.filter_bytes; }},
    {"batch_requests_served", kCounter, "reptile_service_batch_requests",
     [](R r) -> double { return r.service.batch_requests; }},
    {nullptr, kCounter, "reptile_service_batch_ids",
     [](R r) -> double { return r.service.batch_ids_served; }},
    {nullptr, kCounter, "reptile_service_filter_stragglers",
     [](R r) -> double { return r.service.filter_stragglers; }},
    {"construct_seconds", kGauge, "reptile_construct_seconds",
     [](R r) { return r.construct_seconds; }},
    {"correct_seconds", kGauge, "reptile_correct_seconds",
     [](R r) { return r.correct_seconds; }},
    {"comm_seconds", kGauge, "reptile_comm_seconds",
     [](R r) { return r.comm_seconds; }},
    {"spectrum_bytes", kNone, nullptr,
     [](R r) -> double { return r.footprint_after_correction.bytes; }},
    {nullptr, kGauge, "reptile_spectrum_bytes",
     [](R r) -> double { return r.footprint_after_construction.bytes; }},
    {"construction_peak_bytes", kGauge, "reptile_construction_peak_bytes",
     [](R r) -> double { return r.construction_peak_bytes; }},
    {"sent_msgs", kNone, nullptr,
     [](R r) -> double { return r.traffic.sent_msgs(); }},
    {"sent_bytes", kNone, nullptr,
     [](R r) -> double { return r.traffic.sent_bytes(); }},
    {"largest_msg_bytes", kNone, nullptr,
     [](R r) -> double { return r.traffic.largest_msg_bytes; }},
    {"check_lint_msgs", kNone, nullptr,
     [](R r) -> double { return r.check.lint_checked; }},
    {"check_fifo_violations", kNone, nullptr,
     [](R r) -> double { return r.check.fifo_violations; }},
    {"check_leaked_msgs", kNone, nullptr,
     [](R r) -> double { return r.check.leaked_messages; }},
    {"check_orphan_replies", kNone, nullptr,
     [](R r) -> double { return r.check.orphaned_replies; }},
    {"check_unanswered", kNone, nullptr,
     [](R r) -> double { return r.check.unanswered_requests; }},
    {"check_max_pending_at_barrier", kNone, nullptr,
     [](R r) -> double { return r.check.max_pending_at_barrier; }},
    // Fault-injection / retry-protocol rows (all 0 on fault-free runs with
    // retries disabled).
    {"tiles_degraded", kCounter, "reptile_tiles_degraded",
     [](R r) -> double { return r.tiles_degraded; }},
    {"lookup_retries", kCounter, "reptile_lookup_retries",
     [](R r) -> double { return r.remote.lookup_retries; }},
    {"lookup_timeouts", kCounter, "reptile_lookup_timeouts",
     [](R r) -> double { return r.remote.lookup_timeouts; }},
    {"degraded_lookups", kCounter, "reptile_degraded_lookups",
     [](R r) -> double { return r.remote.degraded_lookups; }},
    {"stale_replies_suppressed", kCounter, "reptile_stale_replies_suppressed",
     [](R r) -> double { return r.remote.stale_replies_suppressed; }},
    {"batch_retries", kCounter, "reptile_batch_retries",
     [](R r) -> double { return r.remote.batch_retries; }},
    {"batch_abandoned", kCounter, "reptile_batch_abandoned",
     [](R r) -> double { return r.remote.batch_abandoned; }},
    {"malformed_requests", kCounter, "reptile_service_malformed_requests",
     [](R r) -> double { return r.service.malformed_requests; }},
    {"chaos_dropped_msgs", kNone, nullptr,
     [](R r) -> double { return r.traffic.dropped_msgs; }},
    {"chaos_duplicated_msgs", kNone, nullptr,
     [](R r) -> double { return r.traffic.duplicated_msgs; }},
    {"check_retransmits", kNone, nullptr,
     [](R r) -> double { return r.check.retransmits; }},
    {"check_stale_leaks", kNone, nullptr,
     [](R r) -> double { return r.check.stale_leaks; }},
};

/// Latency histograms reported as <column>_{count,p50_us,p99_us,max_us}
/// columns while the registry is enabled.
constexpr struct {
  const char* column;
  const char* histogram;
} kLatencyColumns[] = {
    {"lookup_rtt", obs::kLookupRttHistogram},
    {"batch_prefetch", obs::kBatchPrefetchHistogram},
    {"service_handle", obs::kServiceHandleHistogram},
    {"mailbox_wait", obs::kMailboxWaitHistogram},
};

}  // namespace

stats::RunReport to_report(const DistResult& result,
                           const std::string& title) {
  const obs::Registry& registry = obs::Registry::global();
  stats::RunReport report(title);
  for (const RankReport& r : result.ranks) {
    report.record();
    for (const CounterRow& row : kCounters) {
      if (row.column != nullptr) report.add(row.column, row.value(r));
    }
    if (registry.enabled()) {
      for (const auto& latency : kLatencyColumns) {
        const obs::HistogramSummary h =
            registry.histogram_summary(latency.histogram, r.rank);
        const std::string column = latency.column;
        report.add(column + "_count", static_cast<double>(h.count))
            .add(column + "_p50_us", static_cast<double>(h.p50))
            .add(column + "_p99_us", static_cast<double>(h.p99))
            .add(column + "_max_us", static_cast<double>(h.max));
      }
    }
    // Resource-ledger columns, present only when the run armed the ledger
    // (same schema-gating idea as the histogram block above).
    if (!r.ledger.empty()) {
      for (const stats::LedgerAccountSample& row : r.ledger) {
        report.add(std::string("ledger_peak_") + row.account,
                   static_cast<double>(row.peak_bytes));
      }
      report
          .add("ledger_total_peak_bytes",
               static_cast<double>(r.ledger_total_peak_bytes))
          .add("rss_peak_bytes", static_cast<double>(r.ledger_rss_peak_bytes));
    }
  }
  return report;
}

void publish_metrics(const RankReport& report, std::int64_t job) {
  obs::Registry& registry = obs::Registry::global();
  if (!registry.enabled()) return;
  for (const CounterRow& row : kCounters) {
    const double value = row.value(report);
    if (row.kind == kCounter && value != 0) {
      registry.counter(row.metric, report.rank, job)
          ->add(static_cast<std::uint64_t>(value));
    } else if (row.kind == kGauge) {
      registry.gauge(row.metric, report.rank, job)->set(value);
    }
  }
}

}  // namespace reptile::parallel
