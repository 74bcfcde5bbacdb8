#pragma once
// Flattening a distributed run into a machine-readable report, and
// publishing its per-rank counters into the metrics registry.
//
// Both read one counter table (report.cpp): each row names a quantity's
// RunReport column, its Prometheus name and type, and how to read it from
// a RankReport. Adding a counter is one struct member plus one row.

#include <cstdint>
#include <string>

#include "parallel/dist_pipeline.hpp"
#include "stats/report.hpp"

namespace reptile::parallel {

/// One record per rank with the quantities the paper's figures track, in
/// the counter table's column order. When the metrics registry is enabled
/// for the run, each record also carries the latency-histogram summaries
/// (lookup RTT, batch prefetch, service handle, mailbox wait) — gated on
/// the registry rather than per-histogram presence so every rank's record
/// has the same columns (RunReport::add enforces one schema per report).
stats::RunReport to_report(const DistResult& result, const std::string& title);

/// Publishes one rank's table counters and gauges into the global metrics
/// registry, labelled with `report.rank` and, when job >= 0, the serve-mode
/// job. Zero counters are not registered; gauges always are. No-op while
/// the registry is disabled.
void publish_metrics(const RankReport& report, std::int64_t job = -1);

}  // namespace reptile::parallel
