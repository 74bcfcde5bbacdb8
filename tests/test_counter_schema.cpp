// Golden byte-identity pins for every counter and config key surface: the
// RunReport CSV/JSON columns, the Prometheus exposition of the per-rank
// counters, and to_config_text. The inputs are filled member by member by
// hand, so this file shares no code with the tables that produce the
// output; a renamed, reordered, dropped or re-typed counter or key changes
// a byte here.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"
#include "parallel/config_file.hpp"
#include "parallel/report.hpp"

namespace reptile::parallel {

// Publishes one rank's counters into the global registry through whichever
// entry point the tree provides: a Registry member taking the timeline, or
// a free function over RankReport found by argument-dependent lookup.
template <class Registry, class Report>
auto publish_rank(Registry& registry, const Report& r, std::int64_t job, int)
    -> decltype(registry.publish_timeline(r, r.rank, job)) {
  registry.publish_timeline(r, r.rank, job);
}
template <class Registry, class Report>
auto publish_rank(Registry&, const Report& r, std::int64_t job, long)
    -> decltype(publish_metrics(r, job)) {
  publish_metrics(r, job);
}

namespace {

RankReport golden_rank() {
  RankReport r;
  r.rank = 2;
  r.reads_processed = 1001;
  r.reads_changed = 1002;
  r.substitutions = 1003;
  r.tiles_untrusted = 1004;
  r.tiles_fixed = 1005;
  r.tiles_degraded = 1006;
  r.reads_deadline_skipped = 1007;
  r.batches = 1008;
  r.work_grants = 1009;

  r.lookups.kmer_lookups = 2001;
  r.lookups.kmer_misses = 2002;
  r.lookups.tile_lookups = 2003;
  r.lookups.tile_misses = 2004;

  r.remote.remote_kmer_lookups = 3001;
  r.remote.remote_tile_lookups = 3002;
  r.remote.remote_kmer_absent = 3003;
  r.remote.remote_tile_absent = 3004;
  r.remote.reads_table_hits = 3005;
  r.remote.group_lookups = 3006;
  r.remote.batch_requests = 3007;
  r.remote.batch_kmer_ids = 3008;
  r.remote.batch_tile_ids = 3009;
  r.remote.batch_kmer_ids_raw = 3010;
  r.remote.batch_tile_ids_raw = 3011;
  r.remote.prefetch_hits = 3012;
  r.remote.prefetch_misses = 3013;
  r.remote.filter_neg_hits = 3014;
  r.remote.filter_false_positives = 3015;
  r.remote.lookup_retries = 3016;
  r.remote.lookup_timeouts = 3017;
  r.remote.degraded_lookups = 3018;
  r.remote.stale_replies_suppressed = 3019;
  r.remote.malformed_replies = 3020;
  r.remote.batch_retries = 3021;
  r.remote.batch_abandoned = 3022;

  r.service.requests_served = 4001;
  r.service.kmer_requests = 4002;
  r.service.tile_requests = 4003;
  r.service.probe_calls = 4004;
  r.service.absent_replies = 4005;
  r.service.batch_requests = 4006;
  r.service.batch_ids_served = 4007;
  r.service.malformed_requests = 4008;
  r.service.filter_stragglers = 4009;

  r.footprint_after_construction.hash_kmer_entries = 5001;
  r.footprint_after_construction.hash_tile_entries = 5002;
  r.footprint_after_construction.reads_kmer_entries = 5003;
  r.footprint_after_construction.reads_tile_entries = 5004;
  r.footprint_after_construction.replica_kmer_entries = 5005;
  r.footprint_after_construction.replica_tile_entries = 5006;
  r.footprint_after_construction.filter_bytes = 5007;
  r.footprint_after_construction.bytes = 5008;
  r.footprint_after_correction.hash_kmer_entries = 6001;
  r.footprint_after_correction.hash_tile_entries = 6002;
  r.footprint_after_correction.reads_kmer_entries = 6003;
  r.footprint_after_correction.reads_tile_entries = 6004;
  r.footprint_after_correction.replica_kmer_entries = 6005;
  r.footprint_after_correction.replica_tile_entries = 6006;
  r.footprint_after_correction.filter_bytes = 6007;
  r.footprint_after_correction.bytes = 6008;
  r.construction_peak_bytes = 7001;

  r.construct_seconds = 1.25;
  r.correct_seconds = 2.5;
  r.comm_seconds = 0.375;
  r.stages.push_back({"build_spectrum", 0.5, 7002});
  r.ledger.push_back({"count_table", 7003, 7004});
  r.ledger_total_peak_bytes = 7005;
  r.ledger_rss_peak_bytes = 7006;

  r.traffic.sent_msgs_intra = 8001;
  r.traffic.sent_msgs_inter = 8002;
  r.traffic.sent_bytes_intra = 8003;
  r.traffic.sent_bytes_inter = 8004;
  r.traffic.collective_bytes_out = 8005;
  r.traffic.collective_bytes_in = 8006;
  r.traffic.collective_calls = 8007;
  r.traffic.largest_msg_bytes = 8008;
  r.traffic.dropped_msgs = 8009;
  r.traffic.duplicated_msgs = 8010;

  r.check.msgs_delivered = 9001;
  r.check.msgs_consumed = 9002;
  r.check.fifo_violations = 9003;
  r.check.lint_checked = 9004;
  r.check.waits_registered = 9005;
  r.check.max_pending_at_barrier = 9006;
  r.check.retransmits = 9007;
  r.check.stale_reply_sends = 9008;
  r.check.chaos_dropped = 9009;
  r.check.chaos_duplicated = 9010;
  r.check.chaos_truncated = 9011;
  r.check.leaked_messages = 9012;
  r.check.orphaned_replies = 9013;
  r.check.unanswered_requests = 9014;
  r.check.stale_leaks = 9015;
  return r;
}

DistResult golden_result() {
  DistResult result;
  result.ranks.push_back(golden_rank());
  return result;
}

/// Every key at a non-default value, every job.* override set.
RunConfigFile full_config() {
  RunConfigFile c;
  c.fasta_file = "reads.fa";
  c.qual_file = "reads.qual";
  c.output_file = "out.fa";
  c.params.k = 13;
  c.params.tile_overlap = 5;
  c.params.kmer_threshold = 4;
  c.params.tile_threshold = 5;
  c.params.canonical = true;
  c.params.qual_threshold = 21;
  c.params.restrict_to_low_quality = true;
  c.params.max_positions_per_tile = 5;
  c.params.max_hamming = 1;
  c.params.dominance_ratio = 2.5;
  c.params.max_corrections_per_read = 9;
  c.params.chunk_size = 777;
  c.params.prefetch_capacity = 4096;
  c.params.remote_cache_capacity = 8192;
  c.heuristics.universal = true;
  c.heuristics.read_kmers = true;
  c.heuristics.allgather_kmers = true;
  c.heuristics.allgather_tiles = true;
  c.heuristics.add_remote = true;
  c.heuristics.batch_reads = true;
  c.heuristics.batch_lookups = true;
  c.heuristics.filter_lookups = true;
  c.heuristics.filter_fp_rate = 0.02;
  c.heuristics.load_balance = false;
  c.heuristics.partial_replication_group = 2;
  c.heuristics.bloom_construction = true;
  c.rtm_check = false;
  c.mailbox_fast_path = false;
  c.chaos.seed = 42;
  c.chaos.max_delay_us = 150;
  c.chaos.drop_rate = 0.125;
  c.chaos.duplicate_rate = 0.0625;
  c.chaos.truncate_rate = 0.03125;
  c.chaos.stall_rate = 0.25;
  c.chaos.stall_us = 50;
  c.retry.timeout_ticks = 7;
  c.retry.max_retries = 5;
  c.trace.enabled = true;
  c.trace.path = "trace/run";
  c.trace.ring_capacity = 4096;
  c.trace.metrics = true;
  c.trace.ledger = true;
  c.job.qual_threshold = 22;
  c.job.restrict_to_low_quality = false;
  c.job.max_positions_per_tile = 3;
  c.job.max_hamming = 2;
  c.job.dominance_ratio = 3.5;
  c.job.max_corrections_per_read = 7;
  c.job.chunk_size = 555;
  c.job.prefetch_capacity = 2048;
  c.job.universal = false;
  c.job.batch_lookups = false;
  c.job.filter_lookups = false;
  c.job.add_remote = false;
  c.job.deadline_seconds = 0.25;
  c.job.retry = RetryPolicy{9, 2};
  return c;
}

constexpr const char* kReportCsv = R"golden(rank,reads,reads_changed,substitutions,tiles_untrusted,kmer_lookups,tile_lookups,remote_kmer_lookups,remote_tile_lookups,requests_served,probe_calls,batch_requests,batch_kmer_ids,batch_tile_ids,avg_batch_size,dedup_ratio,prefetch_hits,prefetch_hit_rate,filter_neg_hits,filter_false_positives,filter_bytes,batch_requests_served,construct_seconds,correct_seconds,comm_seconds,spectrum_bytes,construction_peak_bytes,sent_msgs,sent_bytes,largest_msg_bytes,check_lint_msgs,check_fifo_violations,check_leaked_msgs,check_orphan_replies,check_unanswered,check_max_pending_at_barrier,tiles_degraded,lookup_retries,lookup_timeouts,degraded_lookups,stale_replies_suppressed,batch_retries,batch_abandoned,malformed_requests,chaos_dropped_msgs,chaos_duplicated_msgs,check_retransmits,check_stale_leaks,ledger_peak_count_table,ledger_total_peak_bytes,rss_peak_bytes
2,1001,1002,1003,1004,2001,2003,3001,3002,4001,4004,3007,3008,3009,2.0009976720984368,0.00066434147151639422,3012,0.4999170124481328,3014,3015,6007,4006,1.25,2.5,0.375,6008,7001,16003,16007,8008,9004,9003,9012,9013,9014,9006,1006,3016,3017,3018,3019,3021,3022,4008,8009,8010,9007,9015,7004,7005,7006
)golden";
constexpr const char* kReportJson = R"golden({"title":"golden","records":[{"rank":2,"reads":1001,"reads_changed":1002,"substitutions":1003,"tiles_untrusted":1004,"kmer_lookups":2001,"tile_lookups":2003,"remote_kmer_lookups":3001,"remote_tile_lookups":3002,"requests_served":4001,"probe_calls":4004,"batch_requests":3007,"batch_kmer_ids":3008,"batch_tile_ids":3009,"avg_batch_size":2.0009976720984368,"dedup_ratio":0.00066434147151639422,"prefetch_hits":3012,"prefetch_hit_rate":0.4999170124481328,"filter_neg_hits":3014,"filter_false_positives":3015,"filter_bytes":6007,"batch_requests_served":4006,"construct_seconds":1.25,"correct_seconds":2.5,"comm_seconds":0.375,"spectrum_bytes":6008,"construction_peak_bytes":7001,"sent_msgs":16003,"sent_bytes":16007,"largest_msg_bytes":8008,"check_lint_msgs":9004,"check_fifo_violations":9003,"check_leaked_msgs":9012,"check_orphan_replies":9013,"check_unanswered":9014,"check_max_pending_at_barrier":9006,"tiles_degraded":1006,"lookup_retries":3016,"lookup_timeouts":3017,"degraded_lookups":3018,"stale_replies_suppressed":3019,"batch_retries":3021,"batch_abandoned":3022,"malformed_requests":4008,"chaos_dropped_msgs":8009,"chaos_duplicated_msgs":8010,"check_retransmits":9007,"check_stale_leaks":9015,"ledger_peak_count_table":7004,"ledger_total_peak_bytes":7005,"rss_peak_bytes":7006}]})golden";
constexpr const char* kMetricsCsv = R"golden(rank,reads,reads_changed,substitutions,tiles_untrusted,kmer_lookups,tile_lookups,remote_kmer_lookups,remote_tile_lookups,requests_served,probe_calls,batch_requests,batch_kmer_ids,batch_tile_ids,avg_batch_size,dedup_ratio,prefetch_hits,prefetch_hit_rate,filter_neg_hits,filter_false_positives,filter_bytes,batch_requests_served,construct_seconds,correct_seconds,comm_seconds,spectrum_bytes,construction_peak_bytes,sent_msgs,sent_bytes,largest_msg_bytes,check_lint_msgs,check_fifo_violations,check_leaked_msgs,check_orphan_replies,check_unanswered,check_max_pending_at_barrier,tiles_degraded,lookup_retries,lookup_timeouts,degraded_lookups,stale_replies_suppressed,batch_retries,batch_abandoned,malformed_requests,chaos_dropped_msgs,chaos_duplicated_msgs,check_retransmits,check_stale_leaks,lookup_rtt_count,lookup_rtt_p50_us,lookup_rtt_p99_us,lookup_rtt_max_us,batch_prefetch_count,batch_prefetch_p50_us,batch_prefetch_p99_us,batch_prefetch_max_us,service_handle_count,service_handle_p50_us,service_handle_p99_us,service_handle_max_us,mailbox_wait_count,mailbox_wait_p50_us,mailbox_wait_p99_us,mailbox_wait_max_us,ledger_peak_count_table,ledger_total_peak_bytes,rss_peak_bytes
2,1001,1002,1003,1004,2001,2003,3001,3002,4001,4004,3007,3008,3009,2.0009976720984368,0.00066434147151639422,3012,0.4999170124481328,3014,3015,6007,4006,1.25,2.5,0.375,6008,7001,16003,16007,8008,9004,9003,9012,9013,9014,9006,1006,3016,3017,3018,3019,3021,3022,4008,8009,8010,9007,9015,2,3,40,40,1,500,500,500,1,6,6,6,1,70,70,70,7004,7005,7006
)golden";
constexpr const char* kMetricsJson = R"golden({"title":"golden","records":[{"rank":2,"reads":1001,"reads_changed":1002,"substitutions":1003,"tiles_untrusted":1004,"kmer_lookups":2001,"tile_lookups":2003,"remote_kmer_lookups":3001,"remote_tile_lookups":3002,"requests_served":4001,"probe_calls":4004,"batch_requests":3007,"batch_kmer_ids":3008,"batch_tile_ids":3009,"avg_batch_size":2.0009976720984368,"dedup_ratio":0.00066434147151639422,"prefetch_hits":3012,"prefetch_hit_rate":0.4999170124481328,"filter_neg_hits":3014,"filter_false_positives":3015,"filter_bytes":6007,"batch_requests_served":4006,"construct_seconds":1.25,"correct_seconds":2.5,"comm_seconds":0.375,"spectrum_bytes":6008,"construction_peak_bytes":7001,"sent_msgs":16003,"sent_bytes":16007,"largest_msg_bytes":8008,"check_lint_msgs":9004,"check_fifo_violations":9003,"check_leaked_msgs":9012,"check_orphan_replies":9013,"check_unanswered":9014,"check_max_pending_at_barrier":9006,"tiles_degraded":1006,"lookup_retries":3016,"lookup_timeouts":3017,"degraded_lookups":3018,"stale_replies_suppressed":3019,"batch_retries":3021,"batch_abandoned":3022,"malformed_requests":4008,"chaos_dropped_msgs":8009,"chaos_duplicated_msgs":8010,"check_retransmits":9007,"check_stale_leaks":9015,"lookup_rtt_count":2,"lookup_rtt_p50_us":3,"lookup_rtt_p99_us":40,"lookup_rtt_max_us":40,"batch_prefetch_count":1,"batch_prefetch_p50_us":500,"batch_prefetch_p99_us":500,"batch_prefetch_max_us":500,"service_handle_count":1,"service_handle_p50_us":6,"service_handle_p99_us":6,"service_handle_max_us":6,"mailbox_wait_count":1,"mailbox_wait_p50_us":70,"mailbox_wait_p99_us":70,"mailbox_wait_max_us":70,"ledger_peak_count_table":7004,"ledger_total_peak_bytes":7005,"rss_peak_bytes":7006}]})golden";
constexpr const char* kPrometheus = R"golden(# TYPE reptile_batch_abandoned counter
reptile_batch_abandoned{rank="2"} 3022
reptile_batch_abandoned{rank="2",job="3"} 3022
# TYPE reptile_batch_ids counter
reptile_batch_ids{rank="2"} 6017
reptile_batch_ids{rank="2",job="3"} 6017
# TYPE reptile_batch_requests counter
reptile_batch_requests{rank="2"} 3007
reptile_batch_requests{rank="2",job="3"} 3007
# TYPE reptile_batch_retries counter
reptile_batch_retries{rank="2"} 3021
reptile_batch_retries{rank="2",job="3"} 3021
# TYPE reptile_chunks_built counter
reptile_chunks_built{rank="2"} 1008
reptile_chunks_built{rank="2",job="3"} 1008
# TYPE reptile_degraded_lookups counter
reptile_degraded_lookups{rank="2"} 3018
reptile_degraded_lookups{rank="2",job="3"} 3018
# TYPE reptile_filter_false_positives counter
reptile_filter_false_positives{rank="2"} 3015
reptile_filter_false_positives{rank="2",job="3"} 3015
# TYPE reptile_filter_neg_hits counter
reptile_filter_neg_hits{rank="2"} 3014
reptile_filter_neg_hits{rank="2",job="3"} 3014
# TYPE reptile_group_lookups counter
reptile_group_lookups{rank="2"} 3006
reptile_group_lookups{rank="2",job="3"} 3006
# TYPE reptile_lookup_kmer_miss counter
reptile_lookup_kmer_miss{rank="2"} 2002
reptile_lookup_kmer_miss{rank="2",job="3"} 2002
# TYPE reptile_lookup_kmer_total counter
reptile_lookup_kmer_total{rank="2"} 2001
reptile_lookup_kmer_total{rank="2",job="3"} 2001
# TYPE reptile_lookup_retries counter
reptile_lookup_retries{rank="2"} 3016
reptile_lookup_retries{rank="2",job="3"} 3016
# TYPE reptile_lookup_tile_miss counter
reptile_lookup_tile_miss{rank="2"} 2004
reptile_lookup_tile_miss{rank="2",job="3"} 2004
# TYPE reptile_lookup_tile_total counter
reptile_lookup_tile_total{rank="2"} 2003
reptile_lookup_tile_total{rank="2",job="3"} 2003
# TYPE reptile_lookup_timeouts counter
reptile_lookup_timeouts{rank="2"} 3017
reptile_lookup_timeouts{rank="2",job="3"} 3017
# TYPE reptile_prefetch_hits counter
reptile_prefetch_hits{rank="2"} 3012
reptile_prefetch_hits{rank="2",job="3"} 3012
# TYPE reptile_prefetch_misses counter
reptile_prefetch_misses{rank="2"} 3013
reptile_prefetch_misses{rank="2",job="3"} 3013
# TYPE reptile_reads_changed counter
reptile_reads_changed{rank="2"} 1002
reptile_reads_changed{rank="2",job="3"} 1002
# TYPE reptile_reads_deadline_skipped counter
reptile_reads_deadline_skipped{rank="2"} 1007
reptile_reads_deadline_skipped{rank="2",job="3"} 1007
# TYPE reptile_reads_processed counter
reptile_reads_processed{rank="2"} 1001
reptile_reads_processed{rank="2",job="3"} 1001
# TYPE reptile_reads_table_hits counter
reptile_reads_table_hits{rank="2"} 3005
reptile_reads_table_hits{rank="2",job="3"} 3005
# TYPE reptile_remote_kmer_absent counter
reptile_remote_kmer_absent{rank="2"} 3003
reptile_remote_kmer_absent{rank="2",job="3"} 3003
# TYPE reptile_remote_kmer_lookups counter
reptile_remote_kmer_lookups{rank="2"} 3001
reptile_remote_kmer_lookups{rank="2",job="3"} 3001
# TYPE reptile_remote_tile_absent counter
reptile_remote_tile_absent{rank="2"} 3004
reptile_remote_tile_absent{rank="2",job="3"} 3004
# TYPE reptile_remote_tile_lookups counter
reptile_remote_tile_lookups{rank="2"} 3002
reptile_remote_tile_lookups{rank="2",job="3"} 3002
# TYPE reptile_service_absent_replies counter
reptile_service_absent_replies{rank="2"} 4005
reptile_service_absent_replies{rank="2",job="3"} 4005
# TYPE reptile_service_batch_ids counter
reptile_service_batch_ids{rank="2"} 4007
reptile_service_batch_ids{rank="2",job="3"} 4007
# TYPE reptile_service_batch_requests counter
reptile_service_batch_requests{rank="2"} 4006
reptile_service_batch_requests{rank="2",job="3"} 4006
# TYPE reptile_service_filter_stragglers counter
reptile_service_filter_stragglers{rank="2"} 4009
reptile_service_filter_stragglers{rank="2",job="3"} 4009
# TYPE reptile_service_kmer_requests counter
reptile_service_kmer_requests{rank="2"} 4002
reptile_service_kmer_requests{rank="2",job="3"} 4002
# TYPE reptile_service_malformed_requests counter
reptile_service_malformed_requests{rank="2"} 4008
reptile_service_malformed_requests{rank="2",job="3"} 4008
# TYPE reptile_service_requests counter
reptile_service_requests{rank="2"} 4001
reptile_service_requests{rank="2",job="3"} 4001
# TYPE reptile_service_tile_requests counter
reptile_service_tile_requests{rank="2"} 4003
reptile_service_tile_requests{rank="2",job="3"} 4003
# TYPE reptile_stale_replies_suppressed counter
reptile_stale_replies_suppressed{rank="2"} 3019
reptile_stale_replies_suppressed{rank="2",job="3"} 3019
# TYPE reptile_substitutions counter
reptile_substitutions{rank="2"} 1003
reptile_substitutions{rank="2",job="3"} 1003
# TYPE reptile_tiles_degraded counter
reptile_tiles_degraded{rank="2"} 1006
reptile_tiles_degraded{rank="2",job="3"} 1006
# TYPE reptile_tiles_fixed counter
reptile_tiles_fixed{rank="2"} 1005
reptile_tiles_fixed{rank="2",job="3"} 1005
# TYPE reptile_tiles_untrusted counter
reptile_tiles_untrusted{rank="2"} 1004
reptile_tiles_untrusted{rank="2",job="3"} 1004
# TYPE reptile_comm_seconds gauge
reptile_comm_seconds{rank="2"} 0.375
reptile_comm_seconds{rank="2",job="3"} 0.375
# TYPE reptile_construct_seconds gauge
reptile_construct_seconds{rank="2"} 1.25
reptile_construct_seconds{rank="2",job="3"} 1.25
# TYPE reptile_construction_peak_bytes gauge
reptile_construction_peak_bytes{rank="2"} 7001
reptile_construction_peak_bytes{rank="2",job="3"} 7001
# TYPE reptile_correct_seconds gauge
reptile_correct_seconds{rank="2"} 2.5
reptile_correct_seconds{rank="2",job="3"} 2.5
# TYPE reptile_filter_bytes gauge
reptile_filter_bytes{rank="2"} 6007
reptile_filter_bytes{rank="2",job="3"} 6007
# TYPE reptile_spectrum_bytes gauge
reptile_spectrum_bytes{rank="2"} 5008
reptile_spectrum_bytes{rank="2",job="3"} 5008
)golden";
constexpr const char* kDefaultConfig = R"golden(# reptile-dist run configuration
kmer_length 12
tile_overlap 4
kmer_threshold 3
tile_threshold 3
canonical 0
qual_threshold 20
restrict_to_low_quality 0
max_positions_per_tile 4
max_hamming 2
dominance_ratio 2
max_corrections_per_read 8
chunk_size 1024
prefetch_capacity 1048576
remote_cache_capacity 1048576
universal 0
read_kmers 0
allgather_kmers 0
allgather_tiles 0
add_remote 0
batch_reads 0
batch_lookups 0
filter_lookups 0
filter_fp_rate 0.01
load_balance 1
partial_replication_group 1
bloom_construction 0
rtm_check 1
mailbox_fast_path 1
chaos_seed 0
chaos_max_delay_us 300
chaos_drop_rate 0
chaos_duplicate_rate 0
chaos_truncate_rate 0
chaos_stall_rate 0
chaos_stall_us 0
lookup_timeout_ticks 0
lookup_max_retries 3
trace_enabled 0
trace_ring_capacity 262144
metrics_enabled 0
ledger_enabled 0
)golden";
constexpr const char* kFullConfig = R"golden(# reptile-dist run configuration
fasta_file reads.fa
qual_file reads.qual
output_file out.fa
kmer_length 13
tile_overlap 5
kmer_threshold 4
tile_threshold 5
canonical 1
qual_threshold 21
restrict_to_low_quality 1
max_positions_per_tile 5
max_hamming 1
dominance_ratio 2.5
max_corrections_per_read 9
chunk_size 777
prefetch_capacity 4096
remote_cache_capacity 8192
universal 1
read_kmers 1
allgather_kmers 1
allgather_tiles 1
add_remote 1
batch_reads 1
batch_lookups 1
filter_lookups 1
filter_fp_rate 0.02
load_balance 0
partial_replication_group 2
bloom_construction 1
rtm_check 0
mailbox_fast_path 0
chaos_seed 42
chaos_max_delay_us 150
chaos_drop_rate 0.125
chaos_duplicate_rate 0.0625
chaos_truncate_rate 0.03125
chaos_stall_rate 0.25
chaos_stall_us 50
lookup_timeout_ticks 7
lookup_max_retries 5
trace_enabled 1
trace_path trace/run
trace_ring_capacity 4096
metrics_enabled 1
ledger_enabled 1
job.qual_threshold 22
job.restrict_to_low_quality 0
job.max_positions_per_tile 3
job.max_hamming 2
job.dominance_ratio 3.5
job.max_corrections_per_read 7
job.chunk_size 555
job.prefetch_capacity 2048
job.universal 0
job.batch_lookups 0
job.filter_lookups 0
job.add_remote 0
job.deadline_ms 250
job.lookup_timeout_ticks 9
job.lookup_max_retries 2
)golden";

TEST(CounterSchema, ReportIsByteIdenticalWithMetricsOff) {
  obs::Registry::global().configure(false);
  const stats::RunReport report = to_report(golden_result(), "golden");
  EXPECT_EQ(report.to_csv(), kReportCsv);
  EXPECT_EQ(report.to_json(), kReportJson);
}

TEST(CounterSchema, ReportIsByteIdenticalWithMetricsOn) {
  obs::Registry& registry = obs::Registry::global();
  registry.configure(true);
  registry.histogram("reptile_lookup_rtt_us", 2)->record(3);
  registry.histogram("reptile_lookup_rtt_us", 2)->record(40);
  registry.histogram("reptile_batch_prefetch_us", 2)->record(500);
  registry.histogram("reptile_service_handle_us", 2)->record(6);
  registry.histogram("reptile_mailbox_wait_us", 2)->record(70);
  const stats::RunReport report = to_report(golden_result(), "golden");
  registry.configure(false);
  EXPECT_EQ(report.to_csv(), kMetricsCsv);
  EXPECT_EQ(report.to_json(), kMetricsJson);
}

TEST(CounterSchema, PrometheusExpositionIsByteIdentical) {
  obs::Registry& registry = obs::Registry::global();
  registry.configure(true);
  const RankReport r = golden_rank();
  publish_rank(registry, r, -1, 0);
  publish_rank(registry, r, 3, 0);
  const std::string text = registry.prometheus_text();
  registry.configure(false);
  EXPECT_EQ(text, kPrometheus);
}

TEST(CounterSchema, PublishingZeroCountersRegistersOnlyGauges) {
  obs::Registry& registry = obs::Registry::global();
  registry.configure(true);
  RankReport r;
  r.rank = 1;
  publish_rank(registry, r, -1, 0);
  const std::string text = registry.prometheus_text();
  registry.configure(false);
  EXPECT_EQ(text.find(" counter\n"), std::string::npos) << text;
  EXPECT_NE(text.find("reptile_correct_seconds{rank=\"1\"} 0\n"),
            std::string::npos)
      << text;
}

TEST(CounterSchema, DefaultConfigTextIsByteIdentical) {
  EXPECT_EQ(to_config_text(RunConfigFile{}), kDefaultConfig);
}

TEST(CounterSchema, FullConfigTextIsByteIdentical) {
  EXPECT_EQ(to_config_text(full_config()), kFullConfig);
}

TEST(CounterSchema, FullConfigTextParsesBackToItself) {
  EXPECT_EQ(to_config_text(parse_config_text(kFullConfig)), kFullConfig);
}

/// The accepted key set is exactly the keys of the full config text:
/// 60 keys, and `job.<key>` exists only for the correction-phase keys.
TEST(CounterSchema, AcceptedKeySetIsPinned) {
  std::set<std::string> keys;
  std::istringstream in(kFullConfig);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    keys.insert(line.substr(0, line.find(' ')));
  }
  EXPECT_EQ(keys.size(), 60u);
  const auto accepted = [](const std::string& key) {
    try {
      parse_config_text(key + " 1\n");
    } catch (const std::runtime_error& e) {
      return std::string(e.what()).find("unknown key") == std::string::npos;
    } catch (const std::exception&) {
      return true;  // known key, rejected on validation
    }
    return true;
  };
  for (const std::string& key : keys) {
    EXPECT_TRUE(accepted(key)) << key;
    if (key.rfind("job.", 0) != 0) {
      EXPECT_EQ(accepted("job." + key), keys.count("job." + key) == 1) << key;
    }
  }
}

}  // namespace
}  // namespace reptile::parallel
