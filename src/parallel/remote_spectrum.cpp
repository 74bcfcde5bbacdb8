#include "parallel/remote_spectrum.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <optional>

#include "hash/hashing.hpp"
#include "obs/trace.hpp"
#include "parallel/wire.hpp"

namespace reptile::parallel {

namespace {

/// The remote counters kept per kind, indexed by LookupKind.
struct KindCounters {
  std::uint64_t RemoteLookupStats::*remote_lookups;
  std::uint64_t RemoteLookupStats::*remote_absent;
  std::uint64_t RemoteLookupStats::*batch_ids;
  std::uint64_t RemoteLookupStats::*batch_ids_raw;
};
using S = RemoteLookupStats;
constexpr std::array<KindCounters, 2> kKindCounters = {{
    {&S::remote_kmer_lookups, &S::remote_kmer_absent, &S::batch_kmer_ids,
     &S::batch_kmer_ids_raw},
    {&S::remote_tile_lookups, &S::remote_tile_absent, &S::batch_tile_ids,
     &S::batch_tile_ids_raw},
}};

const KindCounters& counters(LookupKind kind) noexcept {
  return kKindCounters[static_cast<std::size_t>(kind)];
}

}  // namespace

RemoteSpectrumView::RemoteSpectrumView(rtm::Comm& comm, DistSpectrum& spectrum,
                                       int worker_slot,
                                       bool cache_remote_locally,
                                       RetryPolicy retry,
                                       const Heuristics* heur_override)
    : comm_(&comm),
      spectrum_(&spectrum),
      heur_(heur_override == nullptr ? spectrum.heuristics() : *heur_override),
      worker_slot_(worker_slot),
      cache_remote_locally_(cache_remote_locally),
      retry_(retry) {
  retry_.validate();
  // Prefetch caches hold verbatim remote replies, not spectrum shards —
  // bill them to the remote_cache ledger account.
  for (KindState& k : kinds_) {
    k.prefetch.bind_ledger_account(obs::LedgerAccount::kRemoteCache);
  }
}

void RemoteSpectrumView::cache_local(std::uint64_t id, LookupKind kind,
                                     std::uint32_t count) {
  if (cached_entries() >= spectrum_->params().prefetch_capacity) return;
  at(kind).prefetch.increment(id, count);
}

obs::Histogram* RemoteSpectrumView::latency_histogram(const char* name,
                                                      obs::Histogram*& slot,
                                                      bool& resolved) {
  if (!resolved) {
    resolved = true;
    slot = obs::Registry::global().histogram(name, comm_->rank());
  }
  return slot;
}

bool RemoteSpectrumView::needs_remote(std::uint64_t id, LookupKind kind,
                                      int& owner) const {
  if (allgathered(heur_, kind)) return false;
  owner = hash::owner_of(id, comm_->size());
  if (owner == comm_->rank()) return false;
  if (spectrum_->owner_in_my_group(owner)) return false;
  return !(heur_.read_kmers && spectrum_->reads(kind, id));
}

void RemoteSpectrumView::prefetch_chunk(const seq::ReadBatch& batch) {
  if (!heur_.batch_lookups) return;
  for (KindState& k : kinds_) k.prefetch.clear();
  deferring_ = false;
  const int np = comm_->size();
  if (np <= 1 || heur_.fully_replicated()) return;
  for (KindState& k : kinds_) k.queue.resize(static_cast<std::size_t>(np));

  // Round 0 asks for the gate tiles only: a read's own k-mers are needed
  // just as the constituents of candidate tiles, and later rounds ask for
  // exactly those.
  tile_scratch_.clear();
  for (const seq::Read& r : batch) {
    spectrum_->extractor().tile_codec().extract(r.bases, tile_scratch_);
  }
  for (seq::tile_id_t id : tile_scratch_) {
    id = spectrum_->extractor().canon_tile(id);
    int owner = 0;
    if (!needs_remote(id, LookupKind::kTile, owner)) continue;
    // Filter-definite absences never reach the wire; lookup() answers
    // them (and counts filter_neg_hits) from the same immutable filter.
    // Skipped before the raw counter so dedup_ratio keeps measuring
    // dedup alone, unchanged by filtering.
    if (heur_.filter_lookups &&
        spectrum_->filter(LookupKind::kTile, id, owner) ==
            DistSpectrum::FilterAnswer::kDefinitelyAbsent) {
      continue;
    }
    at(LookupKind::kTile).queue[static_cast<std::size_t>(owner)].push_back(id);
  }
  round_ = 0;
  run_round();
  deferring_ = true;
}

void RemoteSpectrumView::fetch_round() {
  if (deferring_ && run_round() == 0) deferring_ = false;
}

std::size_t RemoteSpectrumView::run_round() {
  const int np = comm_->size();
  const int round = round_++;
  // Dedupe each queue and cap the round at the cache's remaining room;
  // what does not fit is deferred again, and a round that fits nothing
  // ends deferral.
  const std::size_t cap = spectrum_->params().prefetch_capacity;
  std::size_t room = cap - std::min(cap, cached_entries());
  std::size_t total = 0;
  for (LookupKind kind : kLookupKinds) {
    for (std::vector<std::uint64_t>& ids : at(kind).queue) {
      remote_.*counters(kind).batch_ids_raw += ids.size();
      std::sort(ids.begin(), ids.end());
      ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
      if (ids.size() > room) ids.resize(room);
      room -= ids.size();
      total += ids.size();
    }
  }
  const std::size_t cached_before = cached_entries();
  if (total == 0) return 0;

  // One vectored request per owner per kind, all sent before any reply is
  // awaited so the owners' communication threads overlap their work.
  struct Pending {
    int owner;
    LookupKind kind;
    const std::vector<std::uint64_t>* ids;
    std::uint64_t seq;
  };
  std::vector<Pending> pending;
  obs::SpanScope span("lookup", "batch_prefetch");
  span.arg("round", static_cast<std::uint64_t>(round));
  const std::int64_t prefetch_start = obs::Tracer::instance().now_ns();
  const auto send_batch = [&](const Pending& p) {
    // Zero-copy request: encode the header + ID vector straight into an
    // arena payload and transfer ownership — no scratch vector, no send
    // copy.
    rtm::Payload payload =
        comm_->make_payload(batch_request_bytes(p.ids->size()));
    encode_batch_request_into(payload.data(), p.kind,
                              batch_reply_tag(p.kind, worker_slot_),
                              std::span<const std::uint64_t>(p.ids->data(),
                                                             p.ids->size()),
                              p.seq);
    comm_->send_payload(p.owner, kTagBatchRequest, std::move(payload));
    // Links this request to its handling on p.owner's comm thread; the
    // service derives the same id from the wire fields alone.
    obs::Tracer::instance().flow_start(
        "flow", "batch",
        obs::flow_id(comm_->rank(), batch_reply_tag(p.kind, worker_slot_),
                     p.seq));
  };
  for (LookupKind kind : kLookupKinds) {
    for (int owner = 0; owner < np; ++owner) {
      const auto& ids = at(kind).queue[static_cast<std::size_t>(owner)];
      if (ids.empty()) continue;
      pending.push_back({owner, kind, &ids, next_seq_++});
      send_batch(pending.back());
      ++remote_.batch_requests;
      remote_.*counters(kind).batch_ids += ids.size();
    }
  }
  span.arg("ids", total);  // spans carry two args: round and ids

  rtm::check::RunChecker* check = comm_->world().checker();
  comm_wait_.start();
  for (const Pending& p : pending) {
    const int tag = batch_reply_tag(p.kind, worker_slot_);
    // Validates and consumes one candidate reply; false = not ours (stale
    // retransmission leftovers, malformed bytes), keep waiting.
    const auto consume = [&](const rtm::Message& msg) {
      BatchLookupReply reply;
      try {
        reply = decode_batch_reply(msg.payload);
      } catch (const std::runtime_error&) {
        ++remote_.malformed_replies;
        return false;
      }
      if (reply.seq != p.seq) {
        ++remote_.stale_replies_suppressed;
        return false;
      }
      if (reply.counts.size() != p.ids->size()) {
        throw std::runtime_error(
            "batched lookup reply length does not match the request");
      }
      for (std::size_t i = 0; i < reply.counts.size(); ++i) {
        const std::uint32_t c = reply.counts[i] < 0
                                    ? 0
                                    : static_cast<std::uint32_t>(
                                          reply.counts[i]);
        if (heur_.filter_lookups && reply.counts[i] < 0) {
          // Every batched ID the filter let through that the owner reports
          // absent was a wasted wire slot: a filter false positive. (IDs
          // with no usable filter don't count — there was nothing to ask.)
          if (spectrum_->filter(p.kind, (*p.ids)[i], p.owner) ==
              DistSpectrum::FilterAnswer::kMaybePresent) {
            ++remote_.filter_false_positives;
          }
        }
        at(p.kind).prefetch.increment((*p.ids)[i], c);
      }
      return true;
    };

    if (!retry_.enabled()) {
      while (!consume(comm_->recv(p.owner, tag))) {
      }
      continue;
    }
    bool got = false;
    for (int attempt = 0; !got; ++attempt) {
      if (attempt > 0) {
        ++remote_.batch_retries;
        send_batch(p);
      }
      const auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::microseconds(retry_.attempt_timeout_us(attempt));
      while (!got) {
        const auto now = std::chrono::steady_clock::now();
        if (now >= deadline) break;
        const auto msg = comm_->recv_match_for(
            [&](const rtm::Message& m) {
              return m.source == p.owner && m.tag == tag;
            },
            deadline - now);
        if (!msg) {
          if (check != nullptr && check->aborted()) {
            comm_wait_.stop();
            check->throw_abort();
          }
          continue;  // either the deadline passed or a spurious wake
        }
        got = consume(*msg);
      }
      if (got) break;
      ++remote_.lookup_timeouts;
      if (attempt >= retry_.max_retries) {
        // Abandon this batch: its IDs miss the cache and are deferred
        // again; once a round adds nothing they take the (individually
        // retried) scalar path.
        ++remote_.batch_abandoned;
        break;
      }
    }
  }
  comm_wait_.stop();
  if (obs::Histogram* h = latency_histogram(obs::kBatchPrefetchHistogram,
                                            batch_hist_,
                                            batch_hist_resolved_)) {
    h->record(static_cast<std::uint64_t>(
        std::max<std::int64_t>(
            obs::Tracer::instance().now_ns() - prefetch_start, 0) /
        1000));
  }
  for (KindState& k : kinds_) {
    for (std::vector<std::uint64_t>& ids : k.queue) ids.clear();
  }
  return cached_entries() - cached_before;
}

std::uint32_t RemoteSpectrumView::remote_lookup(int owner, std::uint64_t id,
                                                LookupKind kind,
                                                bool filter_said_maybe) {
  const int reply_to = reply_tag(kind, worker_slot_);
  const std::uint64_t seq = next_seq_++;
  // One scalar round trip = one span; retransmissions stay inside it.
  obs::SpanScope span("lookup", "lookup_rtt");
  span.arg("owner", static_cast<std::uint64_t>(owner));
  const std::int64_t rtt_start = obs::Tracer::instance().now_ns();
  const auto send_request = [&] {
    obs::Tracer::instance().flow_start("flow", "lookup",
                                       obs::flow_id(comm_->rank(), reply_to,
                                                    seq));
    if (heur_.universal) {
      UniversalLookupRequest req;
      req.kind = kind;
      req.id = id;
      req.reply_to = reply_to;
      req.seq = seq;
      comm_->send_value(owner, kTagUniversalRequest, req);
    } else {
      LookupRequest req;
      req.id = id;
      req.seq = seq;
      req.reply_to = reply_to;
      comm_->send_value(owner, request_tag(kind), req);
    }
  };
  // Validates one candidate reply; nullopt = not ours (duplicate or stale
  // retransmission leftovers, truncated bytes), keep waiting. Runs even
  // with retries disabled: a chaos-duplicated reply must never be read as
  // the answer to the NEXT lookup on this tag.
  const auto consume =
      [&](const rtm::Message& msg) -> std::optional<LookupReply> {
    if (msg.payload.size() != sizeof(LookupReply)) {
      ++remote_.malformed_replies;
      return std::nullopt;
    }
    const auto r = msg.as_value<LookupReply>();
    if (r.seq != seq) {
      ++remote_.stale_replies_suppressed;
      return std::nullopt;
    }
    return r;
  };

  comm_wait_.start();
  std::optional<LookupReply> reply;
  if (!retry_.enabled()) {
    send_request();
    while (!reply) reply = consume(comm_->recv(owner, reply_to));
  } else {
    rtm::check::RunChecker* check = comm_->world().checker();
    for (int attempt = 0; !reply; ++attempt) {
      if (attempt > 0) ++remote_.lookup_retries;
      send_request();  // idempotent: every attempt carries the same seq
      const auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::microseconds(retry_.attempt_timeout_us(attempt));
      while (!reply) {
        const auto now = std::chrono::steady_clock::now();
        if (now >= deadline) break;
        const auto msg = comm_->recv_match_for(
            [&](const rtm::Message& m) {
              return m.source == owner && m.tag == reply_to;
            },
            deadline - now);
        if (!msg) {
          if (check != nullptr && check->aborted()) {
            comm_wait_.stop();
            check->throw_abort();
          }
          continue;  // either the deadline passed or a spurious wake
        }
        reply = consume(*msg);
      }
      if (reply) break;
      ++remote_.lookup_timeouts;
      if (attempt >= retry_.max_retries) {
        // Graceful degradation: give up on this ID and report a
        // conservative 0 WITHOUT caching it anywhere. The bump of
        // degraded_lookups() tells the corrector the evidence is
        // incomplete, so it skips the position instead of acting on it.
        comm_wait_.stop();
        ++(remote_.*counters(kind).remote_lookups);
        ++remote_.degraded_lookups;
        return 0;
      }
    }
  }
  comm_wait_.stop();
  if (obs::Histogram* h = latency_histogram(obs::kLookupRttHistogram,
                                            rtt_hist_, rtt_hist_resolved_)) {
    h->record(static_cast<std::uint64_t>(
        std::max<std::int64_t>(
            obs::Tracer::instance().now_ns() - rtt_start, 0) /
        1000));
  }

  ++(remote_.*counters(kind).remote_lookups);
  if (reply->count < 0) ++(remote_.*counters(kind).remote_absent);
  if (filter_said_maybe && reply->count < 0) {
    // The peer filter let this ID through and the owner reports it absent:
    // a false positive — the round trip the filter exists to avoid.
    ++remote_.filter_false_positives;
  }
  const std::uint32_t count =
      reply->count < 0 ? 0 : static_cast<std::uint32_t>(reply->count);
  if (heur_.add_remote) {
    // Cache the reply — absences included — so a future lookup of the same
    // ID stays local ("this mode will be useful if the k-mers or tiles
    // needed from remote ranks will be needed in the future"). With
    // concurrent workers the shared reads tables are off limits, so the
    // reply lands in this worker's chunk-local cache instead.
    if (cache_remote_locally_) {
      cache_local(id, kind, count);
    } else {
      spectrum_->cache_remote(kind, id, count);
    }
  }
  return count;
}

std::uint32_t RemoteSpectrumView::lookup(std::uint64_t id, LookupKind kind) {
  if (allgathered(heur_, kind)) {
    return spectrum_->replica(kind, id).value_or(0);
  }

  const int owner = hash::owner_of(id, comm_->size());
  if (owner == comm_->rank()) {
    // We are the owner: a miss in our shard is a definitive global absence.
    return spectrum_->owned(kind, id).value_or(0);
  }

  if (spectrum_->owner_in_my_group(owner)) {
    // Partial replication: we hold the owner's shard; a miss is definitive.
    ++remote_.group_lookups;
    return spectrum_->group(kind, id).value_or(0);
  }

  if (heur_.read_kmers) {
    const auto c = spectrum_->reads(kind, id);
    if (c) {
      ++remote_.reads_table_hits;
      return *c;
    }
  }

  bool filter_said_maybe = false;
  if (heur_.filter_lookups) {
    // The owner's exchanged membership filter. "Definitely absent" is
    // exact: the owner's pruned shard cannot contain the ID, so the wire
    // reply would be -1 and the count 0 — answer locally. Checked before
    // the prefetch cache so the filter/prefetch counters stay identical
    // between scalar and batched runs (prefetch_chunk excluded
    // filter-definite IDs with the same immutable filter).
    const auto fa = spectrum_->filter(kind, id, owner);
    if (fa == DistSpectrum::FilterAnswer::kDefinitelyAbsent) {
      ++remote_.filter_neg_hits;
      return 0;
    }
    filter_said_maybe = fa == DistSpectrum::FilterAnswer::kMaybePresent;
  }

  if (heur_.batch_lookups || cache_remote_locally_) {
    // Chunk-local prefetch cache: counts are verbatim remote replies, so a
    // hit is exactly what the scalar round trip would have returned.
    const auto c = at(kind).prefetch.find(id);
    if (c) {
      ++remote_.prefetch_hits;
      return *c;
    }
    if (deferring_) {
      // The chunk's rounds are running: fetch it with the next one.
      at(kind).queue[static_cast<std::size_t>(owner)].push_back(id);
      ++deferred_;
      return 0;
    }
    ++remote_.prefetch_misses;
  }

  return remote_lookup(owner, id, kind, filter_said_maybe);
}

std::uint64_t RemoteSpectrumView::begin_tile() {
  if (deferring_) {
    stats_mark_ = stats_;
    remote_mark_ = remote_;
  }
  return deferred_;
}

void RemoteSpectrumView::suspend_tile() {
  // The suspended tile's lookups are made again by the pass that decides
  // it; only that pass counts them.
  stats_ = stats_mark_;
  remote_ = remote_mark_;
}

std::uint32_t RemoteSpectrumView::kmer_count(seq::kmer_id_t id) {
  ++stats_.kmer_lookups;
  const std::uint32_t c =
      lookup(spectrum_->extractor().canon_kmer(id), LookupKind::kKmer);
  if (c == 0) ++stats_.kmer_misses;
  return c;
}

std::uint32_t RemoteSpectrumView::tile_count(seq::tile_id_t id) {
  ++stats_.tile_lookups;
  const std::uint32_t c =
      lookup(spectrum_->extractor().canon_tile(id), LookupKind::kTile);
  if (c == 0) ++stats_.tile_misses;
  return c;
}

}  // namespace reptile::parallel
