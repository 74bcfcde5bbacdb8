#include "parallel/remote_spectrum.hpp"

#include <algorithm>
#include <chrono>
#include <optional>

#include "hash/hashing.hpp"
#include "obs/trace.hpp"
#include "parallel/wire.hpp"

namespace reptile::parallel {

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
  prefetch_kmer_.bind_ledger_account(obs::LedgerAccount::kRemoteCache);
  prefetch_tile_.bind_ledger_account(obs::LedgerAccount::kRemoteCache);
}

void RemoteSpectrumView::cache_local(std::uint64_t id, LookupKind kind,
                                     std::uint32_t count) {
  const std::size_t cap = spectrum_->params().prefetch_capacity;
  if (prefetch_kmer_.size() + prefetch_tile_.size() >= cap) return;
  if (kind == LookupKind::kKmer) {
    prefetch_kmer_.increment(id, count);
  } else {
    prefetch_tile_.increment(id, count);
  }
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
  const bool is_kmer = kind == LookupKind::kKmer;
  if (is_kmer ? heur_.allgather_kmers : heur_.allgather_tiles) return false;
  owner = hash::owner_of(id, comm_->size());
  if (owner == comm_->rank()) return false;
  if (spectrum_->owner_in_my_group(owner)) return false;
  if (heur_.read_kmers) {
    const auto c = is_kmer ? spectrum_->reads_kmer(id)
                           : spectrum_->reads_tile(id);
    if (c) return false;
  }
  return true;
}

void RemoteSpectrumView::prefetch_chunk(const seq::ReadBatch& batch) {
  if (!heur_.batch_lookups) return;
  prefetch_kmer_.clear();
  prefetch_tile_.clear();
  deferring_ = false;
  const int np = comm_->size();
  if (np <= 1 || heur_.fully_replicated()) return;
  kmer_queue_.resize(static_cast<std::size_t>(np));
  tile_queue_.resize(static_cast<std::size_t>(np));

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
        spectrum_->filter_tile(id, owner) ==
            DistSpectrum::FilterAnswer::kDefinitelyAbsent) {
      continue;
    }
    tile_queue_[static_cast<std::size_t>(owner)].push_back(id);
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
  for (auto* queues : {&kmer_queue_, &tile_queue_}) {
    for (std::vector<std::uint64_t>& ids : *queues) {
      (queues == &kmer_queue_ ? remote_.batch_kmer_ids_raw
                              : remote_.batch_tile_ids_raw) += ids.size();
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
  auto send_buckets = [&](const std::vector<std::vector<std::uint64_t>>& bks,
                          LookupKind kind) {
    for (int owner = 0; owner < np; ++owner) {
      const auto& ids = bks[static_cast<std::size_t>(owner)];
      if (ids.empty()) continue;
      pending.push_back({owner, kind, &ids, next_seq_++});
      send_batch(pending.back());
      ++remote_.batch_requests;
      if (kind == LookupKind::kKmer) {
        remote_.batch_kmer_ids += ids.size();
      } else {
        remote_.batch_tile_ids += ids.size();
      }
    }
  };
  send_buckets(kmer_queue_, LookupKind::kKmer);
  send_buckets(tile_queue_, LookupKind::kTile);
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
          const auto fa = p.kind == LookupKind::kKmer
                              ? spectrum_->filter_kmer((*p.ids)[i], p.owner)
                              : spectrum_->filter_tile((*p.ids)[i], p.owner);
          if (fa == DistSpectrum::FilterAnswer::kMaybePresent) {
            ++remote_.filter_false_positives;
          }
        }
        if (p.kind == LookupKind::kKmer) {
          prefetch_kmer_.increment((*p.ids)[i], c);
        } else {
          prefetch_tile_.increment((*p.ids)[i], c);
        }
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
  for (auto* queues : {&kmer_queue_, &tile_queue_}) {
    for (std::vector<std::uint64_t>& ids : *queues) ids.clear();
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
      comm_->send_value(
          owner,
          kind == LookupKind::kKmer ? kTagKmerRequest : kTagTileRequest, req);
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
        if (kind == LookupKind::kKmer) {
          ++remote_.remote_kmer_lookups;
        } else {
          ++remote_.remote_tile_lookups;
        }
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

  if (kind == LookupKind::kKmer) {
    ++remote_.remote_kmer_lookups;
    if (reply->count < 0) ++remote_.remote_kmer_absent;
  } else {
    ++remote_.remote_tile_lookups;
    if (reply->count < 0) ++remote_.remote_tile_absent;
  }
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
    } else if (kind == LookupKind::kKmer) {
      spectrum_->cache_remote_kmer(id, count);
    } else {
      spectrum_->cache_remote_tile(id, count);
    }
  }
  return count;
}

std::uint32_t RemoteSpectrumView::lookup(std::uint64_t id, LookupKind kind) {
  const bool is_kmer = kind == LookupKind::kKmer;

  if (is_kmer ? heur_.allgather_kmers : heur_.allgather_tiles) {
    const auto c = is_kmer ? spectrum_->replica_kmer(id)
                           : spectrum_->replica_tile(id);
    return c.value_or(0);
  }

  const int owner = hash::owner_of(id, comm_->size());
  if (owner == comm_->rank()) {
    // We are the owner: a miss in our shard is a definitive global absence.
    const auto c = is_kmer ? spectrum_->owned_kmer(id)
                           : spectrum_->owned_tile(id);
    return c.value_or(0);
  }

  if (spectrum_->owner_in_my_group(owner)) {
    // Partial replication: we hold the owner's shard; a miss is definitive.
    ++remote_.group_lookups;
    const auto c = is_kmer ? spectrum_->group_kmer(id)
                           : spectrum_->group_tile(id);
    return c.value_or(0);
  }

  if (heur_.read_kmers) {
    const auto c = is_kmer ? spectrum_->reads_kmer(id)
                           : spectrum_->reads_tile(id);
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
    const auto fa = is_kmer ? spectrum_->filter_kmer(id, owner)
                            : spectrum_->filter_tile(id, owner);
    if (fa == DistSpectrum::FilterAnswer::kDefinitelyAbsent) {
      ++remote_.filter_neg_hits;
      return 0;
    }
    filter_said_maybe = fa == DistSpectrum::FilterAnswer::kMaybePresent;
  }

  if (heur_.batch_lookups || cache_remote_locally_) {
    // Chunk-local prefetch cache: counts are verbatim remote replies, so a
    // hit is exactly what the scalar round trip would have returned.
    const auto c = is_kmer ? prefetch_kmer_.find(id) : prefetch_tile_.find(id);
    if (c) {
      ++remote_.prefetch_hits;
      return *c;
    }
    if (deferring_) {
      // The chunk's rounds are running: fetch it with the next one.
      (is_kmer ? kmer_queue_ : tile_queue_)[static_cast<std::size_t>(owner)]
          .push_back(id);
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
