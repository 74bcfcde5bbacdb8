#include "parallel/dist_spectrum.hpp"

#include <algorithm>
#include <chrono>
#include <span>

#include "parallel/wire.hpp"

namespace reptile::parallel {

hash::CountTable<> allgather_merge(rtm::Comm& comm,
                                   const hash::CountTable<>& table) {
  std::vector<IdCount> flat;
  flat.reserve(table.size());
  table.for_each([&flat](std::uint64_t id, std::uint32_t count) {
    flat.push_back({id, count});
  });
  const auto all =
      comm.allgatherv(std::span<const IdCount>(flat.data(), flat.size()));
  hash::CountTable<> merged(all.size());
  for (const IdCount& e : all) merged.increment(e.id, e.count);
  return merged;
}

DistSpectrum::DistSpectrum(const core::CorrectorParams& params,
                           const Heuristics& heur, rtm::Comm& comm)
    : params_(params), heur_(heur), comm_(&comm), extractor_(params) {
  params_.validate();
  heur_.validate();
}

void DistSpectrum::owner_add(Tables& t, std::uint64_t id,
                             std::uint32_t count) {
  if (!heur_.bloom_construction) {
    t.owned.increment(id, count);
    return;
  }
  // Bloom-filter construction (paper Step III note): singletons stay in
  // the filter; the exact table only holds IDs sighted at least twice.
  if (t.owned.contains(id)) {
    t.owned.increment(id, count);
    return;
  }
  if (!t.bloom) {
    // Lazy sizing: a generous default; fill ratio is tested separately.
    t.bloom = std::make_unique<hash::OwnerFilter>(1 << 20, 0.01);
  }
  if (count >= 2) {
    t.owned.increment(id, count);
    t.bloom->insert(id);
    return;
  }
  if (t.bloom->insert(id)) {
    // Second sighting (or a rare false positive): admit, crediting the
    // first sighting parked in the filter.
    t.owned.increment(id, count + 1);
  }
}

void DistSpectrum::add_read(std::string_view bases) {
  for (Tables& t : tables_) t.scratch.clear();
  extractor_.extract(bases, at(LookupKind::kKmer).scratch,
                     at(LookupKind::kTile).scratch);
  const int me = comm_->rank();
  const int np = comm_->size();
  for (Tables& t : tables_) {
    for (std::uint64_t id : t.scratch) {
      if (hash::owner_of(id, np) == me) {
        owner_add(t, id, 1);
      } else {
        t.pending.increment(id);
        if (heur_.read_kmers) t.reads.increment(id);
      }
    }
  }
}

std::vector<std::vector<IdCount>> DistSpectrum::bucket_by_owner(
    const hash::CountTable<>& table) const {
  const int np = comm_->size();
  std::vector<std::vector<IdCount>> buckets(static_cast<std::size_t>(np));
  table.for_each([&](std::uint64_t id, std::uint32_t count) {
    buckets[static_cast<std::size_t>(hash::owner_of(id, np))].push_back(
        {id, count});
  });
  return buckets;
}

void DistSpectrum::exchange_to_owners() {
  for (Tables& t : tables_) {
    const auto received = comm_->alltoallv(bucket_by_owner(t.pending));
    for (const auto& part : received) {
      for (const IdCount& e : part) owner_add(t, e.id, e.count);
    }
    t.pending.clear();
  }
}

void DistSpectrum::prune() {
  at(LookupKind::kKmer).owned.prune_below(params_.kmer_threshold);
  at(LookupKind::kTile).owned.prune_below(params_.tile_threshold);
}

void DistSpectrum::fetch_one(Tables& t) {
  const int np = comm_->size();
  // Round 1: send the IDs we want counted to their owners.
  std::vector<std::vector<std::uint64_t>> asks(static_cast<std::size_t>(np));
  t.reads.for_each([&](std::uint64_t id, std::uint32_t) {
    asks[static_cast<std::size_t>(hash::owner_of(id, np))].push_back(id);
  });
  const auto questions = comm_->alltoallv(asks);

  // Answer from the (pruned) owned table, order-aligned with the request.
  std::vector<std::vector<std::uint32_t>> answers(
      static_cast<std::size_t>(np));
  for (int src = 0; src < np; ++src) {
    const auto& q = questions[static_cast<std::size_t>(src)];
    auto& a = answers[static_cast<std::size_t>(src)];
    a.reserve(q.size());
    for (std::uint64_t id : q) {
      a.push_back(t.owned.find(id).value_or(0));
    }
  }
  const auto replies = comm_->alltoallv(answers);

  // Rebuild the reads table with global counts, in the same per-owner order
  // the asks were issued.
  hash::CountTable<> rebuilt(t.reads.size());
  for (int owner = 0; owner < np; ++owner) {
    const auto& sent = asks[static_cast<std::size_t>(owner)];
    const auto& got = replies[static_cast<std::size_t>(owner)];
    for (std::size_t i = 0; i < sent.size(); ++i) {
      rebuilt.increment(sent[i], got[i]);  // count 0 marks known-absent
    }
  }
  t.reads = std::move(rebuilt);
}

void DistSpectrum::fetch_global_reads_tables() {
  for (Tables& t : tables_) fetch_one(t);
}

void DistSpectrum::replicate(LookupKind kind) {
  Tables& t = at(kind);
  t.replica = allgather_merge(*comm_, t.owned);
  // Every rank now resolves this kind from the replica; the owned shard is
  // redundant (no rank will request it remotely in this mode).
  t.owned.clear();
}

void DistSpectrum::replicate_group() {
  const int g = heur_.partial_replication_group;
  if (g <= 1) return;
  const int np = comm_->size();
  const int me = comm_->rank();
  const int my_group = me / g;

  for (Tables& t : tables_) {
    // Send my owned shard to every other member of my group; everyone must
    // participate in the alltoallv regardless of group membership.
    const auto mine = t.owned.entries();
    std::vector<IdCount> flat;
    flat.reserve(mine.size());
    for (const auto& [id, count] : mine) flat.push_back({id, count});
    std::vector<std::vector<IdCount>> buckets(static_cast<std::size_t>(np));
    for (int dst = 0; dst < np; ++dst) {
      if (dst != me && dst / g == my_group) {
        buckets[static_cast<std::size_t>(dst)] = flat;
      }
    }
    const auto received = comm_->alltoallv(buckets);
    t.group = hash::CountTable<>(t.owned.size() * static_cast<std::size_t>(g));
    for (const auto& [id, count] : mine) t.group.increment(id, count);
    for (const auto& part : received) {
      for (const IdCount& e : part) t.group.increment(e.id, e.count);
    }
  }
}

void DistSpectrum::exchange_filters(const RetryPolicy& retry) {
  // Idempotent across jobs: the filters are RANK-lifetime (built over the
  // pruned owned tables, which never change after construction), so a
  // resident server pays the exchange exactly once. Every rank takes this
  // branch deterministically — no rank can be left waiting on a peer.
  if (filters_exchanged_) return;
  filters_exchanged_ = true;
  if (!heur_.filter_lookups) return;
  const int np = comm_->size();
  const int me = comm_->rank();
  for (Tables& t : tables_) {
    t.peer_filters.clear();
    t.peer_filters.resize(static_cast<std::size_t>(np));
  }
  filter_bytes_ = 0;
  if (np <= 1 || heur_.fully_replicated()) return;

  // Kinds resolved by allgather replication never go remote, and their
  // owned shards were cleared by replicate() anyway — no filter to build.
  std::vector<LookupKind> kinds;
  for (LookupKind kind : kLookupKinds) {
    if (!allgathered(heur_, kind)) kinds.push_back(kind);
  }
  if (kinds.empty()) return;

  // Out-of-group peers only: in-group lookups resolve from the replicated
  // group tables and never reach the wire.
  std::vector<int> peers;
  for (int dst = 0; dst < np; ++dst) {
    if (dst != me && !owner_in_my_group(dst)) peers.push_back(dst);
  }
  if (peers.empty()) return;

  // Phase 1: every rank posts all its (buffered, non-blocking) sends before
  // any rank starts receiving, so the blocking collection below cannot
  // deadlock even without retry timeouts.
  for (LookupKind kind : kinds) {
    const hash::OwnerFilter filter =
        hash::OwnerFilter::build_from(at(kind).owned, heur_.filter_fp_rate);
    for (int dst : peers) {
      rtm::Payload payload = comm_->make_payload(filter_exchange_bytes(filter));
      encode_filter_exchange_into(payload.data(), kind, filter);
      comm_->send_payload(dst, kTagFilterExchange, std::move(payload));
    }
  }

  // Phase 2: collect one message per (peer, kind). A filter that cannot be
  // decoded (chaos truncation) or never arrives within the retry budget
  // leaves its slot null — that owner keeps the unfiltered wire path.
  const std::size_t expected = peers.size() * kinds.size();
  const auto accept = [&](const rtm::Message& m) {
    try {
      FilterExchange fx = decode_filter_exchange(m.payload);
      auto& slot =
          at(fx.kind).peer_filters[static_cast<std::size_t>(m.source)];
      filter_bytes_ += fx.filter.memory_bytes();
      slot = std::make_unique<hash::OwnerFilter>(std::move(fx.filter));
    } catch (const std::exception&) {
      // Malformed: drop. Trusting garbled bits could fake false negatives.
    }
  };
  if (!retry.enabled()) {
    for (std::size_t i = 0; i < expected; ++i) {
      accept(comm_->recv(rtm::kAnySource, kTagFilterExchange));
    }
  } else {
    // One overall deadline shared by all expected messages: the exchange is
    // best effort, so there is nothing to retransmit — just stop waiting.
    auto budget = std::chrono::microseconds(
        retry.attempt_timeout_us(retry.max_retries));
    const auto is_filter = [](const rtm::Message& m) {
      return m.tag == kTagFilterExchange;
    };
    for (std::size_t i = 0; i < expected; ++i) {
      const auto start = std::chrono::steady_clock::now();
      std::optional<rtm::Message> m = comm_->recv_match_for(is_filter, budget);
      if (!m.has_value()) break;  // budget exhausted: remaining slots stay null
      accept(*m);
      const auto spent = std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start);
      budget = budget > spent ? budget - spent : std::chrono::microseconds(0);
    }
  }
}

DistSpectrum::FilterAnswer DistSpectrum::filter(LookupKind kind,
                                                std::uint64_t id,
                                                int owner) const {
  const auto& filters = at(kind).peer_filters;
  if (owner < 0 || static_cast<std::size_t>(owner) >= filters.size()) {
    return FilterAnswer::kNoFilter;
  }
  const auto& f = filters[static_cast<std::size_t>(owner)];
  if (!f) return FilterAnswer::kNoFilter;
  return f->possibly_contains(id) ? FilterAnswer::kMaybePresent
                                  : FilterAnswer::kDefinitelyAbsent;
}

void DistSpectrum::drop_reads_tables() {
  for (Tables& t : tables_) {
    t.pending.clear();
    t.reads.clear();
    t.cache_order.clear();
  }
}

void DistSpectrum::cache_remote(LookupKind kind, std::uint64_t id,
                                std::uint32_t count) {
  Tables& t = at(kind);
  if (t.reads.contains(id)) return;  // fetched or already cached
  while (t.cache_order.size() >= params_.remote_cache_capacity) {
    t.reads.erase(t.cache_order.front());
    t.cache_order.pop_front();
  }
  t.reads.increment(id, count);
  t.cache_order.push_back(id);
}

void DistSpectrum::reset_for_job() {
  // The order deques hold exactly the add_remote-cached reply IDs — never
  // the fetch_global_reads_tables base entries — so erasing them restores
  // the reads tables to their end-of-construction state bit for bit.
  for (Tables& t : tables_) {
    for (const std::uint64_t id : t.cache_order) t.reads.erase(id);
    t.cache_order.clear();
  }
}

SpectrumFootprint DistSpectrum::footprint() const {
  const Tables& k = at(LookupKind::kKmer);
  const Tables& t = at(LookupKind::kTile);
  SpectrumFootprint f;
  f.hash_kmer_entries = k.owned.size();
  f.hash_tile_entries = t.owned.size();
  f.reads_kmer_entries = k.reads.size() + k.pending.size();
  f.reads_tile_entries = t.reads.size() + t.pending.size();
  f.replica_kmer_entries = k.replica.size() + k.group.size();
  f.replica_tile_entries = t.replica.size() + t.group.size();
  for (const Tables& x : tables_) {
    f.bytes += x.owned.memory_bytes() + x.pending.memory_bytes() +
               x.reads.memory_bytes() + x.replica.memory_bytes() +
               x.group.memory_bytes() +
               x.cache_order.size() * sizeof(std::uint64_t);
    if (x.bloom) f.bytes += x.bloom->memory_bytes();
  }
  f.filter_bytes = filter_bytes_;
  f.bytes += filter_bytes_;
  return f;
}

}  // namespace reptile::parallel
