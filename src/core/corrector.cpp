#include "core/corrector.hpp"

#include <algorithm>
#include <cassert>
#include <span>

namespace reptile::core {

TileCorrector::TileCorrector(const CorrectorParams& params)
    : params_(params), tile_codec_(params.k, params.tile_overlap) {
  params_.validate();
}

void TileCorrector::pick_positions(const seq::Read& read, int tile_pos,
                                   Positions& out) const {
  const int tlen = tile_codec_.tile_len();
  const auto qual = [&](int off) {
    return read.quals[static_cast<std::size_t>(tile_pos + off)];
  };
  for (int off = 0; off < tlen; ++off) {
    out.off[static_cast<std::size_t>(off)] = off;
  }
  // (quality, offset) is a strict total order, so a partial sort picks
  // exactly the prefix a stable sort by quality would — without the
  // temporary buffer std::stable_sort allocates.
  out.size = std::min(tlen, params_.max_positions_per_tile);
  std::partial_sort(out.off.begin(), out.off.begin() + out.size,
                    out.off.begin() + tlen, [&](int a, int b) {
                      const auto qa = qual(a);
                      const auto qb = qual(b);
                      if (qa != qb) return qa < qb;
                      return a < b;
                    });
  if (params_.restrict_to_low_quality) {
    // Original Reptile: only low-quality bases are suspected; drop every
    // position at or above the quality threshold (a suffix of the order).
    while (out.size > 0 &&
           qual(out.off[static_cast<std::size_t>(out.size - 1)]) >=
               params_.qual_threshold) {
      --out.size;
    }
  }
}

bool TileCorrector::acceptable(seq::tile_id_t tile, SpectrumView& spectrum,
                               std::uint32_t& count) const {
  count = spectrum.tile_count(tile);
  if (count < params_.tile_threshold) return false;
  // Tile passed; require solid constituent k-mers as well (Reptile uses
  // both spectra — this is where the k-mer lookup traffic comes from). A
  // deferred first k-mer is no verdict yet: ask for the second one too, so
  // both arrive in the same round.
  const std::uint64_t deferred_before = spectrum.deferred_lookups();
  const bool first_solid =
      spectrum.kmer_count(tile_codec_.first_kmer(tile)) >=
      params_.kmer_threshold;
  if (!first_solid && spectrum.deferred_lookups() == deferred_before) {
    return false;
  }
  return spectrum.kmer_count(tile_codec_.second_kmer(tile)) >=
             params_.kmer_threshold &&
         first_solid;
}

int TileCorrector::try_fix_tile(seq::Read& read, int tile_pos,
                                seq::tile_id_t tile, SpectrumView& spectrum,
                                std::uint64_t degraded_before,
                                std::uint64_t deferred_before) const {
  // A deferred gate made the tile look untrusted on a placeholder count.
  if (spectrum.deferred_lookups() != deferred_before) return kSuspended;
  Positions positions;
  pick_positions(read, tile_pos, positions);
  const auto picked = std::span<const int>(
      positions.off.data(), static_cast<std::size_t>(positions.size));

  Candidate best;
  std::uint32_t second_best = 0;
  auto consider = [&](const Candidate& c) {
    if (c.count > best.count ||
        (c.count == best.count && c.tile < best.tile)) {
      if (best.count != 0) second_best = std::max(second_best, best.count);
      best = c;
    } else {
      second_best = std::max(second_best, c.count);
    }
  };

  // Hamming distance 1: one substitution at one chosen position.
  for (int off : picked) {
    const seq::base_t current = tile_codec_.base_at(tile, off);
    for (seq::base_t b = 0; b < seq::kAlphabetSize; ++b) {
      if (b == current) continue;
      const seq::tile_id_t cand = tile_codec_.substitute(tile, off, b);
      std::uint32_t count = 0;
      if (acceptable(cand, spectrum, count)) {
        consider({cand, count, off, b, -1, 0});
      }
    }
  }

  // HD2 candidates are enumerated on complete HD1 evidence only: "no
  // acceptable single substitution" must not rest on a placeholder.
  if (spectrum.deferred_lookups() != deferred_before) return kSuspended;

  // Hamming distance 2 only when no single substitution was acceptable.
  if (best.count == 0 && params_.max_hamming >= 2) {
    for (std::size_t i = 0; i < picked.size(); ++i) {
      for (std::size_t j = i + 1; j < picked.size(); ++j) {
        const int o1 = std::min(picked[i], picked[j]);
        const int o2 = std::max(picked[i], picked[j]);
        const seq::base_t c1 = tile_codec_.base_at(tile, o1);
        const seq::base_t c2 = tile_codec_.base_at(tile, o2);
        for (seq::base_t b1 = 0; b1 < seq::kAlphabetSize; ++b1) {
          if (b1 == c1) continue;
          const seq::tile_id_t partial = tile_codec_.substitute(tile, o1, b1);
          for (seq::base_t b2 = 0; b2 < seq::kAlphabetSize; ++b2) {
            if (b2 == c2) continue;
            const seq::tile_id_t cand = tile_codec_.substitute(partial, o2, b2);
            std::uint32_t count = 0;
            if (acceptable(cand, spectrum, count)) {
              consider({cand, count, o1, b1, o2, b2});
            }
          }
        }
      }
    }
  }

  // Deferral guard: every decision below — including "no fix" — needs the
  // complete candidate evidence; with a lookup still deferred, suspend.
  if (spectrum.deferred_lookups() != deferred_before) return kSuspended;
  if (best.count == 0) return 0;
  // Unambiguity: the winner must dominate every other acceptable candidate.
  if (second_best != 0 &&
      static_cast<double>(best.count) <
          params_.dominance_ratio * static_cast<double>(second_best)) {
    return 0;
  }
  // Degradation guard: if any lookup since the tile's gate check gave up
  // and returned a conservative 0 (remote timeout after max retries), the
  // candidate comparison above may have missed evidence. Never correct on
  // possibly-incomplete evidence — skip the tile instead.
  if (spectrum.degraded_lookups() != degraded_before) return 0;

  int applied = 0;
  read.bases[static_cast<std::size_t>(tile_pos + best.off1)] =
      seq::char_from_base(best.base1);
  ++applied;
  if (best.off2 >= 0) {
    read.bases[static_cast<std::size_t>(tile_pos + best.off2)] =
        seq::char_from_base(best.base2);
    ++applied;
  }
  return applied;
}

ReadCorrection TileCorrector::correct(seq::Read& read,
                                      SpectrumView& spectrum) const {
  ReadCursor cursor;
  while (!resume(read, spectrum, cursor)) {
  }
  return cursor.result;
}

bool TileCorrector::resume(seq::Read& read, SpectrumView& spectrum,
                           ReadCursor& cursor) const {
  const int len = read.length();
  const int tiles = tile_codec_.num_tiles(len);
  assert(tiles == 0 || read.quals.size() == read.bases.size());
  const seq::KmerCodec& tc = tile_codec_.as_kmer_codec();
  ReadCorrection& result = cursor.result;

  for (; cursor.next_tile < tiles; ++cursor.next_tile) {
    if (result.substitutions >= params_.max_corrections_per_read) break;
    const int pos = tile_codec_.tile_start(cursor.next_tile, len);
    const seq::tile_id_t tile = tc.pack(
        std::string_view(read.bases).substr(static_cast<std::size_t>(pos)));
    // Snapshot the degradation counter BEFORE the gate lookup: a degraded
    // gate can make a trusted tile look untrusted, so the whole decision
    // (gate + candidate evaluation) must be covered by the guard. The
    // deferral snapshot covers the same span.
    const std::uint64_t deferred_before = spectrum.begin_tile();
    const std::uint64_t degraded_before = spectrum.degraded_lookups();
    if (spectrum.tile_count(tile) >= params_.tile_threshold) continue;
    const int applied = try_fix_tile(read, pos, tile, spectrum,
                                     degraded_before, deferred_before);
    if (applied == kSuspended) {
      spectrum.suspend_tile();
      return false;
    }
    ++result.tiles_untrusted;
    if (applied > 0) {
      result.substitutions += applied;
      ++result.tiles_fixed;
    } else if (spectrum.degraded_lookups() != degraded_before) {
      ++result.tiles_degraded;
    }
  }
  return true;
}

}  // namespace reptile::core
