#pragma once
// The prior-art spectrum model (paper Section II-B): every rank holds the
// full replicated spectrum, built by allgathering each rank's local counts
// (Shah et al. 2012 / Jammula et al. 2015). Correction needs no spectrum
// communication at all — the very memory/scalability trade the paper's
// partitioned approach removes.

#include "parallel/dist_spectrum.hpp"
#include "pipeline/spectrum_model.hpp"
#include "rtm/comm.hpp"

namespace reptile::pipeline {

/// The sequential model's core::LocalSpectrum, worker handle and footprint,
/// with Step III replaced by an allgather of every rank's local counts:
/// after it each rank holds the full global spectrum.
class ReplicatedSpectrumModel final : public LocalSpectrumModel {
 public:
  ReplicatedSpectrumModel(const core::CorrectorParams& params, rtm::Comm& comm)
      : LocalSpectrumModel(params), comm_(&comm) {}

  void finalize_construction() override {
    core::LocalSpectrum& s = spectrum();
    hash::CountTable<> kmers = parallel::allgather_merge(*comm_, s.kmers());
    s.assign(std::move(kmers), parallel::allgather_merge(*comm_, s.tiles()));
    s.prune();
  }

 private:
  rtm::Comm* comm_;
};

}  // namespace reptile::pipeline
