#pragma once
// FASTA + quality-score file IO, including the paper's Step I partitioned
// parallel read.
//
// Input format (paper Section III, Step I): a FASTA file whose sequence
// names are ascending sequence numbers starting at 1, plus a quality-score
// file carrying the same sequence numbers with whitespace-separated Phred
// integers:
//
//   reads.fa            reads.qual
//   >1                  >1
//   ACGTACGT...         40 38 37 12 ...
//   >2                  >2
//   ...                 ...
//
// Each rank computes its byte range as file_size/np, scans forward to the
// first record boundary, records the starting sequence number, and looks up
// the same number in the quality file so both streams cover the same reads.

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "seq/read.hpp"

namespace reptile::seq {

/// Writes `reads` as the pre-processed FASTA file Reptile consumes
/// (headers ">1", ">2", ... in read order). Throws std::runtime_error on IO
/// failure.
void write_fasta(const std::filesystem::path& path,
                 const std::vector<Read>& reads);

/// Writes the parallel quality-score file (same headers, space-separated
/// Phred integers).
void write_qual(const std::filesystem::path& path,
                const std::vector<Read>& reads);

/// Writes both files next to each other; convenience used by dataset
/// generation.
void write_read_files(const std::filesystem::path& fasta,
                      const std::filesystem::path& qual,
                      const std::vector<Read>& reads);

/// Reads an entire FASTA + quality pair back into memory (tests and the
/// sequential baseline). Throws on malformed input or mismatched numbering.
/// Like PartitionedReadSource, replaces every non-ACGT base with 'A'
/// (sanitize_sequence), so the reads satisfy the k-mer packer's ACGT
/// precondition.
std::vector<Read> read_all(const std::filesystem::path& fasta,
                           const std::filesystem::path& qual);

/// One rank's byte-partitioned view of a FASTA + quality pair: the rank's
/// subset is the records whose headers start in
/// [file_size*rank/np, file_size*(rank+1)/np) of the FASTA file, exactly the
/// paper's Step I. Implements ReadSource for chunked streaming.
class PartitionedReadSource final : public ReadSource {
 public:
  /// Opens both files and locates this rank's first/last sequence numbers.
  /// Preconditions: 0 <= rank < nranks.
  PartitionedReadSource(std::filesystem::path fasta, std::filesystem::path qual,
                        int rank, int nranks);

  bool next_chunk(std::size_t max_reads, ReadBatch& out) override;
  void reset() override;
  std::size_t size() const override { return count_; }

  /// First sequence number of the rank's subset; 0 when the subset is empty.
  seq_num_t first_sequence() const noexcept { return first_; }
  /// One past the last sequence number of the subset.
  seq_num_t end_sequence() const noexcept { return end_; }

 private:
  std::filesystem::path fasta_path_;
  std::filesystem::path qual_path_;
  std::ifstream fasta_;
  std::ifstream qual_;
  seq_num_t first_ = 0;  ///< first owned sequence number (1-based)
  seq_num_t end_ = 0;    ///< one past the last owned sequence number
  seq_num_t next_ = 0;   ///< next sequence number to deliver
  std::size_t count_ = 0;
  std::streamoff fasta_start_ = 0;  ///< byte offset of the first owned record
  std::streamoff qual_start_ = 0;
};

namespace detail {

/// Parses a header line ">N" into N; returns std::nullopt when the line is
/// not a header.
std::optional<seq_num_t> parse_header(const std::string& line);

/// Positions `in` at the start of the first header line at byte offset
/// >= `offset`, returning that header's sequence number, or std::nullopt
/// when no header follows. Leaves the stream positioned at the header line.
std::optional<seq_num_t> first_header_at_or_after(std::ifstream& in,
                                                  std::streamoff offset,
                                                  std::streamoff* header_pos);

/// Positions `in` at the header line of record `target`, searching around a
/// proportional guess (backing off in growing blocks when the guess
/// overshoots). Returns the byte offset of the header line. Throws when the
/// record does not exist.
std::streamoff seek_to_record(std::ifstream& in, seq_num_t target,
                              seq_num_t total_hint);

}  // namespace detail

}  // namespace reptile::seq
