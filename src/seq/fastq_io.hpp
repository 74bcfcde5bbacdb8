#pragma once
// FASTQ parsing and the Reptile preprocessing conversion.
//
// The paper notes "At this point, Reptile is not capable of reading the
// fastq format. ... the names have been pre-processed to be sequence
// numbers" — i.e. the operational pipeline downloads FASTQ from the SRA and
// converts it to the separate FASTA + quality files with numeric headers.
// This module implements that preprocessing: a FASTQ reader (4-line
// records, Phred+33 qualities by default) and the converter that renumbers
// reads 1..N and emits the two Reptile input files.

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "seq/read.hpp"

namespace reptile::seq {

/// Conversion options.
struct FastqOptions {
  /// ASCII offset of the quality encoding (33 = Sanger/Illumina 1.8+,
  /// 64 = legacy Illumina 1.3-1.7).
  int phred_offset = 33;
  /// Drop reads shorter than this many bases (0 keeps everything).
  int min_length = 0;
};

/// Statistics of one conversion.
struct FastqStats {
  std::uint64_t reads_in = 0;
  std::uint64_t reads_out = 0;
  std::uint64_t reads_dropped = 0;   ///< below min_length
  std::uint64_t bases_sanitized = 0; ///< non-ACGT characters replaced
};

/// Parses an entire FASTQ file into reads numbered 1..N in file order
/// (original names are discarded, as the paper's preprocessing does).
/// Non-ACGT bases (N etc.) become 'A' via sanitize_sequence, and bases are
/// upper-cased. Throws std::runtime_error with a line number on malformed
/// input.
std::vector<Read> read_fastq(const std::filesystem::path& path,
                             const FastqOptions& options = {},
                             FastqStats* stats = nullptr);

/// Parses FASTQ text (testing / in-memory use).
std::vector<Read> parse_fastq(const std::string& text,
                              const FastqOptions& options = {},
                              FastqStats* stats = nullptr);

/// Writes reads as FASTQ ("@<number>" headers, Phred+33 by default).
void write_fastq(const std::filesystem::path& path,
                 const std::vector<Read>& reads, int phred_offset = 33);

/// The full preprocessing step: FASTQ in, Reptile's FASTA + quality files
/// out. Returns conversion statistics.
FastqStats convert_fastq(const std::filesystem::path& fastq,
                         const std::filesystem::path& fasta_out,
                         const std::filesystem::path& qual_out,
                         const FastqOptions& options = {});

}  // namespace reptile::seq
