#include "seq/fastq_io.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "seq/alphabet.hpp"
#include "seq/fasta_io.hpp"

namespace reptile::seq {

namespace {

[[noreturn]] void fail(std::uint64_t line, const std::string& what) {
  throw std::runtime_error("fastq line " + std::to_string(line) + ": " + what);
}

void strip_cr(std::string& s) {
  if (!s.empty() && s.back() == '\r') s.pop_back();
}

std::vector<Read> parse_stream(std::istream& in, const FastqOptions& options,
                               FastqStats* stats) {
  std::vector<Read> reads;
  FastqStats local;
  std::string header, bases, plus, quals;
  std::uint64_t line = 0;
  while (std::getline(in, header)) {
    ++line;
    strip_cr(header);
    if (header.empty()) continue;  // tolerate trailing blank lines
    if (header[0] != '@') fail(line, "expected '@' header");
    if (!std::getline(in, bases)) fail(line + 1, "truncated record (bases)");
    ++line;
    strip_cr(bases);
    if (!std::getline(in, plus)) fail(line + 1, "truncated record ('+')");
    ++line;
    strip_cr(plus);
    if (plus.empty() || plus[0] != '+') fail(line, "expected '+' separator");
    if (!std::getline(in, quals)) fail(line + 1, "truncated record (quals)");
    ++line;
    strip_cr(quals);
    if (quals.size() != bases.size()) {
      fail(line, "quality string length does not match bases");
    }
    ++local.reads_in;
    if (static_cast<int>(bases.size()) < options.min_length) {
      ++local.reads_dropped;
      continue;
    }

    Read r;
    r.bases = sanitize_sequence(bases);
    r.quals.reserve(bases.size());
    for (std::size_t i = 0; i < bases.size(); ++i) {
      char& c = r.bases[i];
      if (c != bases[i]) ++local.bases_sanitized;
      c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
      const int q = static_cast<unsigned char>(quals[i]) - options.phred_offset;
      if (q < 0 || q > 93) {
        fail(line, "quality character out of range for the chosen "
                   "phred offset");
      }
      r.quals.push_back(static_cast<qual_t>(q));
    }
    r.number = static_cast<seq_num_t>(reads.size() + 1);
    reads.push_back(std::move(r));
    ++local.reads_out;
  }
  if (stats) *stats = local;
  return reads;
}

}  // namespace

std::vector<Read> parse_fastq(const std::string& text,
                              const FastqOptions& options, FastqStats* stats) {
  std::istringstream in(text);
  return parse_stream(in, options, stats);
}

std::vector<Read> read_fastq(const std::filesystem::path& path,
                             const FastqOptions& options, FastqStats* stats) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("fastq: cannot open " + path.string());
  }
  return parse_stream(in, options, stats);
}

void write_fastq(const std::filesystem::path& path,
                 const std::vector<Read>& reads, int phred_offset) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw std::runtime_error("fastq: cannot open for writing " +
                             path.string());
  }
  for (const Read& r : reads) {
    out << '@' << r.number << '\n' << r.bases << "\n+\n";
    for (qual_t q : r.quals) {
      out << static_cast<char>(q + phred_offset);
    }
    out << '\n';
  }
  if (!out) {
    throw std::runtime_error("fastq: write failed: " + path.string());
  }
}

FastqStats convert_fastq(const std::filesystem::path& fastq,
                         const std::filesystem::path& fasta_out,
                         const std::filesystem::path& qual_out,
                         const FastqOptions& options) {
  FastqStats stats;
  const auto reads = read_fastq(fastq, options, &stats);
  write_read_files(fasta_out, qual_out, reads);
  return stats;
}

}  // namespace reptile::seq
