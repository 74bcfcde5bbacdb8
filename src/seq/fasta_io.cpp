#include "seq/fasta_io.hpp"

#include <cassert>
#include <charconv>
#include <sstream>
#include <stdexcept>

#include "seq/alphabet.hpp"

namespace reptile::seq {

namespace {

[[noreturn]] void io_fail(const std::filesystem::path& p, const char* what) {
  throw std::runtime_error("fasta_io: " + std::string(what) + ": " +
                           p.string());
}

/// Reads the sequence (or quality) body lines of the record the stream is
/// positioned in, stopping at the next header or EOF; the stream is left at
/// the next header line (or EOF).
std::string read_body(std::ifstream& in) {
  std::string body;
  std::string line;
  while (true) {
    const std::streamoff pos = in.tellg();
    if (!std::getline(in, line)) break;
    if (!line.empty() && line[0] == '>') {
      in.clear();
      in.seekg(pos);
      break;
    }
    body += line;
    body += ' ';  // keep token separation for quality bodies
  }
  return body;
}

std::vector<qual_t> parse_quals(const std::string& body) {
  std::vector<qual_t> out;
  std::istringstream is(body);
  int q;
  while (is >> q) out.push_back(static_cast<qual_t>(q));
  return out;
}

std::string strip_spaces(const std::string& body) {
  std::string out;
  out.reserve(body.size());
  for (char c : body) {
    if (c != ' ' && c != '\t' && c != '\r') out.push_back(c);
  }
  return out;
}

}  // namespace

void write_fasta(const std::filesystem::path& path,
                 const std::vector<Read>& reads) {
  std::ofstream out(path, std::ios::binary);
  if (!out) io_fail(path, "cannot open for writing");
  for (const Read& r : reads) {
    out << '>' << r.number << '\n' << r.bases << '\n';
  }
  if (!out) io_fail(path, "write failed");
}

void write_qual(const std::filesystem::path& path,
                const std::vector<Read>& reads) {
  std::ofstream out(path, std::ios::binary);
  if (!out) io_fail(path, "cannot open for writing");
  for (const Read& r : reads) {
    out << '>' << r.number << '\n';
    for (std::size_t i = 0; i < r.quals.size(); ++i) {
      if (i) out << ' ';
      out << static_cast<int>(r.quals[i]);
    }
    out << '\n';
  }
  if (!out) io_fail(path, "write failed");
}

void write_read_files(const std::filesystem::path& fasta,
                      const std::filesystem::path& qual,
                      const std::vector<Read>& reads) {
  write_fasta(fasta, reads);
  write_qual(qual, reads);
}

std::vector<Read> read_all(const std::filesystem::path& fasta,
                           const std::filesystem::path& qual) {
  std::ifstream fa(fasta, std::ios::binary);
  if (!fa) io_fail(fasta, "cannot open");
  std::ifstream qf(qual, std::ios::binary);
  if (!qf) io_fail(qual, "cannot open");

  std::vector<Read> reads;
  std::string line;
  while (std::getline(fa, line)) {
    const auto num = detail::parse_header(line);
    if (!num) io_fail(fasta, "expected header line");
    Read r;
    r.number = *num;
    r.bases = sanitize_sequence(strip_spaces(read_body(fa)));
    reads.push_back(std::move(r));
  }
  std::size_t i = 0;
  while (std::getline(qf, line)) {
    const auto num = detail::parse_header(line);
    if (!num) io_fail(qual, "expected header line");
    if (i >= reads.size() || reads[i].number != *num) {
      io_fail(qual, "quality numbering does not match FASTA");
    }
    reads[i].quals = parse_quals(read_body(qf));
    if (reads[i].quals.size() != reads[i].bases.size()) {
      io_fail(qual, "quality length does not match read length");
    }
    ++i;
  }
  if (i != reads.size()) io_fail(qual, "fewer quality records than reads");
  return reads;
}

namespace detail {

std::optional<seq_num_t> parse_header(const std::string& line) {
  if (line.empty() || line[0] != '>') return std::nullopt;
  seq_num_t value = 0;
  const char* begin = line.data() + 1;
  const char* end = line.data() + line.size();
  while (end > begin && (end[-1] == '\r' || end[-1] == ' ')) --end;
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

std::optional<seq_num_t> first_header_at_or_after(std::ifstream& in,
                                                  std::streamoff offset,
                                                  std::streamoff* header_pos) {
  in.clear();
  in.seekg(offset);
  if (offset != 0) {
    // We may be mid-line; discard the partial line so the next getline
    // starts at a line boundary.
    std::string partial;
    if (!std::getline(in, partial)) return std::nullopt;
  }
  std::string line;
  while (true) {
    const std::streamoff pos = in.tellg();
    if (!std::getline(in, line)) return std::nullopt;
    if (const auto num = parse_header(line)) {
      if (header_pos) *header_pos = pos;
      in.clear();
      in.seekg(pos);
      return num;
    }
  }
}

std::streamoff seek_to_record(std::ifstream& in, seq_num_t target,
                              seq_num_t total_hint) {
  in.clear();
  in.seekg(0, std::ios::end);
  const std::streamoff size = in.tellg();

  // Proportional first guess, then exponential back-off while the first
  // header we land on is past the target.
  std::streamoff guess = 0;
  if (total_hint > 1) {
    guess = static_cast<std::streamoff>(
        static_cast<double>(size) *
        (static_cast<double>(target - 1) / static_cast<double>(total_hint)));
  }
  std::streamoff back = 4096;
  while (true) {
    std::streamoff pos = 0;
    const auto num = first_header_at_or_after(in, guess, &pos);
    if (num && *num <= target) {
      // Scan forward record by record to the target.
      std::string line;
      while (true) {
        const std::streamoff here = in.tellg();
        if (!std::getline(in, line)) break;
        const auto n = parse_header(line);
        if (n && *n == target) {
          in.clear();
          in.seekg(here);
          return here;
        }
        if (n && *n > target) break;  // numbering gap: target missing
      }
      throw std::runtime_error("fasta_io: record " + std::to_string(target) +
                               " not found");
    }
    if (guess == 0) {
      throw std::runtime_error("fasta_io: record " + std::to_string(target) +
                               " not found (file starts past it)");
    }
    guess = guess > back ? guess - back : 0;
    back *= 2;
  }
}

}  // namespace detail

PartitionedReadSource::PartitionedReadSource(std::filesystem::path fasta,
                                             std::filesystem::path qual,
                                             int rank, int nranks)
    : fasta_path_(std::move(fasta)), qual_path_(std::move(qual)) {
  assert(rank >= 0 && rank < nranks);
  fasta_.open(fasta_path_, std::ios::binary);
  if (!fasta_) io_fail(fasta_path_, "cannot open");
  qual_.open(qual_path_, std::ios::binary);
  if (!qual_) io_fail(qual_path_, "cannot open");

  fasta_.seekg(0, std::ios::end);
  const std::streamoff size = fasta_.tellg();

  const auto range_start = static_cast<std::streamoff>(
      static_cast<double>(size) * rank / nranks);
  const auto range_end = static_cast<std::streamoff>(
      static_cast<double>(size) * (rank + 1) / nranks);

  // First owned record: first header at or after range_start. Rank 0 always
  // starts at byte 0 (there is no partial line to skip).
  std::streamoff start_pos = 0;
  const auto first =
      detail::first_header_at_or_after(fasta_, rank == 0 ? 0 : range_start,
                                       &start_pos);
  // First record of the NEXT rank bounds our subset.
  std::optional<seq_num_t> next_first;
  if (rank + 1 < nranks) {
    std::streamoff dummy = 0;
    next_first = detail::first_header_at_or_after(fasta_, range_end, &dummy);
  }

  if (!first || (next_first && *first >= *next_first)) {
    // Empty subset (more ranks than records in this byte range).
    first_ = end_ = next_ = 0;
    count_ = 0;
    return;
  }
  first_ = *first;
  fasta_start_ = start_pos;

  if (next_first) {
    end_ = *next_first;
  } else {
    // Count the remaining records to find the end sequence number.
    fasta_.clear();
    fasta_.seekg(start_pos);
    seq_num_t last = first_;
    std::string line;
    while (std::getline(fasta_, line)) {
      if (const auto n = detail::parse_header(line)) last = *n;
    }
    end_ = last + 1;
  }
  count_ = static_cast<std::size_t>(end_ - first_);

  // Look up the same starting sequence number in the quality file so both
  // streams cover the same reads (paper Step I).
  qual_start_ = detail::seek_to_record(qual_, first_, end_);
  reset();
}

void PartitionedReadSource::reset() {
  if (count_ == 0) return;
  fasta_.clear();
  fasta_.seekg(fasta_start_);
  qual_.clear();
  qual_.seekg(qual_start_);
  next_ = first_;
}

bool PartitionedReadSource::next_chunk(std::size_t max_reads, ReadBatch& out) {
  out.clear();
  std::string line;
  while (next_ < end_ && out.size() < max_reads) {
    if (!std::getline(fasta_, line)) break;
    const auto num = detail::parse_header(line);
    if (!num) io_fail(fasta_path_, "expected header line");
    if (*num != next_) io_fail(fasta_path_, "non-contiguous sequence numbers");
    Read r;
    r.number = *num;
    r.bases = sanitize_sequence(strip_spaces(read_body(fasta_)));

    if (!std::getline(qual_, line)) io_fail(qual_path_, "truncated");
    const auto qnum = detail::parse_header(line);
    if (!qnum || *qnum != *num) {
      io_fail(qual_path_, "quality numbering does not match FASTA");
    }
    r.quals = parse_quals(read_body(qual_));
    if (r.quals.size() != r.bases.size()) {
      io_fail(qual_path_, "quality length does not match read length");
    }
    out.push_back(std::move(r));
    ++next_;
  }
  return !out.empty();
}

}  // namespace reptile::seq
