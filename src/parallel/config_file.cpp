#include "parallel/config_file.hpp"

#include <algorithm>
#include <cstddef>
#include <fstream>
#include <functional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

namespace reptile::parallel {

namespace {

[[noreturn]] void fail(int line, const std::string& what) {
  throw std::runtime_error("config line " + std::to_string(line) + ": " + what);
}

bool parse_bool(const std::string& v, int line) {
  if (v == "1" || v == "true" || v == "yes" || v == "on") return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  fail(line, "expected boolean, got '" + v + "'");
}

long parse_int(const std::string& v, int line) {
  try {
    std::size_t pos = 0;
    const long x = std::stol(v, &pos);
    if (pos != v.size()) fail(line, "trailing characters in number '" + v + "'");
    return x;
  } catch (const std::logic_error&) {
    fail(line, "expected integer, got '" + v + "'");
  }
}

double parse_double(const std::string& v, int line) {
  try {
    std::size_t pos = 0;
    const double x = std::stod(v, &pos);
    if (pos != v.size()) fail(line, "trailing characters in number '" + v + "'");
    return x;
  } catch (const std::logic_error&) {
    fail(line, "expected number, got '" + v + "'");
  }
}

/// A config value parsed as the type of the member it lands in.
template <class T>
T parse_as(const std::string& v, int line) {
  if constexpr (std::is_same_v<T, bool>) {
    return parse_bool(v, line);
  } else if constexpr (std::is_integral_v<T>) {
    return static_cast<T>(parse_int(v, line));
  } else if constexpr (std::is_floating_point_v<T>) {
    return parse_double(v, line);
  } else {
    return T(v);  // std::string or std::filesystem::path
  }
}

/// Writes one `key value` line. Booleans print as 1/0; an empty string or
/// path prints nothing (such keys are optional).
template <class T>
void emit(std::ostream& out, std::string_view key, const T& value) {
  if constexpr (std::is_same_v<T, bool>) {
    out << key << ' ' << (value ? 1 : 0) << '\n';
  } else if constexpr (std::is_same_v<T, std::filesystem::path>) {
    if (!value.empty()) out << key << ' ' << value.string() << '\n';
  } else if constexpr (std::is_same_v<T, std::string>) {
    if (!value.empty()) out << key << ' ' << value << '\n';
  } else {
    out << key << ' ' << value << '\n';
  }
}

/// One recognized key: how its value lands in the config and how it is
/// written back. keys() is the single source of truth for the key set —
/// the parser, the unknown-key suggestion and to_config_text all iterate
/// it.
struct KeySpec {
  std::string key;
  std::function<void(RunConfigFile&, const std::string&, int)> parse;
  std::function<void(std::ostream&, std::string_view, const RunConfigFile&)>
      emit;
  /// Byte offset of the member the key writes, within a RunConfigFile. It
  /// identifies the member when a `job.*` key is derived from it (-1 for
  /// keys that write a job override).
  std::ptrdiff_t offset = -1;
};

/// A default config; a member's address in it, as an offset from its
/// start, identifies that member (KeySpec::offset).
const RunConfigFile& probe() {
  static const RunConfigFile config;
  return config;
}

std::ptrdiff_t offset_in_probe(const void* member) {
  return static_cast<const char*>(member) -
         reinterpret_cast<const char*>(&probe());
}

/// A key bound to a top-level member of the config.
template <class T>
KeySpec field(std::string key, T RunConfigFile::*member) {
  return {std::move(key),
          [member](RunConfigFile& c, const std::string& v, int line) {
            c.*member = parse_as<T>(v, line);
          },
          [member](std::ostream& out, std::string_view key,
                   const RunConfigFile& c) { emit(out, key, c.*member); },
          offset_in_probe(&(probe().*member))};
}

/// A key bound to `member` of the config's sub-struct `group`.
template <class G, class T>
KeySpec field(std::string key, G RunConfigFile::*group, T G::*member) {
  return {std::move(key),
          [group, member](RunConfigFile& c, const std::string& v, int line) {
            c.*group.*member = parse_as<T>(v, line);
          },
          [group, member](std::ostream& out, std::string_view key,
                          const RunConfigFile& c) {
            emit(out, key, c.*group.*member);
          },
          offset_in_probe(&(probe().*group.*member))};
}

/// Appends `job.<key>` for each (JobOverrides member, member of `group`)
/// pair, named after the base key that writes the paired member. The key
/// sets the override; it is emitted only when the override is set.
template <class G, class Pairs>
void add_job_keys(std::vector<KeySpec>& keys, G RunConfigFile::*group,
                  const Pairs& pairs) {
  const auto add = [&](auto job_member, auto base_member) {
    using T = typename std::remove_reference_t<
        decltype(probe().job.*job_member)>::value_type;
    const std::ptrdiff_t offset =
        offset_in_probe(&(probe().*group.*base_member));
    const auto base =
        std::find_if(keys.begin(), keys.end(),
                     [offset](const KeySpec& k) { return k.offset == offset; });
    if (base == keys.end()) {
      throw std::logic_error("config: a job override has no base key");
    }
    keys.push_back(
        {"job." + base->key,
         [job_member](RunConfigFile& c, const std::string& v, int line) {
           c.job.*job_member = parse_as<T>(v, line);
         },
         [job_member](std::ostream& out, std::string_view key,
                      const RunConfigFile& c) {
           if (const auto& value = c.job.*job_member) emit(out, key, *value);
         }});
  };
  std::apply([&](const auto&... pair) { (add(pair.first, pair.second), ...); },
             pairs);
}

/// `job.lookup_*`: a member of the job's retry override, which the first
/// such key creates from the defaults; both are emitted once it exists.
KeySpec job_retry_field(std::string key, int RetryPolicy::*member) {
  return {std::move(key),
          [member](RunConfigFile& c, const std::string& v, int line) {
            if (!c.job.retry) c.job.retry.emplace();
            (*c.job.retry).*member = parse_as<int>(v, line);
          },
          [member](std::ostream& out, std::string_view key,
                   const RunConfigFile& c) {
            if (c.job.retry) emit(out, key, (*c.job.retry).*member);
          }};
}

std::vector<KeySpec> make_keys() {
  using C = RunConfigFile;
  using P = core::CorrectorParams;
  using H = Heuristics;
  using F = rtm::FaultPlan;
  using T = obs::TraceConfig;
  std::vector<KeySpec> keys = {
      field("fasta_file", &C::fasta_file),
      field("qual_file", &C::qual_file),
      field("output_file", &C::output_file),
      field("kmer_length", &C::params, &P::k),
      field("tile_overlap", &C::params, &P::tile_overlap),
      field("kmer_threshold", &C::params, &P::kmer_threshold),
      field("tile_threshold", &C::params, &P::tile_threshold),
      field("canonical", &C::params, &P::canonical),
      field("qual_threshold", &C::params, &P::qual_threshold),
      field("restrict_to_low_quality", &C::params,
            &P::restrict_to_low_quality),
      field("max_positions_per_tile", &C::params, &P::max_positions_per_tile),
      field("max_hamming", &C::params, &P::max_hamming),
      field("dominance_ratio", &C::params, &P::dominance_ratio),
      field("max_corrections_per_read", &C::params,
            &P::max_corrections_per_read),
      field("chunk_size", &C::params, &P::chunk_size),
      field("prefetch_capacity", &C::params, &P::prefetch_capacity),
      field("remote_cache_capacity", &C::params, &P::remote_cache_capacity),
      field("universal", &C::heuristics, &H::universal),
      field("read_kmers", &C::heuristics, &H::read_kmers),
      field("allgather_kmers", &C::heuristics, &H::allgather_kmers),
      field("allgather_tiles", &C::heuristics, &H::allgather_tiles),
      field("add_remote", &C::heuristics, &H::add_remote),
      field("batch_reads", &C::heuristics, &H::batch_reads),
      field("batch_lookups", &C::heuristics, &H::batch_lookups),
      field("filter_lookups", &C::heuristics, &H::filter_lookups),
      field("filter_fp_rate", &C::heuristics, &H::filter_fp_rate),
      field("load_balance", &C::heuristics, &H::load_balance),
      field("partial_replication_group", &C::heuristics,
            &H::partial_replication_group),
      field("bloom_construction", &C::heuristics, &H::bloom_construction),
      field("rtm_check", &C::rtm_check),
      field("mailbox_fast_path", &C::mailbox_fast_path),
      field("chaos_seed", &C::chaos, &F::seed),
      field("chaos_max_delay_us", &C::chaos, &F::max_delay_us),
      field("chaos_drop_rate", &C::chaos, &F::drop_rate),
      field("chaos_duplicate_rate", &C::chaos, &F::duplicate_rate),
      field("chaos_truncate_rate", &C::chaos, &F::truncate_rate),
      field("chaos_stall_rate", &C::chaos, &F::stall_rate),
      field("chaos_stall_us", &C::chaos, &F::stall_us),
      field("lookup_timeout_ticks", &C::retry, &RetryPolicy::timeout_ticks),
      field("lookup_max_retries", &C::retry, &RetryPolicy::max_retries),
      field("trace_enabled", &C::trace, &T::enabled),
      field("trace_path", &C::trace, &T::path),
      field("trace_ring_capacity", &C::trace, &T::ring_capacity),
      field("metrics_enabled", &C::trace, &T::metrics),
      field("ledger_enabled", &C::trace, &T::ledger),
  };
  // Serve-mode per-job overrides (parallel/job.hpp): the `job.*` namespace
  // mirrors the correction-phase subset of the keys above. Unset keys keep
  // the server's build-time value.
  add_job_keys(keys, &C::params, JobOverrides::param_fields());
  add_job_keys(keys, &C::heuristics, JobOverrides::heuristic_fields());
  keys.push_back(
      {"job.deadline_ms",
       [](RunConfigFile& c, const std::string& v, int line) {
         c.job.deadline_seconds = parse_double(v, line) / 1000.0;
       },
       [](std::ostream& out, std::string_view key, const RunConfigFile& c) {
         if (c.job.deadline_seconds) {
           emit(out, key, *c.job.deadline_seconds * 1000.0);
         }
       }});
  keys.push_back(job_retry_field("job.lookup_timeout_ticks",
                                 &RetryPolicy::timeout_ticks));
  keys.push_back(
      job_retry_field("job.lookup_max_retries", &RetryPolicy::max_retries));
  return keys;
}

const std::vector<KeySpec>& keys() {
  static const std::vector<KeySpec> table = make_keys();
  return table;
}

/// Levenshtein distance, for the unknown-key suggestion. The key set is
/// tiny, so the quadratic DP is fine.
std::size_t edit_distance(std::string_view a, std::string_view b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diag = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t up = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1,
                         diag + (a[i - 1] == b[j - 1] ? 0 : 1)});
      diag = up;
    }
  }
  return row[b.size()];
}

/// The valid key closest to `key` in edit distance (ties: table order).
std::string_view nearest_key(std::string_view key) {
  std::string_view best = keys().front().key;
  std::size_t best_distance = edit_distance(key, best);
  for (const KeySpec& spec : keys()) {
    const std::size_t d = edit_distance(key, spec.key);
    if (d < best_distance) {
      best_distance = d;
      best = spec.key;
    }
  }
  return best;
}

}  // namespace

RunConfigFile parse_config_text(const std::string& text) {
  RunConfigFile config;
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ls(line);
    std::string key, value;
    if (!(ls >> key)) continue;  // blank or comment-only line
    if (!(ls >> value)) fail(lineno, "key '" + key + "' has no value");
    std::string extra;
    if (ls >> extra) fail(lineno, "unexpected trailing token '" + extra + "'");

    const auto spec =
        std::find_if(keys().begin(), keys().end(),
                     [&key](const KeySpec& s) { return s.key == key; });
    if (spec == keys().end()) {
      fail(lineno, "unknown key '" + key + "' (nearest valid key: '" +
                       std::string(nearest_key(key)) + "')");
    }
    spec->parse(config, value, lineno);
  }
  config.params.validate();
  config.heuristics.validate();
  config.chaos.validate();
  config.retry.validate();
  // Validate the job overrides against this file's own build config (the
  // serve driver re-validates per submit with its actual worker count).
  config.job.validate(config.params, config.heuristics, /*worker_threads=*/1);
  return config;
}

RunConfigFile parse_config_file(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("config: cannot open " + path.string());
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_config_text(buffer.str());
}

std::string to_config_text(const RunConfigFile& config) {
  std::ostringstream out;
  out << "# reptile-dist run configuration\n";
  for (const KeySpec& spec : keys()) spec.emit(out, spec.key, config);
  return out.str();
}

}  // namespace reptile::parallel
