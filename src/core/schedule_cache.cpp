#include "core/schedule_cache.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/binio.hpp"
#include "common/crc32.hpp"
#include "common/fnv1a.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace a2a {

namespace {

namespace fs = std::filesystem;

using binio::put_u16;
using binio::put_u32;
using binio::put_u64;
using binio::read_uint;

// ----------------------------------------------------------- fingerprint ---

// The canonical fields go straight into both hash lanes, as little-endian
// u64s (binio's order) and length-prefixed strings. These bytes name every
// cache entry and failover library on disk, so their order and encoding
// never change.
void feed_i64(Fnv1a128& h, std::int64_t v) {
  h.update_u64(static_cast<std::uint64_t>(v));
}
void feed_double(Fnv1a128& h, double v) {
  h.update_u64(std::bit_cast<std::uint64_t>(v));
}
void feed_str(Fnv1a128& h, const std::string& s) {
  h.update_u64(s.size());
  h.update(s);
}

void feed_graph(Fnv1a128& h, const DiGraph& g) {
  h.update_u64(static_cast<std::uint64_t>(g.num_nodes()));
  struct CanonEdge {
    NodeId from;
    NodeId to;
    std::uint64_t cap_bits;
    auto operator<=>(const CanonEdge&) const = default;
  };
  std::vector<CanonEdge> canon;
  canon.reserve(static_cast<std::size_t>(g.num_edges()));
  for (const Edge& e : g.edges()) {
    canon.push_back({e.from, e.to, std::bit_cast<std::uint64_t>(e.capacity)});
  }
  std::sort(canon.begin(), canon.end());
  for (const CanonEdge& e : canon) {
    feed_i64(h, e.from);
    feed_i64(h, e.to);
    h.update_u64(e.cap_bits);
  }
}

// ------------------------------------------------------ graph serializers ---

void write_graph(std::string& out, const DiGraph& g) {
  put_u32(out, static_cast<std::uint32_t>(g.num_nodes()));
  put_u32(out, static_cast<std::uint32_t>(g.num_edges()));
  for (const Edge& e : g.edges()) {
    put_u32(out, static_cast<std::uint32_t>(e.from));
    put_u32(out, static_cast<std::uint32_t>(e.to));
    put_u64(out, std::bit_cast<std::uint64_t>(e.capacity));
  }
}

DiGraph read_graph(std::string_view bytes, std::size_t& pos) {
  const auto num_nodes = static_cast<int>(read_uint(bytes, pos, 4));
  const auto num_edges = static_cast<std::uint32_t>(read_uint(bytes, pos, 4));
  DiGraph g(num_nodes);
  for (std::uint32_t i = 0; i < num_edges; ++i) {
    const auto from = static_cast<NodeId>(read_uint(bytes, pos, 4));
    const auto to = static_cast<NodeId>(read_uint(bytes, pos, 4));
    const double cap = std::bit_cast<double>(read_uint(bytes, pos, 8));
    g.add_edge(from, to, cap);
  }
  return g;
}

constexpr char kEntryMagic[4] = {'S', 'B', 'C', 'E'};
constexpr std::uint16_t kEntryVersion = 1;

/// Atomic write: unique tmp name per process and write, then rename, so
/// concurrent writers (threads or a fleet of processes) never interleave
/// into one file and readers only ever see complete files.
void write_file_atomic(const std::string& path, std::string_view bytes) {
  static std::atomic<std::uint64_t> write_seq{0};
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(write_seq.fetch_add(1));
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    A2A_REQUIRE(out.good(), "cannot open cache file for writing: ", tmp);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    A2A_REQUIRE(out.good(), "short write to cache file: ", tmp);
  }
  fs::rename(tmp, path);
}

/// Content key of an artifact's bytes (32 hex chars), the basename of its
/// object file in the disk tier.
std::string schedule_content_key(std::string_view bytes) {
  Fnv1a128 h(0x5bd1e995ULL, 0xc2b2ae3d27d4eb4fULL);
  h.update(bytes);
  return h.hex();
}

std::optional<std::string> read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

}  // namespace

std::string schedule_fingerprint(const DiGraph& topology, const Fabric& fabric,
                                 const ToolchainOptions& options) {
  Fnv1a128 h(0, 0x9e3779b97f4a7c15ULL);
  feed_graph(h, topology);

  feed_str(h, fabric.name);
  feed_double(h, fabric.link_GBps);
  feed_double(h, fabric.injection_GBps);
  h.update_u64(fabric.nic_forwarding ? 1 : 0);
  h.update_u64(static_cast<std::uint64_t>(fabric.flow_control));
  feed_double(h, fabric.step_sync_s);
  feed_double(h, fabric.per_chunk_s);
  feed_double(h, fabric.hop_latency_s);
  feed_double(h, fabric.qp_knee);
  feed_double(h, fabric.qp_penalty);

  feed_i64(h, options.exact_tsmcf_limit);
  feed_i64(h, options.path_diversity_threshold);
  // 0 and 1 stand for the retired master and child modes' defaults (auto
  // master, combinatorial children), the only values any pipeline ran with,
  // so that every fingerprint keeps its bytes; exact_master_limit alone now
  // picks the master tier.
  h.update_u64(0);
  h.update_u64(1);
  feed_i64(h, options.mcf.exact_master_limit);
  feed_double(h, options.mcf.fptas_epsilon);
  feed_i64(h, options.mcf.lp.max_iterations);
  // The LP tolerances are constants, fed in the order and types of the
  // SimplexOptions fields they replaced so that every fingerprint (and with
  // it every cache directory and failover library) keeps its bytes. 4000
  // stands for the retired refactor_interval, which no pipeline solve read.
  feed_i64(h, 4000);
  feed_double(h, kLpFeasibilityTol);
  feed_double(h, kLpOptimalityTol);
  feed_double(h, kLpPivotTol);
  feed_i64(h, kLpStallLimit);
  feed_double(h, options.mcf.fptas.epsilon);
  feed_i64(h, options.mcf.fptas.max_phases);
  feed_i64(h, options.chunking.max_denominator);
  feed_double(h, options.chunking.min_fraction);
  feed_i64(h, options.vc_max_layers_warn);
  // Fed only when non-default so every fingerprint minted before workloads
  // existed (and every on-disk cache entry stored under one) stays valid.
  if (!options.workload.is_default()) {
    feed_str(h, options.workload.to_string());
  }

  return h.hex();
}

// ------------------------------------------------------- entry envelope ---

std::string generated_schedule_to_bytes(const GeneratedSchedule& schedule,
                                        const SchedBinOptions& options) {
  std::string out;
  out.append(kEntryMagic, sizeof(kEntryMagic));
  put_u16(out, kEntryVersion);
  out.push_back(static_cast<char>(schedule.kind));
  const bool has_link = schedule.link.has_value();
  const bool has_path = schedule.path.has_value();
  out.push_back(static_cast<char>((has_link ? 1 : 0) | (has_path ? 2 : 0)));
  put_u64(out, std::bit_cast<std::uint64_t>(schedule.concurrent_flow));
  put_u32(out, static_cast<std::uint32_t>(schedule.vc_layers));
  put_u32(out, static_cast<std::uint32_t>(schedule.terminals.size()));
  for (const NodeId t : schedule.terminals) {
    put_u32(out, static_cast<std::uint32_t>(t));
  }
  write_graph(out, schedule.schedule_graph);
  put_u32(out, static_cast<std::uint32_t>(schedule.notes.size()));
  out.append(schedule.notes);

  std::string blob;
  if (has_link) {
    blob = link_schedule_to_schedbin(*schedule.link, options);
  } else if (has_path) {
    blob = path_schedule_to_schedbin(schedule.schedule_graph, *schedule.path,
                                     options);
  }
  // Exact capacity: the memory tier keeps this buffer for the entry's
  // lifetime, and growing it by the 4 CRC bytes would double it.
  out.reserve(out.size() + 8 + blob.size() + 4);
  put_u64(out, blob.size());
  out.append(blob);
  put_u32(out, crc32(out.data(), out.size()));
  return out;
}

ArtifactView parse_schedule_envelope(std::string_view envelope) {
  A2A_REQUIRE(envelope.size() >= sizeof(kEntryMagic) + 2 + 4,
              "cache entry too small: ", envelope.size(), " bytes");
  A2A_REQUIRE(envelope.substr(0, 4) == std::string_view(kEntryMagic, 4),
              "bad cache entry magic");
  std::size_t pos = 4;
  const auto version = static_cast<std::uint16_t>(read_uint(envelope, pos, 2));
  A2A_REQUIRE(version == kEntryVersion, "unsupported cache entry version ",
              version);
  ArtifactView out;
  out.envelope = envelope;
  out.kind = static_cast<ScheduleKind>(read_uint(envelope, pos, 1));
  pos += 1;  // has_link/has_path flags — implied by kind for a view.
  out.concurrent_flow = std::bit_cast<double>(read_uint(envelope, pos, 8));
  out.vc_layers = static_cast<int>(read_uint(envelope, pos, 4));
  const auto num_terminals =
      static_cast<std::uint32_t>(read_uint(envelope, pos, 4));
  A2A_REQUIRE(pos + static_cast<std::size_t>(num_terminals) * 4 <=
                  envelope.size(),
              "cache entry terminals truncated");
  pos += static_cast<std::size_t>(num_terminals) * 4;
  pos += 4;  // graph node count
  const auto num_edges = static_cast<std::uint32_t>(read_uint(envelope, pos, 4));
  A2A_REQUIRE(pos + static_cast<std::size_t>(num_edges) * 16 <= envelope.size(),
              "cache entry graph truncated");
  pos += static_cast<std::size_t>(num_edges) * 16;
  const auto notes_len = static_cast<std::uint32_t>(read_uint(envelope, pos, 4));
  A2A_REQUIRE(pos + notes_len <= envelope.size(), "cache entry notes truncated");
  pos += notes_len;
  const std::uint64_t blob_len = read_uint(envelope, pos, 8);
  A2A_REQUIRE(pos + blob_len + 4 == envelope.size(),
              "cache entry blob length mismatch");
  out.blob_offset = pos;
  out.blob_size = static_cast<std::size_t>(blob_len);
  return out;
}

GeneratedSchedule generated_schedule_from_bytes(std::string_view bytes) {
  A2A_REQUIRE(bytes.size() >= sizeof(kEntryMagic) + 2 + 4,
              "cache entry too small: ", bytes.size(), " bytes");
  A2A_REQUIRE(bytes.substr(0, 4) == std::string_view(kEntryMagic, 4),
              "bad cache entry magic");
  const std::uint32_t stored_crc =
      static_cast<std::uint32_t>(binio::get_uint(bytes, bytes.size() - 4, 4));
  A2A_REQUIRE(crc32(bytes.data(), bytes.size() - 4) == stored_crc,
              "cache entry failed CRC check");

  std::size_t pos = 4;
  const auto version = static_cast<std::uint16_t>(read_uint(bytes, pos, 2));
  A2A_REQUIRE(version == kEntryVersion, "unsupported cache entry version ",
              version);
  GeneratedSchedule out;
  out.kind = static_cast<ScheduleKind>(read_uint(bytes, pos, 1));
  const auto flags = static_cast<std::uint8_t>(read_uint(bytes, pos, 1));
  out.concurrent_flow = std::bit_cast<double>(read_uint(bytes, pos, 8));
  out.vc_layers = static_cast<int>(read_uint(bytes, pos, 4));
  const auto num_terminals = static_cast<std::uint32_t>(read_uint(bytes, pos, 4));
  out.terminals.reserve(num_terminals);
  for (std::uint32_t i = 0; i < num_terminals; ++i) {
    out.terminals.push_back(static_cast<NodeId>(read_uint(bytes, pos, 4)));
  }
  out.schedule_graph = read_graph(bytes, pos);
  const auto notes_len = static_cast<std::uint32_t>(read_uint(bytes, pos, 4));
  A2A_REQUIRE(pos + notes_len <= bytes.size(), "cache entry notes truncated");
  out.notes.assign(bytes.substr(pos, notes_len));
  pos += notes_len;
  const std::uint64_t blob_len = read_uint(bytes, pos, 8);
  A2A_REQUIRE(pos + blob_len + 4 == bytes.size(),
              "cache entry blob length mismatch");
  const std::string_view blob = bytes.substr(pos, blob_len);
  if (flags & 1) {
    out.link = link_schedule_from_schedbin(blob);
  } else if (flags & 2) {
    out.path = path_schedule_from_schedbin(out.schedule_graph, blob);
  }
  return out;
}

// ------------------------------------------------------------ the cache ---

ScheduleCache::ScheduleCache(ScheduleCacheOptions options)
    : options_(std::move(options)) {}

namespace {

fs::path objects_dir(const std::string& disk_dir) {
  return fs::path(disk_dir) / "objects";
}
fs::path refs_dir(const std::string& disk_dir) {
  return fs::path(disk_dir) / "refs";
}
fs::path object_path(const std::string& disk_dir, const std::string& key) {
  return objects_dir(disk_dir) / (key + ".schedbin");
}
fs::path ref_path(const std::string& disk_dir, const std::string& fingerprint) {
  return refs_dir(disk_dir) / (fingerprint + ".ref");
}
fs::path quarantine_dir(const std::string& disk_dir) {
  return fs::path(disk_dir) / "quarantine";
}

/// Moves a corrupt artifact out of service into `quarantine/` (same
/// filesystem, so a rename — never a copy of possibly-large garbage). The
/// bytes are kept for forensics; the object no longer resolves, so the
/// re-synthesized artifact gets written fresh. Falls back to outright
/// removal when the rename itself fails (e.g. quarantine dir uncreatable).
void quarantine_object(const std::string& disk_dir, const fs::path& path) {
  std::error_code ec;
  fs::create_directories(quarantine_dir(disk_dir), ec);
  fs::rename(path, quarantine_dir(disk_dir) / path.filename(), ec);
  if (ec) fs::remove(path, ec);
}

struct DiskArtifact {
  fs::path path;
  std::string key;  ///< object stem: the artifact's content key.
  std::uintmax_t size = 0;
  fs::file_time_type mtime;
};

/// Every finished content-addressed object the disk tier holds. In-flight
/// ".tmp.<pid>.<seq>" files are skipped: a peer process's pending write
/// must be neither counted nor evicted out from under its imminent rename.
std::pair<std::vector<DiskArtifact>, std::uintmax_t> scan_artifacts(
    const std::string& disk_dir) {
  std::vector<DiskArtifact> out;
  std::uintmax_t total = 0;
  std::error_code ec;
  // stat errors (a file GC'ed by a peer process mid-scan) skip the entry:
  // file_size(ec) reports uintmax_t(-1) on failure, which would wreck the
  // byte total.
  for (const auto& de : fs::directory_iterator(objects_dir(disk_dir), ec)) {
    if (!de.is_regular_file(ec) || de.path().extension() != ".schedbin") continue;
    const std::uintmax_t size = de.file_size(ec);
    if (ec) continue;
    out.push_back({de.path(), de.path().stem().string(), size,
                   de.last_write_time(ec)});
    total += size;
  }
  return {std::move(out), total};
}

/// Resolves a fingerprint to its artifact path ("" when absent) through its
/// ref file, which holds the 32-hex-char content key. `had_ref` reports
/// whether a ref existed — a ref without its artifact is dangling (the
/// object was GC'ed by another process) and worth cleaning.
std::string resolve_entry(const std::string& disk_dir,
                          const std::string& fingerprint, bool* had_ref) {
  const auto key = read_file(ref_path(disk_dir, fingerprint));
  const bool valid = key.has_value() && key->size() == 32;
  if (had_ref != nullptr) *had_ref = valid;
  if (!valid) return {};
  std::error_code ec;
  const fs::path obj = object_path(disk_dir, *key);
  return fs::exists(obj, ec) ? obj.string() : std::string{};
}

}  // namespace

std::string ScheduleCache::entry_path(const std::string& fingerprint) const {
  if (options_.disk_dir.empty()) return {};
  return resolve_entry(options_.disk_dir, fingerprint, nullptr);
}

std::optional<GeneratedSchedule> ScheduleCache::lookup(
    const std::string& fingerprint) {
  obs::TraceSpan span("cache.lookup");
  std::string path;
  ArtifactView view = find(fingerprint, path, span);
  std::optional<GeneratedSchedule> schedule;
  if (view.valid()) {
    // Decoded outside the mutex. Bytes that do not decode are a miss, not
    // an error. std::exception, not just Error: a truncated or foreign
    // payload can trip a length_error/bad_alloc in the decoder before the
    // CRC rejects it.
    try {
      schedule = generated_schedule_from_bytes(view.envelope);
    } catch (const std::exception&) {
      discard_corrupt(fingerprint, path);
      span.annotate("corrupt artifact quarantined");
      view = ArtifactView{};
    }
  }
  count_outcome(view, span);
  return schedule;
}

std::optional<ArtifactView> ScheduleCache::lookup_artifact(
    const std::string& fingerprint) {
  obs::TraceSpan span("cache.lookup_artifact");
  std::string path;
  ArtifactView view = find(fingerprint, path, span);
  count_outcome(view, span);
  if (!view.valid()) return std::nullopt;
  return view;
}

ArtifactView ScheduleCache::find(const std::string& fingerprint,
                                 std::string& path, obs::TraceSpan& span) {
  A2A_COUNTER("cache.lookups").inc();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.lookups;
    if (const auto it = entries_.find(fingerprint); it != entries_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      path = it->second.path;
      return it->second.view;
    }
  }
  // Disk I/O happens outside the mutex so slow work never blocks other
  // consumers' memory-tier hits.
  ArtifactView view = open_disk(fingerprint, path, span);
  if (view.valid()) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      admit_locked(fingerprint, view, path);
    }
    view.from_disk = true;
  }
  return view;
}

void ScheduleCache::count_outcome(const ArtifactView& view,
                                  obs::TraceSpan& span) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!view.valid()) {
    ++stats_.misses;
    A2A_COUNTER("cache.misses").inc();
    span.annotate("miss");
  } else if (view.from_disk) {
    ++stats_.disk_hits;
    A2A_COUNTER("cache.disk_hits").inc();
    span.annotate("disk hit");
  } else {
    ++stats_.memory_hits;
    A2A_COUNTER("cache.memory_hits").inc();
    span.annotate("memory hit");
  }
}

ArtifactView ScheduleCache::open_disk(const std::string& fingerprint,
                                      std::string& path, obs::TraceSpan& span) {
  if (options_.disk_dir.empty()) return {};
  bool had_ref = false;
  path = resolve_entry(options_.disk_dir, fingerprint, &had_ref);
  std::error_code ec;
  if (path.empty()) {
    // Dangling ref (its artifact was GC'ed by another process): drop it.
    if (had_ref) fs::remove(ref_path(options_.disk_dir, fingerprint), ec);
    return {};
  }
  try {
    auto mapping = std::make_shared<const MmapFile>(path);
    ArtifactView view = parse_schedule_envelope(mapping->view());
    // Header/trailer validation of the inner frame touches its first and
    // last pages only; chunk payloads keep their own CRCs for the eventual
    // decoder. An empty blob (a schedule with neither link nor path — never
    // produced, but representable) has nothing to check.
    if (view.blob_size > 0) {
      (void)SchedBinReader::from_bytes(view.schedbin());
    }
    view.mapping = std::move(mapping);
    // Refresh the artifact's age — but only where the GC will ever read it:
    // with an unbounded tier this would be a pointless mtime-write syscall.
    if (options_.max_disk_bytes > 0) {
      fs::last_write_time(path, fs::file_time_type::clock::now(), ec);
    }
    return view;
  } catch (const std::exception&) {
    if (fs::exists(path, ec)) {
      discard_corrupt(fingerprint, path);
      span.annotate("corrupt artifact quarantined");
    } else {
      // Not corruption: the object vanished between resolve and mmap (a
      // concurrent GC won the race). Drop the dangling ref; a clean miss.
      fs::remove(ref_path(options_.disk_dir, fingerprint), ec);
      span.annotate("lost race with disk GC");
    }
    return {};
  }
}

void ScheduleCache::discard_corrupt(const std::string& fingerprint,
                                    const std::string& path) {
  // The artifact is quarantined (kept for forensics, never served again)
  // and its ref dropped, so the caller re-synthesizes and rewrites it.
  if (!path.empty()) {
    {
      std::lock_guard<std::mutex> disk_lock(disk_mutex_);
      quarantine_object(options_.disk_dir, path);
    }
    std::error_code ec;
    fs::remove(ref_path(options_.disk_dir, fingerprint), ec);
  }
  std::lock_guard<std::mutex> lock(mutex_);
  drop_locked(fingerprint);
  ++stats_.disk_corrupt;
  A2A_COUNTER("cache.disk_corrupt").inc();
}

std::shared_ptr<const std::string> ScheduleCache::insert(
    const std::string& fingerprint, const GeneratedSchedule& schedule) {
  obs::TraceSpan span("cache.insert");
  A2A_COUNTER("cache.insertions").inc();
  auto bytes = std::make_shared<const std::string>(
      generated_schedule_to_bytes(schedule, options_.schedbin));
  {
    ArtifactView view = parse_schedule_envelope(*bytes);
    view.bytes = bytes;
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.insertions;
    admit_locked(fingerprint, std::move(view), {});
  }
  if (options_.disk_dir.empty()) return bytes;
  try {
    store_disk(fingerprint, *bytes, span);
  } catch (const std::exception& e) {
    // Disk full, read-only or a path component that is a file: the memory
    // tier already holds the entry, so only persistence is lost — never
    // the request that synthesized it.
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.disk_errors;
    A2A_COUNTER("cache.disk_errors").inc();
    span.annotate(std::string("disk error: ") + e.what());
  }
  return bytes;
}

void ScheduleCache::store_disk(const std::string& fingerprint,
                               const std::string& bytes,
                               obs::TraceSpan& span) {
  // File I/O stays outside the LRU mutex; disk_mutex_ serializes writers
  // and the GC within this process, and atomic renames keep a fleet of
  // processes safe.
  if (options_.max_disk_bytes > 0 && bytes.size() > options_.max_disk_bytes) {
    // Larger than the whole budget: writing it would only be GC'ed right
    // back (same never-admit rule as the memory tier), so skip the write
    // and count the rejection for monitoring.
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.disk_oversize_rejections;
    A2A_COUNTER("cache.disk_oversize_rejections").inc();
    span.annotate("disk oversize rejection");
    return;
  }
  const std::string key = schedule_content_key(bytes);
  std::lock_guard<std::mutex> disk_lock(disk_mutex_);
  fs::create_directories(objects_dir(options_.disk_dir));
  fs::create_directories(refs_dir(options_.disk_dir));
  const fs::path obj = object_path(options_.disk_dir, key);
  std::error_code ec;
  bool wrote = false;
  // Content-addressed sharing: another fingerprint (or an earlier pipeline
  // invocation) may already have produced this exact artifact. Verify the
  // bytes before trusting it — a corrupt object would otherwise be
  // poisoned forever, since every recompile-and-reinsert would dedup
  // against the same bad file while every lookup keeps missing on it.
  if (const auto existing = read_file(obj); existing == bytes) {
    fs::last_write_time(obj, fs::file_time_type::clock::now(), ec);
  } else {
    write_file_atomic(obj.string(), bytes);
    wrote = true;
  }
  write_file_atomic(ref_path(options_.disk_dir, fingerprint).string(), key);
  if (options_.max_disk_bytes > 0) {
    // Maintain the running total instead of walking the directory per
    // insert: seed it with one scan, then only GC (which rescans exactly)
    // when the total crosses the budget.
    if (disk_total_ < 0) {
      disk_total_ =
          static_cast<std::int64_t>(scan_artifacts(options_.disk_dir).second);
    } else if (wrote) {
      disk_total_ += static_cast<std::int64_t>(bytes.size());
    }
    if (disk_total_ > static_cast<std::int64_t>(options_.max_disk_bytes)) {
      gc_disk();
    }
  }
  if (disk_total_ >= 0) A2A_GAUGE("cache.disk_bytes").set(disk_total_);
  std::lock_guard<std::mutex> lock(mutex_);
  if (wrote) {
    ++stats_.disk_writes;
    A2A_COUNTER("cache.disk_writes").inc();
  } else {
    ++stats_.disk_dedups;
    A2A_COUNTER("cache.disk_dedups").inc();
    span.annotate("disk dedup");
  }
}

void ScheduleCache::gc_disk() {
  // Reap orphaned temp files first: a writer killed between its ofstream
  // write and the rename leaks an artifact-sized ".tmp.<pid>.<seq>" file
  // that scan_artifacts deliberately ignores. Age-gate the reap so a live
  // peer's in-flight write is never yanked from under its rename.
  {
    const auto cutoff =
        fs::file_time_type::clock::now() - std::chrono::hours(1);
    std::error_code ec;
    for (const fs::path& dir :
         {objects_dir(options_.disk_dir), refs_dir(options_.disk_dir)}) {
      for (const auto& de : fs::directory_iterator(dir, ec)) {
        if (!de.is_regular_file(ec)) continue;
        if (de.path().filename().string().find(".tmp.") == std::string::npos) {
          continue;
        }
        if (de.last_write_time(ec) < cutoff) fs::remove(de.path(), ec);
      }
    }
  }
  auto [artifacts, total] = scan_artifacts(options_.disk_dir);
  disk_total_ = static_cast<std::int64_t>(total);
  if (total <= options_.max_disk_bytes) return;
  // Refcount pass: refs pointing at a victim are removed with it, so a
  // later lookup cleanly misses instead of chasing a dangling pointer.
  std::error_code ec;
  std::unordered_map<std::string, std::vector<fs::path>> refs_by_key;
  for (const auto& de : fs::directory_iterator(refs_dir(options_.disk_dir), ec)) {
    if (!de.is_regular_file(ec)) continue;
    if (const auto key = read_file(de.path()); key.has_value()) {
      refs_by_key[*key].push_back(de.path());
    }
  }
  std::sort(artifacts.begin(), artifacts.end(),
            [](const DiskArtifact& a, const DiskArtifact& b) {
              return a.mtime < b.mtime;
            });
  std::uint64_t evicted = 0;
  for (const DiskArtifact& victim : artifacts) {
    if (total <= options_.max_disk_bytes) break;
    fs::remove(victim.path, ec);
    for (const fs::path& ref : refs_by_key[victim.key]) fs::remove(ref, ec);
    total -= victim.size;
    ++evicted;
  }
  disk_total_ = static_cast<std::int64_t>(total);
  A2A_COUNTER("cache.gc_runs").inc();
  A2A_COUNTER("cache.disk_evictions").add(evicted);
  A2A_GAUGE("cache.disk_bytes").set(disk_total_);
  std::lock_guard<std::mutex> lock(mutex_);
  stats_.disk_evictions += evicted;
}

std::size_t ScheduleCache::disk_object_count() const {
  if (options_.disk_dir.empty()) return 0;
  std::lock_guard<std::mutex> disk_lock(disk_mutex_);
  return scan_artifacts(options_.disk_dir).first.size();
}

std::size_t ScheduleCache::disk_bytes() const {
  if (options_.disk_dir.empty()) return 0;
  std::lock_guard<std::mutex> disk_lock(disk_mutex_);
  return static_cast<std::size_t>(scan_artifacts(options_.disk_dir).second);
}

ScheduleCacheStats ScheduleCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::size_t ScheduleCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

std::size_t ScheduleCache::memory_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return memory_bytes_;
}

void ScheduleCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
  lru_.clear();
  memory_bytes_ = 0;
  A2A_GAUGE("cache.memory_bytes").set(0);
}

void ScheduleCache::admit_locked(const std::string& fingerprint,
                                 ArtifactView view, std::string path) {
  // max_memory_bytes == 0 disables the memory tier outright. Without this
  // gate every insert and every disk hit would be admitted and then
  // immediately evicted by the budget sweep below (pure churn).
  if (options_.max_memory_bytes == 0) return;
  // Replace any previous version, so a hit cannot serve outdated data.
  drop_locked(fingerprint);
  const std::size_t bytes = view.envelope.size();
  // Larger than the whole budget: can never be resident.
  if (bytes <= options_.max_memory_bytes) {
    lru_.push_front(fingerprint);
    entries_.emplace(fingerprint,
                     Entry{std::move(view), std::move(path), lru_.begin()});
    memory_bytes_ += bytes;
  }
  evict_over_budget_locked();
}

void ScheduleCache::drop_locked(const std::string& fingerprint) {
  const auto it = entries_.find(fingerprint);
  if (it == entries_.end()) return;
  memory_bytes_ -= it->second.view.envelope.size();
  lru_.erase(it->second.lru_it);
  entries_.erase(it);
  A2A_GAUGE("cache.memory_bytes").set(static_cast<std::int64_t>(memory_bytes_));
}

void ScheduleCache::evict_over_budget_locked() {
  while (memory_bytes_ > options_.max_memory_bytes) {
    const auto it = entries_.find(lru_.back());
    memory_bytes_ -= it->second.view.envelope.size();
    entries_.erase(it);
    lru_.pop_back();
    ++stats_.memory_evictions;
    A2A_COUNTER("cache.memory_evictions").inc();
  }
  A2A_GAUGE("cache.memory_bytes")
      .set(static_cast<std::int64_t>(memory_bytes_));
}

}  // namespace a2a
