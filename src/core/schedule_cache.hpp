// Schedule cache — memoizes generate_schedule() results.
//
// Compiling a schedule runs the LP/MCF pipeline, which is seconds-to-minutes
// at Fig. 10 scale; at production scale the same (topology, fabric, options)
// triple is requested over and over by many consumers. The cache keys
// results by a fingerprint of the request's canonical form and serves them
// from two tiers:
//
//   * an in-memory LRU, the process's only store of served schedules. Each
//     entry holds one form of a schedule, its artifact: an ArtifactView over
//     the heap envelope insert() wrote, or over the mmap of a disk object a
//     lookup promoted. It is charged its envelope bytes, the unit the disk
//     tier counts too, against one byte budget (schedules vary by 1000x in
//     size; counting entries lets a handful of Fig. 10 monsters blow the
//     heap). lookup_artifact() serves the bytes and lookup() decodes them;
//     both share one memory -> disk -> miss path.
//   * an optional on-disk tier of SchedBin-based entry files, so a fleet of
//     processes (or a restarted one) shares compiled artifacts. Disk
//     entries are content-addressed: the artifact file is keyed by a hash
//     of its payload and request fingerprints are small ref files pointing
//     at it, so identical schedules produced under different pipeline
//     invocations (or different request options that happen to compile to
//     the same schedule) share one artifact. A file-size byte budget
//     garbage-collects the oldest artifacts and their refs. A failed disk
//     write costs persistence only: the entry is still served from memory.
//
// All operations are thread-safe; hit/miss counters expose the behaviour to
// tests and monitoring.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "common/mmap_file.hpp"
#include "container/schedbin.hpp"
#include "core/api.hpp"

namespace a2a {

namespace obs {
class TraceSpan;
}  // namespace obs

struct ScheduleCacheOptions {
  /// Byte budget for the in-memory LRU tier. An entry is charged its
  /// envelope bytes. 0 disables the memory tier: every lookup goes to the
  /// disk tier (when configured) and nothing is retained in memory — useful
  /// for memory-constrained fleets sharing a disk cache. An entry larger
  /// than the whole budget is never admitted.
  std::size_t max_memory_bytes = 256ULL << 20;
  /// Directory for the on-disk tier ("" disables it). Created on first use;
  /// holds `objects/` (content-addressed artifacts) and `refs/`
  /// (fingerprint -> artifact pointers).
  std::string disk_dir;
  /// Byte budget for the disk tier, accounted in artifact file size.
  /// 0 = unbounded (the disk tier is enabled/disabled by disk_dir alone).
  /// When exceeded after a write, the oldest artifacts and every ref
  /// pointing at them are garbage-collected; an artifact alone larger than
  /// the whole budget is never written.
  std::size_t max_disk_bytes = 0;
  /// Container settings for on-disk entries.
  SchedBinOptions schedbin;
};

struct ScheduleCacheStats {
  std::uint64_t lookups = 0;
  std::uint64_t memory_hits = 0;
  std::uint64_t disk_hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t disk_writes = 0;
  /// Inserts whose artifact already existed on disk under another
  /// fingerprint (content-addressed sharing), so no bytes were written.
  std::uint64_t disk_dedups = 0;
  std::uint64_t memory_evictions = 0;
  /// Artifacts removed by the disk byte-budget GC.
  std::uint64_t disk_evictions = 0;
  /// Inserts skipped because the artifact alone exceeds max_disk_bytes
  /// (writing it would be evicted right back — pure churn).
  std::uint64_t disk_oversize_rejections = 0;
  /// Disk artifacts that failed to decode on lookup (truncated write,
  /// bit-rot, foreign bytes). Each is moved into `<disk_dir>/quarantine/`
  /// — preserved for forensics, never served again — its ref dropped, and
  /// the lookup degrades to a miss so the caller re-synthesizes.
  std::uint64_t disk_corrupt = 0;
  /// Inserts whose disk write failed (disk full, read-only or missing
  /// directory). The entry is still served from the memory tier.
  std::uint64_t disk_errors = 0;

  [[nodiscard]] std::uint64_t hits() const { return memory_hits + disk_hits; }
};

/// Fingerprint of a generate_schedule() request: a 128-bit hash (32 hex
/// chars) over the topology's canonical form (node count + sorted edge list
/// with capacities), every fabric field, and every semantically relevant
/// ToolchainOptions field. The core count is not an input: the decomposed
/// solve's child loop gives bit-identical results on one thread or across
/// the shared pool.
[[nodiscard]] std::string schedule_fingerprint(const DiGraph& topology,
                                               const Fabric& fabric,
                                               const ToolchainOptions& options);

/// A served schedule artifact in its on-disk envelope form, without any
/// decode: the envelope header fields plus the byte range of the inner
/// SchedBin frame. The bytes live either in an mmap'd disk object
/// (`mapping`) or a heap buffer (`bytes`) — exactly one owner is set and
/// `envelope` views into it. This is the zero-copy serving currency of the
/// schedule service: a transport can write schedbin() straight from the
/// page cache to a socket, and the client's SchedBinReader decodes chunks
/// on demand with per-chunk CRCs.
struct ArtifactView {
  std::shared_ptr<const MmapFile> mapping;     ///< a disk object's pages.
  std::shared_ptr<const std::string> bytes;    ///< the envelope insert() wrote.
  std::string_view envelope;                   ///< the whole SBCE envelope.
  std::size_t blob_offset = 0;                 ///< inner SchedBin frame start.
  std::size_t blob_size = 0;
  ScheduleKind kind = ScheduleKind::kLinkUnrolled;
  double concurrent_flow = 0.0;
  int vc_layers = 0;
  /// Set by a lookup that opened the disk object; false for memory-tier
  /// hits.
  bool from_disk = false;

  [[nodiscard]] std::string_view schedbin() const {
    return envelope.substr(blob_offset, blob_size);
  }
  [[nodiscard]] bool valid() const { return !envelope.empty(); }
};

/// Parses an envelope's metadata fields and locates the inner SchedBin
/// frame WITHOUT decoding the schedule and without the whole-envelope CRC
/// sweep (which would fault every mmap'd page — the opposite of zero-copy).
/// Structural lies (truncated sections, lengths past the end) still throw;
/// payload integrity is the inner frame's job: callers validate its
/// header/trailer CRCs via SchedBinReader and every chunk carries its own
/// CRC-32 checked at decode time. `mapping`/`bytes` of the result are left
/// null — the caller owns the envelope's storage.
[[nodiscard]] ArtifactView parse_schedule_envelope(std::string_view envelope);

class ScheduleCache {
 public:
  explicit ScheduleCache(ScheduleCacheOptions options = {});

  ScheduleCache(const ScheduleCache&) = delete;
  ScheduleCache& operator=(const ScheduleCache&) = delete;

  /// Returns the cached schedule for `fingerprint`: lookup_artifact()'s
  /// memory -> disk path, then a decode of the artifact's bytes outside the
  /// mutex, on every call. An entry that fails to decode is evicted, its
  /// disk object quarantined, and the call counts a miss.
  [[nodiscard]] std::optional<GeneratedSchedule> lookup(
      const std::string& fingerprint);

  /// Zero-copy lookup: the memory tier's view, or else the disk artifact
  /// mmap'd with its inner SchedBin frame's header/trailer validated (a few
  /// pages, not the whole file) and promoted into the memory tier — never a
  /// decode, so the hot serving path never pays one. A corrupt artifact is
  /// quarantined and the call degrades to a miss. Counts into the same
  /// lookup/hit/miss stats as lookup().
  [[nodiscard]] std::optional<ArtifactView> lookup_artifact(
      const std::string& fingerprint);

  /// Stores the serialized envelope of `schedule` in the memory tier
  /// (evicting LRU entries past the byte budget) and, when a disk_dir is
  /// configured, writes (or dedups against) the content-addressed artifact
  /// and its ref file; a failed write is counted in disk_errors, never
  /// thrown. Returns the envelope so callers that serve bytes (the
  /// ScheduleBroker) reuse the exact artifact stored instead of re-encoding.
  std::shared_ptr<const std::string> insert(const std::string& fingerprint,
                                            const GeneratedSchedule& schedule);

  [[nodiscard]] ScheduleCacheStats stats() const;
  [[nodiscard]] std::size_t size() const;
  /// Bytes the memory tier is charged for: its resident envelopes.
  [[nodiscard]] std::size_t memory_bytes() const;
  void clear();  ///< drops the memory tier only; disk entries persist.

  /// Path of the disk artifact a fingerprint currently resolves to (""
  /// when the disk tier is disabled or the fingerprint has no entry).
  [[nodiscard]] std::string entry_path(const std::string& fingerprint) const;
  /// Content-addressed objects the disk tier currently holds and their
  /// total size. Exposed for tests and monitoring.
  [[nodiscard]] std::size_t disk_object_count() const;
  [[nodiscard]] std::size_t disk_bytes() const;

 private:
  /// The memory -> disk path lookup() and lookup_artifact() share: the
  /// memory tier's view, or else the disk object mapped and promoted into
  /// the memory tier; an invalid view on a miss. `path` names the disk
  /// object the view maps ("" for a heap envelope). Counts the lookup but
  /// not its outcome: the caller counts that with count_outcome().
  ArtifactView find(const std::string& fingerprint, std::string& path,
                    obs::TraceSpan& span);
  /// Counts a hit on the tier `view` came from, or a miss when it is invalid.
  void count_outcome(const ArtifactView& view, obs::TraceSpan& span);
  /// Maps the disk object `fingerprint` resolves to (`path` names it), or
  /// returns an invalid view. Drops dangling refs and quarantines corrupt
  /// objects.
  ArtifactView open_disk(const std::string& fingerprint, std::string& path,
                         obs::TraceSpan& span);
  /// Evicts `fingerprint` and quarantines the disk object at `path` (if
  /// any) after its bytes failed to decode.
  void discard_corrupt(const std::string& fingerprint, const std::string& path);
  /// Writes the artifact and its ref; throws on I/O failure.
  void store_disk(const std::string& fingerprint, const std::string& bytes,
                  obs::TraceSpan& span);
  void admit_locked(const std::string& fingerprint, ArtifactView view,
                    std::string path);
  void drop_locked(const std::string& fingerprint);
  void evict_over_budget_locked();
  void gc_disk();  ///< enforces max_disk_bytes; caller holds disk_mutex_.

  ScheduleCacheOptions options_;
  mutable std::mutex mutex_;
  /// MRU-first list of fingerprints plus value map (classic LRU pairing).
  std::list<std::string> lru_;
  struct Entry {
    ArtifactView view;  ///< charged view.envelope.size() bytes.
    std::string path;   ///< disk object `view` maps; "" for heap envelopes.
    std::list<std::string>::iterator lru_it;
  };
  std::unordered_map<std::string, Entry> entries_;
  std::size_t memory_bytes_ = 0;
  ScheduleCacheStats stats_;
  /// Serializes disk writes + GC + directory scans (artifact reads stay
  /// lock-free; a read racing a GC deletion degrades to a miss). mutable:
  /// the const observers disk_object_count()/disk_bytes() scan under it —
  /// unprotected they would race a concurrent GC's renames and count
  /// vanished files as size -1.
  mutable std::mutex disk_mutex_;
  /// Running artifact-byte total, seeded by one scan on the first
  /// budgeted insert and maintained incrementally so inserts do not pay an
  /// O(artifacts) directory walk while under budget. Other processes'
  /// writes drift it low; every GC pass rescans and corrects. Guarded by
  /// disk_mutex_. -1 = not yet seeded.
  std::int64_t disk_total_ = -1;
};

/// Serializes a GeneratedSchedule to the cache's disk-entry envelope: a
/// small metadata block (kind, flow, VC layers, terminals, schedule graph,
/// notes) wrapping the SchedBin blob of the schedule, CRC-32 guarded.
/// Exposed for tests and offline tooling.
[[nodiscard]] std::string generated_schedule_to_bytes(
    const GeneratedSchedule& schedule, const SchedBinOptions& options = {});
[[nodiscard]] GeneratedSchedule generated_schedule_from_bytes(
    std::string_view bytes);

}  // namespace a2a
