//===- CompileCache.h - Content-addressed compiled-model cache --*- C++-*-===//
//
// Caches compiled artifacts under a content hash of everything that can
// change the compile output: the EasyML source text, the full engine
// configuration, the pass pipeline string and the artifact format version.
// Any edit to any of those produces a different key, so invalidation is
// automatic — there is no staleness to manage.
//
// Two tiers:
//  * an in-process memory tier (serialized bytes, mutex-protected), which
//    makes repeated compiles of the same (model, config) in one run free;
//  * an optional on-disk tier under $LIMPET_CACHE_DIR, which makes *warm
//    process starts* skip codegen entirely (the paper's "compile once"
//    amortization, NMODL-style). Disk entries are ordinary artifact files,
//    written atomically; a corrupt or truncated file is counted, ignored
//    and overwritten by the next store.
//
// The disk tier is bounded: when $LIMPET_CACHE_MAX_BYTES (or the explicit
// override) is set, every disk store evicts least-recently-used entries —
// oldest mtime first — until the tier fits the budget. Concurrent writers
// are safe by construction: each store writes a uniquely named temp file
// and renames (writeFileAtomic), so the last rename wins with a complete
// file and a concurrent GC at worst deletes an entry the next compile
// recreates.
//
//===----------------------------------------------------------------------===//

#ifndef LIMPET_COMPILER_COMPILECACHE_H
#define LIMPET_COMPILER_COMPILECACHE_H

#include "compiler/Artifact.h"

#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

namespace limpet {
namespace compiler {

/// The cache key for compiling \p Source under \p Cfg: FNV-1a 64 chained
/// over the source text, every EngineConfig field (including the pipeline
/// string) and kArtifactFormatVersion.
uint64_t compileCacheKey(std::string_view Source,
                         const exec::EngineConfig &Cfg);

class CompileCache {
public:
  /// The process-wide cache (thread-safe).
  static CompileCache &global();

  /// Looks \p Key up in the memory tier, then (when a disk directory is
  /// configured) the disk tier; a disk hit is promoted into memory and
  /// reported through \p FromDisk when non-null.
  /// Telemetry: compile.cache.hit / compile.cache.disk_hit /
  /// compile.cache.miss / compile.cache.bad (unreadable disk entry).
  std::optional<Artifact> lookup(uint64_t Key, bool *FromDisk = nullptr);

  /// Stores \p A under \p Key in the memory tier and (when configured)
  /// the disk tier. Telemetry: compile.cache.store, or
  /// compile.cache.store_failed when the disk write fails (the memory
  /// tier still holds the entry).
  void store(uint64_t Key, const Artifact &A);

  /// Drops every memory-tier entry (tests; disk entries are untouched).
  void clearMemory();

  /// Number of memory-tier entries.
  size_t memorySize();

  /// The disk tier directory: the LIMPET_CACHE_DIR environment variable,
  /// or the explicit override set by setDiskDir. Empty = disk tier off.
  std::string diskDir();

  /// Overrides (or, with "", disables) the disk directory for this
  /// process, taking precedence over the environment. Used by tests and
  /// by tools that take a --cache-dir flag.
  void setDiskDir(std::string Dir);

  /// The disk file path an entry for \p Key would use ("" when the disk
  /// tier is off).
  std::string diskPath(uint64_t Key);

  /// The disk-tier byte budget: the LIMPET_CACHE_MAX_BYTES environment
  /// variable, else 0 (= unbounded).
  uint64_t diskBudget();

  /// What one garbage-collection pass over the disk tier did.
  struct GcStats {
    uint64_t BytesBefore = 0; ///< .lmpa bytes found in the directory
    uint64_t BytesAfter = 0;  ///< bytes remaining after eviction
    size_t FilesRemoved = 0;
  };

  /// Evicts least-recently-used disk entries (oldest mtime first) until
  /// the tier fits \p MaxBytes (0 = no limit, a no-op scan). Runs
  /// automatically after each disk store when a budget is configured.
  /// Telemetry: compile.cache.evict per removed file.
  GcStats gcDiskTier(uint64_t MaxBytes);

private:
  std::mutex Mu;
  std::unordered_map<uint64_t, std::string> Memory; ///< serialized bytes
  std::optional<std::string> DiskOverride;
};

} // namespace compiler
} // namespace limpet

#endif // LIMPET_COMPILER_COMPILECACHE_H
