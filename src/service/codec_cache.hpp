// Codec cache: wire CodecRef -> built code, with single-flight
// construction.
//
// Building a QCLdpcCode expands the full Tanner graph (adjacency, edge
// numbering) — milliseconds of work and megabytes of state for the big
// codes. A thundering herd of new tenants all naming the same (standard,
// rate, z) must pay that cost once: the first requester builds while later
// requesters wait on the same entry (coalesced), and a failed build is
// reported to every waiter without poisoning the cache (the next request
// retries). Decoders are not cached here: each engine worker builds its
// own per codec (the service's WorkerDecoderCache), so a decoder never
// migrates between threads.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "codes/qc_code.hpp"
#include "service/wire.hpp"
#include "util/thread_annotations.hpp"

namespace ldpc::service {

/// One resolved codec: the built code, shared by every decoder built for
/// it (stable address: decoders borrow it).
class CodecEntry {
 public:
  CodecEntry(CodecRef ref, std::unique_ptr<QCLdpcCode> code)
      : ref_(ref), code_(std::move(code)) {}

  const CodecRef& ref() const { return ref_; }
  const QCLdpcCode& code() const { return *code_; }

 private:
  CodecRef ref_;
  std::unique_ptr<QCLdpcCode> code_;
};

struct CodecCacheStats {
  std::size_t hits = 0;
  std::size_t misses = 0;           ///< entries actually built
  std::size_t coalesced_waits = 0;  ///< requests that waited on another build
  std::size_t unknown_codecs = 0;
  std::size_t entries = 0;
};

/// The cache itself. Thread-safe; every public method may be called from
/// any thread.
class CodecCache {
 public:
  /// Resolve a wire codec reference. Returns nullptr and sets *error to
  /// kUnknownCodec when (standard, rate, z) names no bundled code; never
  /// throws on wire-derived values.
  std::shared_ptr<CodecEntry> resolve(const CodecRef& ref,
                                      WireErrorCode* error)
      LDPC_EXCLUDES(mutex_);

  CodecCacheStats stats() const LDPC_EXCLUDES(mutex_);

  /// Every CodecRef the cache can build (the service's advertised code
  /// table set; tests and the load generator enumerate it).
  static std::vector<CodecRef> all_known_codecs();

 private:
  /// Single-flight slot: holds the build state one herd coalesces on.
  /// Lock order: a slot's mutex is acquired first, the cache-wide mutex_
  /// (stats) nests inside it; no path holds a slot mutex while taking
  /// another slot's.
  struct Slot {
    Mutex mutex;
    std::condition_variable ready;
    bool building LDPC_GUARDED_BY(mutex) = false;
    bool done LDPC_GUARDED_BY(mutex) = false;
    /// Null after a failed build.
    std::shared_ptr<CodecEntry> entry LDPC_GUARDED_BY(mutex);
  };

  /// Build the code named by `ref`, or nullptr for unknown refs.
  static std::unique_ptr<QCLdpcCode> build_code(const CodecRef& ref);

  mutable Mutex mutex_;
  std::map<CodecRef, std::shared_ptr<Slot>> slots_ LDPC_GUARDED_BY(mutex_);
  CodecCacheStats stats_ LDPC_GUARDED_BY(mutex_);
};

}  // namespace ldpc::service
