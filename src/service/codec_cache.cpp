#include "service/codec_cache.hpp"

#include <algorithm>

#include "codes/registry.hpp"
#include "codes/wifi.hpp"
#include "codes/wimax.hpp"
#include "util/check.hpp"

namespace ldpc::service {

std::unique_ptr<QCLdpcCode> CodecCache::build_code(const CodecRef& ref) {
  switch (static_cast<CodeStandard>(ref.standard)) {
    case CodeStandard::kWimax: {
      const auto& rates = all_wimax_rates();
      if (ref.rate >= rates.size()) return nullptr;
      const auto& zs = wimax_z_values();
      if (std::find(zs.begin(), zs.end(), static_cast<int>(ref.z)) == zs.end())
        return nullptr;
      return std::make_unique<QCLdpcCode>(
          make_wimax_code(rates[ref.rate], static_cast<int>(ref.z)));
    }
    case CodeStandard::kWifi: {
      if (ref.rate != 0) return nullptr;
      if (ref.z == 27)
        return std::make_unique<QCLdpcCode>(make_wifi_648_half_rate());
      if (ref.z == 81)
        return std::make_unique<QCLdpcCode>(make_wifi_1944_half_rate());
      return nullptr;
    }
    case CodeStandard::kRegistry: {
      const auto& names = external_code_names();
      if (ref.rate >= names.size() || ref.z != 1) return nullptr;
      // external_code() runs the alist import path and caches the result
      // for the process lifetime; copy into an entry-owned code so the
      // cache's ownership story is uniform across standards.
      return std::make_unique<QCLdpcCode>(external_code(names[ref.rate]));
    }
  }
  return nullptr;
}

std::shared_ptr<CodecEntry> CodecCache::resolve(const CodecRef& ref,
                                                WireErrorCode* error) {
  *error = WireErrorCode::kNone;
  std::shared_ptr<Slot> slot;
  bool builder = false;
  {
    const MutexLock lock(mutex_);
    auto& mapped = slots_[ref];
    if (!mapped) {
      mapped = std::make_shared<Slot>();
      // Claimed before the slot is visible to any other thread (they all
      // reach it through this map mutex), so exactly one builder exists.
      mapped->building = true;
      builder = true;
      ++stats_.misses;
    }
    slot = mapped;
  }

  if (!builder) {
    MutexLock lock(slot->mutex);
    if (slot->done) {
      // Fast path; also the retry path after a failed build (entry null).
      if (slot->entry) {
        const MutexLock stats_lock(mutex_);
        ++stats_.hits;
        return slot->entry;
      }
    } else if (slot->building) {
      {
        const MutexLock stats_lock(mutex_);
        ++stats_.coalesced_waits;
      }
      while (!slot->done) lock.wait(slot->ready);
      if (slot->entry) return slot->entry;
    }
    // Build failed (or a previous failure is cached as done-without-entry):
    // this thread retries the build under the slot's building flag.
    if (slot->building) {
      // Another retrier got there first; wait for its verdict.
      while (!slot->done || slot->building) lock.wait(slot->ready);
      if (slot->entry) return slot->entry;
      *error = WireErrorCode::kUnknownCodec;
      return nullptr;
    }
    slot->building = true;
    slot->done = false;
  }

  // Single-flight build, outside every lock: expanding a 2304-bit code or
  // re-importing a registry alist must not stall unrelated codecs.
  std::shared_ptr<CodecEntry> entry;
  std::unique_ptr<QCLdpcCode> code = build_code(ref);
  if (code) entry = std::make_shared<CodecEntry>(ref, std::move(code));
  {
    const MutexLock lock(slot->mutex);
    slot->entry = entry;
    slot->building = false;
    slot->done = true;
  }
  slot->ready.notify_all();
  if (!entry) {
    const MutexLock lock(mutex_);
    ++stats_.unknown_codecs;
    *error = WireErrorCode::kUnknownCodec;
  }
  return entry;
}

CodecCacheStats CodecCache::stats() const {
  const MutexLock lock(mutex_);
  CodecCacheStats s = stats_;
  s.entries = slots_.size();
  return s;
}

std::vector<CodecRef> CodecCache::all_known_codecs() {
  std::vector<CodecRef> refs;
  const auto& rates = all_wimax_rates();
  for (std::size_t r = 0; r < rates.size(); ++r)
    for (const int z : wimax_z_values())
      refs.push_back({static_cast<std::uint8_t>(CodeStandard::kWimax),
                      static_cast<std::uint8_t>(r),
                      static_cast<std::uint16_t>(z)});
  for (const std::uint16_t z : {std::uint16_t{27}, std::uint16_t{81}})
    refs.push_back({static_cast<std::uint8_t>(CodeStandard::kWifi), 0, z});
  for (std::size_t i = 0; i < external_code_names().size(); ++i)
    refs.push_back({static_cast<std::uint8_t>(CodeStandard::kRegistry),
                    static_cast<std::uint8_t>(i), 1});
  return refs;
}

}  // namespace ldpc::service
