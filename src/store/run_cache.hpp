#pragma once
// RunCache — content-addressed memoization over a RunStore.
//
// Design-flow tuners (FlowTune, FIST, the paper's Fig. 5-7 searches) revisit
// overlapping knob configurations constantly; because the maestro substrate
// is deterministic in (design, knobs, seed), a run's fingerprint fully
// determines its result. The cache is the in-memory index of every StoredRun
// in the backing store: lookups are O(1), inserts append to the store's WAL,
// and a second campaign against the same MAESTRO_STORE answers duplicate
// runs without dispatching them (exec::RunExecutor::submit consults the
// cache before queueing).
//
// FlowCache is the seam the schedulers program against: RunCache is the
// local, store-backed implementation; store::RemoteRunCache adds a shared
// cache-server tier in front of it with graceful degradation. Either plugs
// into MabOptions/FtsOptions/TuneOptions unchanged.
//
// Hit/miss traffic is observable as the store.cache_hit / store.cache_miss
// counters in obs::Registry::global().

#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "store/run_store.hpp"

namespace maestro::store {

/// Abstract memoization tier: fingerprint -> FlowResult. Implementations
/// must be thread-safe and must always accept inserts (degraded tiers fall
/// back internally rather than dropping results).
class FlowCache {
 public:
  virtual ~FlowCache() = default;
  virtual std::optional<flow::FlowResult> lookup(std::uint64_t fingerprint) = 0;
  virtual void insert(std::uint64_t fingerprint, const RunKey& key,
                      const flow::FlowResult& result) = 0;
};

class RunCache : public FlowCache {
 public:
  /// Indexes every run already in the store. Later inserts keep store and
  /// index in sync; runs appended to the store behind the cache's back are
  /// picked up by reindex() (e.g. after RunStore::refresh()).
  explicit RunCache(RunStore& store);

  RunCache(const RunCache&) = delete;
  RunCache& operator=(const RunCache&) = delete;

  /// The memoized result, or nullopt. Counts store.cache_hit / _miss.
  std::optional<flow::FlowResult> lookup(std::uint64_t fingerprint) override;
  /// Memoize a result: appends to the backing store and indexes it.
  void insert(std::uint64_t fingerprint, const RunKey& key,
              const flow::FlowResult& result) override;

  /// Re-index runs that reached the backing store behind the cache's back
  /// (another process's appends surfaced by RunStore::refresh()). Returns
  /// the number of newly indexed fingerprints.
  std::size_t reindex();

  std::size_t size() const;
  RunStore& backing_store() { return *store_; }

 private:
  RunStore* store_;
  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, flow::FlowResult> index_;
};

/// A cheap copyable handle binding one run's key (and its fingerprint) to a
/// cache — the `memo` argument RunExecutor::submit consumes. It is copied
/// into the pooled task, so it must stay valid by value; the FlowCache
/// itself must outlive the pool.
class KeyedRunCache {
 public:
  KeyedRunCache(FlowCache& cache, RunKey key)
      : cache_(&cache),
        key_(std::make_shared<RunKey>(std::move(key))),
        fingerprint_(key_->fingerprint()) {}

  std::uint64_t fingerprint() const { return fingerprint_; }
  std::optional<flow::FlowResult> lookup(std::uint64_t fingerprint) const {
    return cache_->lookup(fingerprint);
  }
  void insert(std::uint64_t fingerprint, const flow::FlowResult& result) const {
    cache_->insert(fingerprint, *key_, result);
  }

 private:
  FlowCache* cache_;
  std::shared_ptr<const RunKey> key_;
  std::uint64_t fingerprint_;
};

}  // namespace maestro::store
