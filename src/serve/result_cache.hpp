/// \file
/// ResultCache: sharded LRU cache of completed full-distance rows with
/// single-flight deduplication of concurrent misses.
///
/// Millions of clients concentrate their queries on few sources (hub
/// airports, trending accounts). Radius-Stepping makes ONE query fast;
/// the cache makes the Nth query from the same source O(|targets|): a
/// completed full-distance row is kept keyed by (source, engine,
/// graph_epoch), and any later targeted request for that key is answered
/// by projecting the requested entries straight out of the row — no
/// engine run, no O(n) work, and (with a warm response) no heap
/// allocation.
///
/// Keying rules:
///  * `source` — rows are per-source by construction.
///  * `engine` — all engines produce bit-identical distances, but
///    RunStats differ per engine and callers compare them; keying on the
///    engine keeps a cached response bit-identical to the computed one.
///  * `graph_epoch` — SsspEngine::graph_epoch() at compute time. A graph
///    swap bumps the epoch, so every old row silently stops matching; the
///    stale entries are reclaimed by LRU pressure or purge_stale().
///
/// Single-flight: when a burst of requests misses the same key at once,
/// exactly one caller becomes the OWNER (computes the row) and the rest
/// become WAITERS on a shared future — one computation, N waiters,
/// instead of N identical engine runs. The owner MUST call fulfill() or
/// fail(); a forgotten in-flight entry would park its waiters forever.
///
/// Concurrency: keys hash onto independent shards, each a mutex + hash
/// map + intrusive LRU list of READY entries. A hit is a find + list
/// splice (allocation-free) under one shard lock. In-flight entries live
/// in the map but not in the LRU list and never count against capacity;
/// clear() and purge_stale() only touch ready entries, so a waiter's
/// future is never invalidated from under it.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/engine.hpp"
#include "core/request.hpp"
#include "core/stats.hpp"
#include "graph/types.hpp"

namespace rs::serve {

/// Sizing knobs for ResultCache.
struct ResultCacheOptions {
  /// Number of independent shards (rounded up to at least 1). More shards
  /// = less lock contention; capacity scales with the shard count.
  std::size_t shards = 8;
  /// Ready rows kept per shard (LRU eviction beyond it). Memory budget is
  /// roughly shards * capacity_per_shard * n * sizeof(Dist) when full.
  std::size_t capacity_per_shard = 64;
};

/// One completed full-distance row, immutable once published. Shared
/// ownership: an evicted row stays alive while any reader still holds it.
struct CachedRow {
  Vertex source = kNoVertex;      ///< The row's SSSP source.
  std::uint64_t graph_epoch = 0;  ///< Epoch the row was computed against.
  std::vector<Dist> dist;  ///< Full distance vector of the computing run.
  RunStats stats;          ///< The computing run's stats (engine-specific).
};
/// Shared handle to an immutable cached row.
using RowPtr = std::shared_ptr<const CachedRow>;

/// What a cached row is keyed by; see the file comment for the rules.
struct CacheKey {
  Vertex source = kNoVertex;                ///< Row source.
  QueryEngine engine = QueryEngine::kFlat;  ///< Engine that computed it.
  std::uint64_t graph_epoch = 0;            ///< Preprocessing generation.

  /// Field-wise equality.
  bool operator==(const CacheKey& o) const {
    return source == o.source && engine == o.engine &&
           graph_epoch == o.graph_epoch;
  }
};

/// Builds the cache key a request resolves to against `engine` right now.
inline CacheKey key_for(const SsspEngine& engine, const QueryRequest& req) {
  return CacheKey{req.source, req.engine, engine.graph_epoch()};
}

/// True when a request can be answered from / admitted into the cache:
/// kTargets without paths (both the targeted projection and the full
/// vector come straight from the row). Path expansion and top-k extraction
/// need engine machinery, so those requests bypass the cache.
inline bool cache_eligible(const QueryRequest& req) {
  return req.kind == RequestKind::kTargets && !req.want_paths;
}

/// Monotonic counters; snapshot via ResultCache::stats().
struct ResultCacheStats {
  std::uint64_t hits = 0;                 ///< Ready-row acquisitions.
  std::uint64_t misses = 0;               ///< Owner acquisitions.
  std::uint64_t single_flight_waits = 0;  ///< Waiter acquisitions.
  std::uint64_t evictions = 0;            ///< LRU evictions of ready rows.

  /// hits / (hits + misses + waits); 0 when nothing was acquired yet.
  double hit_rate() const {
    const std::uint64_t total = hits + misses + single_flight_waits;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(total);
  }
};

/// Outcome of ResultCache::acquire.
enum class CacheAcquire : std::uint8_t {
  kHit,     ///< `row` is the ready row.
  kOwner,   ///< Caller must compute, then fulfill() or fail().
  kWaiter,  ///< `pending` resolves when the owner fulfills (or rethrows).
};

/// The sharded LRU + single-flight row cache (see the file comment).
class ResultCache {
 public:
  /// Builds an empty cache with the given sharding/capacity knobs.
  explicit ResultCache(ResultCacheOptions opts = {});

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Hit / owner / waiter resolution for `key` (see CacheAcquire). On
  /// kHit, `row` is set; on kWaiter, `pending` is set; on kOwner the
  /// caller owes a fulfill() or fail() for this key.
  CacheAcquire acquire(const CacheKey& key, RowPtr& row,
                       std::shared_future<RowPtr>& pending);

  /// Publishes the owner's computed row: inserts it as a ready LRU entry
  /// (evicting beyond capacity) and wakes every waiter with it.
  void fulfill(const CacheKey& key, RowPtr row);

  /// Owner's failure path: drops the in-flight entry and propagates `err`
  /// to every waiter. The key is then missable again.
  void fail(const CacheKey& key, std::exception_ptr err);

  /// Ready-row lookup without single-flight bookkeeping (refreshes LRU
  /// position). Null on miss or while the key is only in flight.
  RowPtr lookup(const CacheKey& key);

  /// Drops every READY row with graph_epoch < min_epoch — the eager
  /// reclamation hook SsspServer::swap_engine() calls after publishing a
  /// next_epoch() successor (stale rows can never match again; this just
  /// frees their memory early). In-flight entries are left alone.
  void purge_stale(std::uint64_t min_epoch);

  /// Drops every ready row (in-flight entries are left for their owners).
  void clear();

  /// Snapshot of the monotonic hit/miss/wait/eviction counters.
  ResultCacheStats stats() const;

  /// Ready rows currently resident (in-flight entries excluded).
  std::size_t size() const;

 private:
  struct Entry {
    RowPtr row;  // non-null == ready
    // In-flight machinery; the promise is boxed so Entry stays movable.
    std::shared_ptr<std::promise<RowPtr>> promise;
    std::shared_future<RowPtr> future;
    std::list<CacheKey>::iterator lru_pos;  // valid iff ready
  };

  struct KeyHash {
    std::size_t operator()(const CacheKey& k) const {
      // splitmix64-style mixing over the three fields.
      std::uint64_t h =
          static_cast<std::uint64_t>(k.source) * 0x9e3779b97f4a7c15ull;
      h ^= (static_cast<std::uint64_t>(k.engine) + 1) * 0xbf58476d1ce4e5b9ull;
      h ^= k.graph_epoch * 0x94d049bb133111ebull;
      h ^= h >> 31;
      return static_cast<std::size_t>(h);
    }
  };

  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<CacheKey, Entry, KeyHash> map;
    std::list<CacheKey> lru;  // front == most recently used, ready only
  };

  Shard& shard_for(const CacheKey& key) {
    return shards_[KeyHash{}(key) % shards_.size()];
  }

  std::size_t capacity_per_shard_;
  std::vector<Shard> shards_;

  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> waits_{0};
  std::atomic<std::uint64_t> evictions_{0};
};

/// Projects a cache-eligible request's answer out of `row` into `resp`,
/// reusing the response's capacity: a warm targeted projection performs no
/// heap allocation. Marks the response served_from_cache.
void answer_from_row(const QueryRequest& req, const CachedRow& row,
                     QueryResponse& resp);

/// Blocking cache-aware serve: hit -> projection; owner -> one
/// full-distance engine run published for everyone; waiter -> block on the
/// owner's row. Non-eligible requests pass straight through to the
/// engine. This is the single-threaded / test-harness entry point; the
/// serving daemon (serve/server.hpp) integrates the same primitives
/// into its serving teams instead.
void cached_serve(const SsspEngine& engine, ResultCache& cache,
                  const QueryRequest& req, QueryContext& ctx,
                  QueryResponse& resp);

}  // namespace rs::serve
