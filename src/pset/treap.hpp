// Join-based treap: the balanced-BST substrate Algorithm 2 charges its
// bookkeeping to.
//
// The paper assumes ordered sets supporting split, union, and difference in
// O(p log q) work and O(log q) depth (Section 2, citing join-based parallel
// BSTs). This treap provides exactly that interface: all operations are
// expressed through split/join, priorities are a hash of the key (so a key
// set has one canonical shape, independent of insertion order — handy for
// determinism tests), and bulk union/difference recurse in parallel via
// OpenMP tasks on large inputs.
//
// Union and difference are destructive (they consume both operands), which
// matches how Algorithm 2 uses them: batches are built, merged into Q/R,
// and never reused.
//
// Allocation: a Treap owns its nodes individually (new/delete, the
// default), draws them from a single TreapArena — a freelist-backed pool
// that recycles nodes across treaps and across queries — or draws them
// from a TreapArenaPool of per-worker arenas. The serving hot path
// (core/rs_bst.cpp) keeps one pool per QueryContext, so a warm
// context answers kBst queries without touching the heap: every erase,
// split-discard, and subtract-consumed skeleton splices straight back onto
// a freelist instead of running delete.
//
// Parallelism rules: single-arena treaps run their bulk operations
// sequentially (one freelist, single-owner — the mode the strictly
// sequential engine twin uses, since it must not open OpenMP regions).
// Arena-less AND pool-backed treaps keep the parallel task recursion: in a
// pool, OpenMP thread t only ever touches arena t (tasks are tied, so the
// executing thread is stable across an acquire/release site), which keeps
// every freelist single-owner while split/union/difference recurse in
// parallel — restoring the paper's set-op depth bound for the recycling
// path.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include <omp.h>

#include "parallel/rng.hpp"

namespace rs {

namespace treap_detail {

/// Mixes arbitrary key bytes into a treap priority.
template <typename Key>
std::uint64_t priority_of(const Key& key) {
  if constexpr (std::is_integral_v<Key>) {
    return hash64(static_cast<std::uint64_t>(key));
  } else {
    // Pair-like keys (first, second) — the shapes used in this library.
    return hash64(hash64(static_cast<std::uint64_t>(key.first)) ^
                  static_cast<std::uint64_t>(key.second));
  }
}

constexpr std::size_t kParallelCutoff = 4096;

template <typename Key>
struct Node {
  Node() = default;
  explicit Node(const Key& k) : key(k), prio(priority_of(k)) {}
  Key key{};
  std::uint64_t prio = 0;
  Node* left = nullptr;
  Node* right = nullptr;
  std::size_t size = 1;
};

}  // namespace treap_detail

/// Freelist-backed node pool shared by any number of (non-concurrent)
/// treaps over the same key type. Nodes are carved from geometrically
/// growing chunks and never returned to the OS until the arena dies;
/// release() pushes a node onto the freelist in O(1), so steady-state
/// treap churn performs zero heap allocations once the pool has reached
/// its high-water mark. Single-owner: not thread-safe.
template <typename Key>
class TreapArena {
 public:
  using Node = treap_detail::Node<Key>;

  TreapArena() = default;
  TreapArena(const TreapArena&) = delete;
  TreapArena& operator=(const TreapArena&) = delete;
  TreapArena(TreapArena&& other) noexcept
      : chunks_(std::move(other.chunks_)),
        chunk_used_(std::exchange(other.chunk_used_, 0)),
        chunk_capacity_(std::exchange(other.chunk_capacity_, 0)),
        free_(std::exchange(other.free_, nullptr)),
        total_(std::exchange(other.total_, 0)),
        free_count_(std::exchange(other.free_count_, 0)) {}
  TreapArena& operator=(TreapArena&& other) noexcept {
    if (this != &other) {
      chunks_ = std::move(other.chunks_);
      chunk_used_ = std::exchange(other.chunk_used_, 0);
      chunk_capacity_ = std::exchange(other.chunk_capacity_, 0);
      free_ = std::exchange(other.free_, nullptr);
      total_ = std::exchange(other.total_, 0);
      free_count_ = std::exchange(other.free_count_, 0);
    }
    return *this;
  }

  /// Hands out an initialized leaf node for `key`: freelist pop when a
  /// recycled node exists, bump allocation from the current chunk
  /// otherwise. Allocates only when the pool is exhausted (warm-up).
  Node* acquire(const Key& key) {
    Node* node;
    if (free_ != nullptr) {
      node = free_;
      free_ = node->right;  // right doubles as the freelist link
      --free_count_;
    } else {
      node = fresh_node();
    }
    node->key = key;
    node->prio = treap_detail::priority_of(key);
    node->left = nullptr;
    node->right = nullptr;
    node->size = 1;
    return node;
  }

  /// Returns one node to the freelist. O(1), never frees memory.
  void release(Node* node) {
    node->right = free_;
    free_ = node;
    ++free_count_;
  }

  /// Splices a whole subtree onto the freelist (the "reclaim the skeleton"
  /// path of subtract and treap destruction).
  void release_tree(Node* t) {
    if (t == nullptr) return;
    release_tree(t->left);
    release_tree(t->right);
    release(t);
  }

  /// Nodes ever carved from the chunks (the pool's high-water mark).
  std::size_t total_nodes() const { return total_; }
  /// Nodes currently parked on the freelist.
  std::size_t free_nodes() const { return free_count_; }

 private:
  Node* fresh_node() {
    if (chunk_used_ == chunk_capacity_) {
      // Geometric growth keeps warm-up to O(log n) allocations.
      chunk_capacity_ = total_ == 0 ? kFirstChunk : total_;
      chunks_.push_back(std::make_unique<Node[]>(chunk_capacity_));
      chunk_used_ = 0;
    }
    ++total_;
    return &chunks_.back()[chunk_used_++];
  }

  static constexpr std::size_t kFirstChunk = 64;

  std::vector<std::unique_ptr<Node[]>> chunks_;
  std::size_t chunk_used_ = 0;
  std::size_t chunk_capacity_ = 0;
  Node* free_ = nullptr;
  std::size_t total_ = 0;
  std::size_t free_count_ = 0;
};

/// Per-worker arena set for parallel bulk operations over recycled nodes.
/// arena(t) is only ever touched by OpenMP thread t of the team running
/// the operation (current() indexes by omp_get_thread_num()), so each
/// freelist stays single-owner without locks. Nodes migrate freely between
/// the per-worker freelists as releases land on whichever thread ran the
/// subtask — total_nodes() aggregates the high-water mark across arenas.
/// ensure() must cover the largest team any operation will run with
/// BEFORE that operation starts (growth is not thread-safe).
template <typename Key>
class TreapArenaPool {
 public:
  /// Grows the pool to at least `workers` arenas. Not thread-safe; call
  /// from sequential sections only.
  void ensure(std::size_t workers) {
    while (arenas_.size() < workers) arenas_.emplace_back();
  }
  std::size_t size() const { return arenas_.size(); }
  TreapArena<Key>& arena(std::size_t w) { return arenas_[w]; }
  /// The calling OpenMP thread's arena.
  TreapArena<Key>& current() {
    const auto tid = static_cast<std::size_t>(omp_get_thread_num());
    assert(tid < arenas_.size());
    return arenas_[tid];
  }
  /// Aggregates across arenas (tests pin recycling with these).
  std::size_t total_nodes() const {
    std::size_t sum = 0;
    for (const auto& a : arenas_) sum += a.total_nodes();
    return sum;
  }
  std::size_t free_nodes() const {
    std::size_t sum = 0;
    for (const auto& a : arenas_) sum += a.free_nodes();
    return sum;
  }

 private:
  std::deque<TreapArena<Key>> arenas_;  // deque: growth never moves arenas
};

/// Ordered set of unique keys with join-based split/union/difference.
template <typename Key>
class Treap {
 public:
  Treap() = default;
  /// Arena-backed treap: nodes come from (and return to) `arena`. All
  /// treaps an operation touches must share one arena (or be arena-less):
  /// union/subtract splice nodes between operands. nullptr = own nodes.
  explicit Treap(TreapArena<Key>* arena) : arena_(arena) {}
  /// Pool-backed treap: nodes come from (and return to) the per-worker
  /// arenas of `pool` — acquire/release always hit the executing thread's
  /// arena. Same sharing rule: all operands of one operation must use the
  /// same pool.
  explicit Treap(TreapArenaPool<Key>* pool) : pool_(pool) {}
  ~Treap() { destroy(root_); }

  Treap(Treap&& other) noexcept
      : root_(std::exchange(other.root_, nullptr)),
        arena_(other.arena_),
        pool_(other.pool_) {}
  Treap& operator=(Treap&& other) noexcept {
    if (this != &other) {
      destroy(root_);
      root_ = std::exchange(other.root_, nullptr);
      arena_ = other.arena_;
      pool_ = other.pool_;
    }
    return *this;
  }
  Treap(const Treap&) = delete;
  Treap& operator=(const Treap&) = delete;

  bool empty() const { return root_ == nullptr; }
  std::size_t size() const { return size_of(root_); }

  bool contains(const Key& key) const {
    const Node* cur = root_;
    while (cur != nullptr) {
      if (key < cur->key) {
        cur = cur->left;
      } else if (cur->key < key) {
        cur = cur->right;
      } else {
        return true;
      }
    }
    return false;
  }

  /// Inserts `key`; returns false if already present.
  bool insert(const Key& key) {
    if (contains(key)) return false;
    auto [lo, hi] = split_raw(root_, key);
    Node* mid = make_node(key);
    root_ = join(join(lo, mid), hi);
    return true;
  }

  /// Removes `key`; returns false if absent.
  bool erase(const Key& key) {
    bool removed = false;
    root_ = erase_rec(root_, key, removed);
    return removed;
  }

  /// Smallest key. Pre: !empty().
  const Key& min() const {
    assert(!empty());
    const Node* cur = root_;
    while (cur->left != nullptr) cur = cur->left;
    return cur->key;
  }

  /// Removes and returns the smallest key. Pre: !empty().
  Key extract_min() {
    Key out = min();
    erase(out);
    return out;
  }

  /// Splits off and returns all keys <= pivot; this treap keeps keys > pivot.
  /// O(log n). The result shares this treap's allocation source.
  Treap split_leq(const Key& pivot) {
    auto [lo, hi] = split_raw(root_, pivot, /*leq=*/true);
    root_ = hi;
    Treap out;
    out.arena_ = arena_;
    out.pool_ = pool_;
    out.root_ = lo;
    return out;
  }

  /// Destructive union: this := this U other, other becomes empty.
  /// O(p log(q/p + 1)) work, polylog depth (parallel tasks on large
  /// arena-less or pool-backed inputs; single-arena treaps merge
  /// sequentially).
  void union_with(Treap&& other) {
    assert(arena_ == other.arena_ && pool_ == other.pool_);
    Node* b = std::exchange(other.root_, nullptr);
    if (parallel_ok() &&
        size_of(root_) + size_of(b) >= treap_detail::kParallelCutoff) {
#pragma omp parallel
#pragma omp single
      root_ = union_rec(root_, b);
    } else {
      root_ = union_rec(root_, b);
    }
  }

  /// Destructive difference: this := this \ other, other becomes empty.
  void subtract(Treap&& other) {
    assert(arena_ == other.arena_ && pool_ == other.pool_);
    Node* b = std::exchange(other.root_, nullptr);
    if (parallel_ok() &&
        size_of(root_) + size_of(b) >= treap_detail::kParallelCutoff) {
#pragma omp parallel
#pragma omp single
      root_ = diff_rec(root_, b);
    } else {
      root_ = diff_rec(root_, b);
    }
    destroy(b);  // diff_rec leaves `b`'s skeleton; reclaim or freelist it
  }

  /// Builds from strictly-increasing sorted keys in O(n) work, O(log n)
  /// depth (arena-less; single-arena builds are sequential).
  static Treap from_sorted(const std::vector<Key>& sorted,
                           TreapArena<Key>* arena = nullptr) {
    Treap t(arena);
    t.build_from_sorted(sorted);
    return t;
  }

  /// Pool-backed build: parallel task recursion with per-worker node
  /// acquisition.
  static Treap from_sorted(const std::vector<Key>& sorted,
                           TreapArenaPool<Key>* pool) {
    Treap t(pool);
    t.build_from_sorted(sorted);
    return t;
  }

  /// In-order (sorted) key dump.
  std::vector<Key> to_vector() const {
    std::vector<Key> out;
    out.reserve(size());
    append_inorder(root_, out);
    return out;
  }

  /// Allocation-free variant: clears `out` and appends in order, keeping
  /// the vector's capacity (the hot-path form).
  void to_vector(std::vector<Key>& out) const {
    out.clear();
    append_inorder(root_, out);
  }

  /// Maximum node depth; exposed so tests can check balance (O(log n) w.h.p).
  std::size_t height() const { return height_rec(root_); }

 private:
  using Node = treap_detail::Node<Key>;

  static std::size_t size_of(const Node* t) { return t ? t->size : 0; }

  static void update(Node* t) {
    t->size = 1 + size_of(t->left) + size_of(t->right);
  }

  /// Bulk ops may open OpenMP regions / spawn tasks unless the nodes live
  /// in a single-owner arena (whose one freelist forbids concurrent
  /// release). Pool-backed treaps are safe: every acquire/release goes to
  /// the executing thread's own arena.
  bool parallel_ok() const { return arena_ == nullptr; }

  Node* make_node(const Key& key) {
    if (pool_ != nullptr) return pool_->current().acquire(key);
    if (arena_ != nullptr) return arena_->acquire(key);
    return new Node(key);
  }

  void release_node(Node* t) {
    if (pool_ != nullptr) {
      pool_->current().release(t);
    } else if (arena_ != nullptr) {
      arena_->release(t);
    } else {
      delete t;
    }
  }

  void destroy(Node* t) {
    if (t == nullptr) return;
    if (arena_ != nullptr) {
      arena_->release_tree(t);
      return;
    }
    destroy(t->left);
    destroy(t->right);
    release_node(t);
  }

  void build_from_sorted(const std::vector<Key>& sorted) {
    if (parallel_ok() && sorted.size() >= treap_detail::kParallelCutoff) {
#pragma omp parallel
#pragma omp single
      root_ = build_rec(sorted, 0, sorted.size());
    } else {
      root_ = build_rec(sorted, 0, sorted.size());
    }
  }

  /// Joins two treaps where all keys in `lo` < all keys in `hi`.
  static Node* join(Node* lo, Node* hi) {
    if (lo == nullptr) return hi;
    if (hi == nullptr) return lo;
    if (lo->prio > hi->prio) {
      lo->right = join(lo->right, hi);
      update(lo);
      return lo;
    }
    hi->left = join(lo, hi->left);
    update(hi);
    return hi;
  }

  /// Splits by pivot. With leq=true the left part receives keys == pivot.
  static std::pair<Node*, Node*> split_raw(Node* t, const Key& pivot,
                                           bool leq = false) {
    if (t == nullptr) return {nullptr, nullptr};
    const bool go_left = leq ? (pivot < t->key) : !(t->key < pivot);
    if (go_left) {
      auto [lo, hi] = split_raw(t->left, pivot, leq);
      t->left = hi;
      update(t);
      return {lo, t};
    }
    auto [lo, hi] = split_raw(t->right, pivot, leq);
    t->right = lo;
    update(t);
    return {t, hi};
  }

  Node* erase_rec(Node* t, const Key& key, bool& removed) {
    if (t == nullptr) return nullptr;
    if (key < t->key) {
      t->left = erase_rec(t->left, key, removed);
    } else if (t->key < key) {
      t->right = erase_rec(t->right, key, removed);
    } else {
      Node* merged = join(t->left, t->right);
      release_node(t);
      removed = true;
      return merged;
    }
    update(t);
    return t;
  }

  Node* union_rec(Node* a, Node* b) {
    if (a == nullptr) return b;
    if (b == nullptr) return a;
    if (a->prio < b->prio) std::swap(a, b);
    // a's root wins; partition b around it. split_raw puts keys >= pivot on
    // the right, so a duplicate of a->key (if b held one) is hi's minimum.
    auto [lo, hi] = split_raw(b, a->key);
    {
      bool removed = false;
      hi = erase_rec(hi, a->key, removed);
    }
    Node* left = nullptr;
    Node* right = nullptr;
    const bool parallel =
        parallel_ok() &&
        size_of(a) + size_of(lo) + size_of(hi) >= treap_detail::kParallelCutoff;
    if (parallel) {
#pragma omp task shared(left)
      left = union_rec(a->left, lo);
      right = union_rec(a->right, hi);
#pragma omp taskwait
    } else {
      left = union_rec(a->left, lo);
      right = union_rec(a->right, hi);
    }
    a->left = left;
    a->right = right;
    update(a);
    return a;
  }

  /// a \ b, built from a's nodes. `b` is only read; the caller reclaims it.
  Node* diff_rec(Node* a, const Node* b) {
    if (a == nullptr || b == nullptr) return a;
    // Partition a around b's root key; the match (if present) is the
    // minimum of the >=-side. Remove it.
    auto [lo, hi] = split_raw(a, b->key);
    {
      bool removed = false;
      hi = erase_rec(hi, b->key, removed);
    }
    Node* left = nullptr;
    Node* right = nullptr;
    const bool parallel =
        parallel_ok() &&
        size_of(lo) + size_of(hi) + size_of(b) >= treap_detail::kParallelCutoff;
    if (parallel) {
#pragma omp task shared(left)
      left = diff_rec(lo, b->left);
      right = diff_rec(hi, b->right);
#pragma omp taskwait
    } else {
      left = diff_rec(lo, b->left);
      right = diff_rec(hi, b->right);
    }
    return join(left, right);
  }

  Node* build_rec(const std::vector<Key>& sorted, std::size_t lo,
                  std::size_t hi) {
    if (lo >= hi) return nullptr;
    // Root = max priority in range; recursing on the midpoint instead would
    // break the heap property, so find the max-priority element. For O(n)
    // total work we use the standard trick: build by divide-and-conquer on
    // position, then fix the heap property with joins.
    const std::size_t mid = lo + (hi - lo) / 2;
    Node* root = make_node(sorted[mid]);
    Node* left = nullptr;
    Node* right = nullptr;
    if (parallel_ok() && hi - lo >= treap_detail::kParallelCutoff) {
#pragma omp task shared(left, sorted)
      left = build_rec(sorted, lo, mid);
      right = build_rec(sorted, mid + 1, hi);
#pragma omp taskwait
    } else {
      left = build_rec(sorted, lo, mid);
      right = build_rec(sorted, mid + 1, hi);
    }
    // Rebalance to restore the priority heap order.
    return join(join_heapify(left, root), right);
  }

  /// Joins `left` (all keys < root->key) with the single node `root`,
  /// restoring the treap priority invariant.
  static Node* join_heapify(Node* left, Node* root) {
    root->left = nullptr;
    root->right = nullptr;
    root->size = 1;
    return join(left, root);
  }

  static void append_inorder(const Node* t, std::vector<Key>& out) {
    if (t == nullptr) return;
    append_inorder(t->left, out);
    out.push_back(t->key);
    append_inorder(t->right, out);
  }

  static std::size_t height_rec(const Node* t) {
    if (t == nullptr) return 0;
    return 1 + std::max(height_rec(t->left), height_rec(t->right));
  }

  Node* root_ = nullptr;
  TreapArena<Key>* arena_ = nullptr;
  TreapArenaPool<Key>* pool_ = nullptr;
};

}  // namespace rs
