// Clang thread-safety (capability) analysis for the concurrent tiers.
//
// The serving path (memory_service's epoch gate and stripe locks), the
// campaign runner's work-stealing pool and the driver's pacing state
// all promise the same thing: integer results that are bit-identical at
// any thread count. The dynamic TSan CI lane checks the schedules a run
// happens to exercise; the annotations here make the *locking
// discipline itself* a compile-time property — `-Wthread-safety
// -Werror` on the Clang lanes rejects any access to guarded state
// without its capability, on every build, before any test runs.
//
// Usage
// -----
//  * Declare lock members as ts_mutex / ts_shared_mutex (annotated
//    capability types; ts_shared_mutex is reader-sharded, see below).
//  * Tag protected members with URMEM_GUARDED_BY(lock_) (or
//    URMEM_PT_GUARDED_BY for pointees) and lock-discipline functions
//    with URMEM_REQUIRES / URMEM_REQUIRES_SHARED / URMEM_EXCLUDES.
//  * Take locks through the scoped types below (ts_lock_guard,
//    ts_unique_lock, ts_shared_lock) — std::scoped_lock and friends are
//    invisible to the analysis.
//  * Condition waits go through ts_condition_variable::wait(mutex)
//    inside a caller-side predicate loop; there is deliberately no
//    predicate overload, because the analysis treats a lambda as a
//    separate function and would not see the held capability inside it.
//
// Everything expands to nothing on compilers without the capability
// attributes (GCC, MSVC), so the annotated tree builds identically
// everywhere; only Clang checks it.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <shared_mutex>

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define URMEM_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef URMEM_THREAD_ANNOTATION
#define URMEM_THREAD_ANNOTATION(x)  // no capability analysis on this compiler
#endif

/// Marks a type as a lockable capability ("mutex", "shared_mutex", ...).
#define URMEM_CAPABILITY(x) URMEM_THREAD_ANNOTATION(capability(x))
/// Marks an RAII type whose constructor acquires and destructor releases.
#define URMEM_SCOPED_CAPABILITY URMEM_THREAD_ANNOTATION(scoped_lockable)
/// Data member readable only with `x` held (shared) and writable only
/// with `x` held exclusively.
#define URMEM_GUARDED_BY(x) URMEM_THREAD_ANNOTATION(guarded_by(x))
/// Pointer/smart-pointer member whose *pointee* is protected by `x`.
#define URMEM_PT_GUARDED_BY(x) URMEM_THREAD_ANNOTATION(pt_guarded_by(x))
/// Function acquires the capability (exclusively / shared) and returns
/// with it held.
#define URMEM_ACQUIRE(...) \
  URMEM_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define URMEM_ACQUIRE_SHARED(...) \
  URMEM_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))
/// Function releases the capability (generic release also covers a
/// shared hold, which is what scoped-lock destructors want).
#define URMEM_RELEASE(...) \
  URMEM_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define URMEM_RELEASE_SHARED(...) \
  URMEM_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))
/// Function acquires the capability only when returning `true`.
#define URMEM_TRY_ACQUIRE(...) \
  URMEM_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
/// Caller must already hold the capability (exclusively / shared).
#define URMEM_REQUIRES(...) \
  URMEM_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define URMEM_REQUIRES_SHARED(...) \
  URMEM_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))
/// Caller must NOT hold the capability (non-reentrant entry points).
#define URMEM_EXCLUDES(...) URMEM_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
/// Function returns a reference to the named capability.
#define URMEM_RETURN_CAPABILITY(x) URMEM_THREAD_ANNOTATION(lock_returned(x))
/// Escape hatch for patterns the analysis cannot express (for example a
/// lock chosen by runtime index and released through a different hook).
/// Every use carries a comment saying why the analysis cannot see it.
#define URMEM_NO_THREAD_SAFETY_ANALYSIS \
  URMEM_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace urmem {

/// Alignment that keeps independently written state off each other's
/// cache lines (64 B on every target this builds for).
inline constexpr std::size_t ts_cache_line = 64;

/// Number of per-thread slots behind ts_shared_mutex's reader shards and
/// any per-thread counter striping keyed by ts_thread_shard(). A
/// constant, not a knob: more threads than slots only share a slot,
/// which stays correct (the shards are still locks / atomic sums).
inline constexpr std::size_t ts_shard_count = 8;

/// The calling thread's slot in [0, ts_shard_count). Assigned
/// round-robin on the thread's first call and fixed for its lifetime,
/// so up to ts_shard_count threads that start together get distinct
/// slots.
inline std::size_t ts_thread_shard() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t slot =
      next.fetch_add(1, std::memory_order_relaxed) % ts_shard_count;
  return slot;
}

/// std::mutex with capability annotations. Take it through
/// ts_lock_guard; lock()/unlock() stay public for the rare manual site.
class URMEM_CAPABILITY("mutex") ts_mutex {
 public:
  ts_mutex() = default;
  ts_mutex(const ts_mutex&) = delete;
  ts_mutex& operator=(const ts_mutex&) = delete;

  void lock() URMEM_ACQUIRE() { mutex_.lock(); }
  void unlock() URMEM_RELEASE() { mutex_.unlock(); }
  bool try_lock() URMEM_TRY_ACQUIRE(true) { return mutex_.try_lock(); }

 private:
  friend class ts_condition_variable;
  std::mutex mutex_;
};

/// Reader-sharded shared mutex with capability annotations (exclusive =
/// writer / epoch boundary, shared = readers / traffic). It holds
/// ts_shard_count cache-line-aligned std::shared_mutex shards. A shared
/// hold takes only the calling thread's shard (ts_thread_shard()), so
/// readers on distinct slots never write a common cache line; an
/// exclusive hold takes every shard in index order, so it excludes the
/// readers of all of them and two writers cannot deadlock. Writers pay
/// ts_shard_count lock operations, which suits a read-mostly gate with
/// rare writers. As with std::shared_mutex, unlock_shared() must run on
/// the thread that called lock_shared().
class URMEM_CAPABILITY("shared_mutex") ts_shared_mutex {
 public:
  ts_shared_mutex() = default;
  ts_shared_mutex(const ts_shared_mutex&) = delete;
  ts_shared_mutex& operator=(const ts_shared_mutex&) = delete;

  void lock() URMEM_ACQUIRE() {
    for (shard& entry : shards_) entry.mutex.lock();
  }
  void unlock() URMEM_RELEASE() {
    for (auto it = shards_.rbegin(); it != shards_.rend(); ++it) {
      it->mutex.unlock();
    }
  }
  void lock_shared() URMEM_ACQUIRE_SHARED() {
    shards_[ts_thread_shard()].mutex.lock_shared();
  }
  void unlock_shared() URMEM_RELEASE_SHARED() {
    shards_[ts_thread_shard()].mutex.unlock_shared();
  }

 private:
  struct alignas(ts_cache_line) shard {
    std::shared_mutex mutex;
  };
  std::array<shard, ts_shard_count> shards_;
};

/// Scoped exclusive hold of a ts_mutex (std::scoped_lock equivalent).
class URMEM_SCOPED_CAPABILITY ts_lock_guard {
 public:
  explicit ts_lock_guard(ts_mutex& mutex) URMEM_ACQUIRE(mutex)
      : mutex_(mutex) {
    mutex_.lock();
  }
  ~ts_lock_guard() URMEM_RELEASE() { mutex_.unlock(); }
  ts_lock_guard(const ts_lock_guard&) = delete;
  ts_lock_guard& operator=(const ts_lock_guard&) = delete;

 private:
  ts_mutex& mutex_;
};

/// Scoped exclusive hold of a ts_shared_mutex (the epoch-boundary /
/// snapshot mode of the serving gate).
class URMEM_SCOPED_CAPABILITY ts_unique_lock {
 public:
  explicit ts_unique_lock(ts_shared_mutex& mutex) URMEM_ACQUIRE(mutex)
      : mutex_(mutex) {
    mutex_.lock();
  }
  ~ts_unique_lock() URMEM_RELEASE() { mutex_.unlock(); }
  ts_unique_lock(const ts_unique_lock&) = delete;
  ts_unique_lock& operator=(const ts_unique_lock&) = delete;

 private:
  ts_shared_mutex& mutex_;
};

/// Scoped shared hold of a ts_shared_mutex (the traffic / concurrent
/// scrub mode of the serving gate). The destructor's generic RELEASE
/// covers the shared hold.
class URMEM_SCOPED_CAPABILITY ts_shared_lock {
 public:
  explicit ts_shared_lock(ts_shared_mutex& mutex) URMEM_ACQUIRE_SHARED(mutex)
      : mutex_(mutex) {
    mutex_.lock_shared();
  }
  ~ts_shared_lock() URMEM_RELEASE() { mutex_.unlock_shared(); }
  ts_shared_lock(const ts_shared_lock&) = delete;
  ts_shared_lock& operator=(const ts_shared_lock&) = delete;

 private:
  ts_shared_mutex& mutex_;
};

/// Condition variable for ts_mutex. wait() atomically releases the
/// mutex, blocks, and reacquires before returning — callers hold the
/// mutex across the call and loop on their predicate:
///
///   ts_lock_guard lock(mutex_);
///   while (!ready_) cv_.wait(mutex_);
///
/// No predicate overload on purpose: the analysis treats a lambda as a
/// separate function, so guarded reads inside one would (rightly) fail
/// the capability check even though the lock is held.
class ts_condition_variable {
 public:
  ts_condition_variable() = default;
  ts_condition_variable(const ts_condition_variable&) = delete;
  ts_condition_variable& operator=(const ts_condition_variable&) = delete;

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

  void wait(ts_mutex& mutex) URMEM_REQUIRES(mutex) {
    // Adopt the already-held native mutex for the wait, then release the
    // std::unique_lock wrapper so ownership stays with the caller's
    // scoped guard. The capability is held on entry and on return,
    // matching the REQUIRES contract.
    std::unique_lock<std::mutex> relock(mutex.mutex_, std::adopt_lock);
    cv_.wait(relock);
    relock.release();
  }

 private:
  std::condition_variable cv_;
};

}  // namespace urmem
