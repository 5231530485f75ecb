#pragma once

/// \file mutex.h
/// \brief Annotated mutex primitives for compile-time lock checking.
///
/// `std::mutex` carries no thread-safety attributes, so Clang's
/// `-Wthread-safety` analysis cannot see which fields it guards or which
/// functions hold it.  These thin wrappers — same layout, same cost, no
/// extra state — carry the `capability` / `scoped_lockable` attributes
/// (via the `WQE_*` macros in common/macros.h) that make locking
/// contracts compile errors under Clang instead of header comments.
/// Everything concurrency-bearing (`serve::ThreadPool`,
/// `serve::ExpansionCache`, `serve::Server`, `api::Engine`'s snapshot
/// pointer) locks through these.
///
/// On non-Clang toolchains the attributes expand to nothing and the
/// wrappers behave exactly like the std types they hold.

#include <condition_variable>
#include <mutex>

#include "common/macros.h"

namespace wqe::common {

class CondVar;

/// \brief `std::mutex` with capability annotations.  Prefer the RAII
/// `MutexLock` over calling `Lock`/`Unlock` directly.
class WQE_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() WQE_ACQUIRE() { mu_.lock(); }
  void Unlock() WQE_RELEASE() { mu_.unlock(); }
  bool TryLock() WQE_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;  // waits on the wrapped std::mutex directly
  std::mutex mu_;
};

/// \brief RAII lock for `Mutex`, equivalent to `std::lock_guard`.  Scoped
/// acquisition is what the analysis tracks across early returns.
class WQE_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) WQE_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() WQE_RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// \brief Condition variable paired with `Mutex`.
///
/// `Wait` requires the mutex held and returns with it held — the interior
/// release/reacquire is invisible to (and irrelevant for) the analysis,
/// which only cares that the capability state is unchanged across the
/// call.  There is no predicate overload on purpose: the analysis cannot
/// see a lambda's guarded-field reads, so callers write the standard
///   while (!condition) cv.Wait(mu);
/// loop, which is checked.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// \brief Atomically releases `mu`, blocks until notified, reacquires.
  void Wait(Mutex& mu) WQE_REQUIRES(mu) {
    // Adopt the already-held native mutex for the duration of the wait;
    // release() hands it back still locked, so the annotated capability
    // state stays truthful.
    std::unique_lock<std::mutex> native(mu.mu_, std::adopt_lock);
    cv_.wait(native);
    native.release();
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace wqe::common
