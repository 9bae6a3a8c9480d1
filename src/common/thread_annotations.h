#ifndef TRIQ_COMMON_THREAD_ANNOTATIONS_H_
#define TRIQ_COMMON_THREAD_ANNOTATIONS_H_

#include <condition_variable>
#include <mutex>
#include <shared_mutex>

/// Clang Thread Safety Analysis (-Wthread-safety) attribute macros and
/// annotated synchronization wrappers, in the style of abseil's
/// thread_annotations.h / LLVM's mutex.h example.
///
/// The macros expand to clang attributes under clang and to nothing
/// everywhere else, so gcc builds are unaffected; the dedicated CI job
/// compiles the tree with clang and -Werror=thread-safety, making the
/// annotations load-bearing.
///
/// Conventions used across the codebase:
///  * Every mutex member is a triq::Mutex or triq::SharedMutex — never a
///    bare std type — so the analysis sees every capability.
///  * Every member a mutex guards carries TRIQ_GUARDED_BY(mu_).
///  * Private helpers that expect the caller to hold a lock carry
///    TRIQ_REQUIRES(mu_) instead of a "Requires mu_ held" comment.

#if defined(__clang__)
#define TRIQ_TSA_ATTRIBUTE_(x) __attribute__((x))
#else
#define TRIQ_TSA_ATTRIBUTE_(x)  // no-op: gcc has no -Wthread-safety
#endif

/// Marks a class as a lockable capability ("mutex", "shared_mutex").
#define TRIQ_CAPABILITY(x) TRIQ_TSA_ATTRIBUTE_(capability(x))

/// Marks an RAII class whose constructor acquires and destructor
/// releases a capability.
#define TRIQ_SCOPED_CAPABILITY TRIQ_TSA_ATTRIBUTE_(scoped_lockable)

/// Data members protected by the given capability.
#define TRIQ_GUARDED_BY(x) TRIQ_TSA_ATTRIBUTE_(guarded_by(x))

/// Pointer members whose pointee is protected by the given capability.
#define TRIQ_PT_GUARDED_BY(x) TRIQ_TSA_ATTRIBUTE_(pt_guarded_by(x))

/// Lock-ordering declarations (deadlock prevention).
#define TRIQ_ACQUIRED_BEFORE(...) \
  TRIQ_TSA_ATTRIBUTE_(acquired_before(__VA_ARGS__))
#define TRIQ_ACQUIRED_AFTER(...) \
  TRIQ_TSA_ATTRIBUTE_(acquired_after(__VA_ARGS__))

/// The caller must hold the capability (exclusively / shared).
#define TRIQ_REQUIRES(...) \
  TRIQ_TSA_ATTRIBUTE_(requires_capability(__VA_ARGS__))
#define TRIQ_REQUIRES_SHARED(...) \
  TRIQ_TSA_ATTRIBUTE_(requires_shared_capability(__VA_ARGS__))

/// The function acquires / releases the capability.
#define TRIQ_ACQUIRE(...) TRIQ_TSA_ATTRIBUTE_(acquire_capability(__VA_ARGS__))
#define TRIQ_ACQUIRE_SHARED(...) \
  TRIQ_TSA_ATTRIBUTE_(acquire_shared_capability(__VA_ARGS__))
#define TRIQ_RELEASE(...) TRIQ_TSA_ATTRIBUTE_(release_capability(__VA_ARGS__))
#define TRIQ_RELEASE_SHARED(...) \
  TRIQ_TSA_ATTRIBUTE_(release_shared_capability(__VA_ARGS__))

/// The function tries to acquire; first argument is the success value.
#define TRIQ_TRY_ACQUIRE(...) \
  TRIQ_TSA_ATTRIBUTE_(try_acquire_capability(__VA_ARGS__))

/// The caller must NOT hold the capability (non-reentrancy).
#define TRIQ_EXCLUDES(...) TRIQ_TSA_ATTRIBUTE_(locks_excluded(__VA_ARGS__))

/// Runtime assertion that the capability is held (for code the analysis
/// cannot follow, e.g. after a callback boundary).
#define TRIQ_ASSERT_CAPABILITY(x) TRIQ_TSA_ATTRIBUTE_(assert_capability(x))

/// The function returns a reference to the given capability.
#define TRIQ_RETURN_CAPABILITY(x) TRIQ_TSA_ATTRIBUTE_(lock_returned(x))

namespace triq {

/// Tag type for adopting a mutex that the caller already locked (e.g.
/// via a successful try_lock) into a scoped MutexLock.
struct AdoptLockT {
  explicit AdoptLockT() = default;
};
inline constexpr AdoptLockT kAdoptLock{};

/// Annotated exclusive mutex. Same interface subset as std::mutex, so
/// it still satisfies BasicLockable/Lockable for std helpers that the
/// analysis cannot see through anyway.
class TRIQ_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() TRIQ_ACQUIRE() { mu_.lock(); }
  void unlock() TRIQ_RELEASE() { mu_.unlock(); }
  bool try_lock() TRIQ_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

/// Annotated reader/writer mutex over std::shared_mutex.
class TRIQ_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() TRIQ_ACQUIRE() { mu_.lock(); }
  void unlock() TRIQ_RELEASE() { mu_.unlock(); }
  bool try_lock() TRIQ_TRY_ACQUIRE(true) { return mu_.try_lock(); }
  void lock_shared() TRIQ_ACQUIRE_SHARED() { mu_.lock_shared(); }
  void unlock_shared() TRIQ_RELEASE_SHARED() { mu_.unlock_shared(); }

 private:
  std::shared_mutex mu_;
};

/// Scoped exclusive lock over triq::Mutex (the std::lock_guard shape,
/// visible to the analysis). The adopt overload takes over a mutex the
/// caller already holds — typically after a successful try_lock.
class TRIQ_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) TRIQ_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  MutexLock(Mutex& mu, AdoptLockT) TRIQ_REQUIRES(mu) : mu_(mu) {}
  ~MutexLock() TRIQ_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Scoped shared (reader) lock over triq::SharedMutex.
class TRIQ_SCOPED_CAPABILITY ReaderLock {
 public:
  explicit ReaderLock(SharedMutex& mu) TRIQ_ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.lock_shared();
  }
  ~ReaderLock() TRIQ_RELEASE() { mu_.unlock_shared(); }

  ReaderLock(const ReaderLock&) = delete;
  ReaderLock& operator=(const ReaderLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// Scoped exclusive (writer) lock over triq::SharedMutex.
class TRIQ_SCOPED_CAPABILITY WriterLock {
 public:
  explicit WriterLock(SharedMutex& mu) TRIQ_ACQUIRE(mu) : mu_(mu) {
    mu_.lock();
  }
  ~WriterLock() TRIQ_RELEASE() { mu_.unlock(); }

  WriterLock(const WriterLock&) = delete;
  WriterLock& operator=(const WriterLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// Condition variable usable with triq::Mutex (which is BasicLockable,
/// so condition_variable_any waits on it directly). Waits must sit in a
/// caller-side `while (!predicate)` loop: a predicate lambda would be
/// analyzed as a separate unannotated function and defeat the point of
/// TRIQ_REQUIRES on Wait.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu`, blocks, and reacquires `mu` before
  /// returning. Spurious wakeups happen; loop on the condition.
  void Wait(Mutex& mu) TRIQ_REQUIRES(mu) { cv_.wait(mu); }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace triq

#endif  // TRIQ_COMMON_THREAD_ANNOTATIONS_H_
