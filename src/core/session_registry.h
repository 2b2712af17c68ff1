// SessionRegistry: the session table PrefetchScheduler and StreamScheduler
// both keep — id assignment, in-flight pins (a pinned session is never
// erased) and the teardown waits. Every wait finds the session by id again
// each time it wakes and never holds a reference to its state across a
// wake: another waiter may have erased it. Not synchronized itself: each
// scheduler calls it under its own mutex, passes that mutex's lock and its
// condition variable to the waits, and notifies it when a pin settles.

#ifndef FORECACHE_CORE_SESSION_REGISTRY_H_
#define FORECACHE_CORE_SESSION_REGISTRY_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <type_traits>
#include <unordered_map>

namespace fc::core {

/// The per-session fields the teardown protocol reads. Each scheduler's
/// per-session state derives from it.
struct SessionPins {
  /// Work handed out for the session and not yet settled.
  std::size_t in_flight = 0;
  /// Set by the first unregister: the session gets no new work.
  bool unregistering = false;
};

template <typename State>
class SessionRegistry {
  static_assert(std::is_base_of_v<SessionPins, State>);

 public:
  /// Adds `state` under `session_id`, or under a fresh id (from 2^48 up,
  /// clear of SessionManager ids) when that is 0 or taken. Returns the
  /// effective id.
  std::uint64_t Add(std::uint64_t session_id, std::unique_ptr<State> state) {
    if (session_id == 0 || sessions_.count(session_id) > 0) {
      session_id = next_auto_id_++;
    }
    sessions_.emplace(session_id, std::move(state));
    return session_id;
  }

  /// The session's state, or null for an unknown id.
  State* Find(std::uint64_t session_id) const {
    auto it = sessions_.find(session_id);
    return it == sessions_.end() ? nullptr : it->second.get();
  }

  /// (id, state) pairs in the map's iteration order.
  auto begin() { return sessions_.begin(); }
  auto end() { return sessions_.end(); }
  auto begin() const { return sessions_.begin(); }
  auto end() const { return sessions_.end(); }

  /// Waits on `cv` until the session is gone or `done(state)` holds.
  template <typename Done>
  void WaitUntil(std::unique_lock<std::mutex>& lock,
                 std::condition_variable& cv, std::uint64_t session_id,
                 Done done) const {
    cv.wait(lock, [&] {
      const State* state = Find(session_id);
      return state == nullptr || done(*state);
    });
  }

  /// Runs `drop(state)`, then waits until nothing is in flight. No-op for
  /// an unknown id.
  template <typename Drop>
  void Cancel(std::unique_lock<std::mutex>& lock, std::condition_variable& cv,
              std::uint64_t session_id, Drop drop) {
    State* state = Find(session_id);
    if (state == nullptr) return;
    drop(*state);
    WaitUntil(lock, cv, session_id, Idle);
  }

  /// Marks the session, runs `drop(state)`, waits until nothing is in
  /// flight, erases it and notifies `cv`; a call that finds it already
  /// marked waits for the marking call instead. No-op for an unknown id.
  template <typename Drop>
  void Unregister(std::unique_lock<std::mutex>& lock,
                  std::condition_variable& cv, std::uint64_t session_id,
                  Drop drop) {
    State* state = Find(session_id);
    if (state == nullptr) return;
    if (state->unregistering) {
      WaitUntil(lock, cv, session_id,
                [](const State& s) { return !s.unregistering; });
      return;
    }
    state->unregistering = true;
    drop(*state);
    WaitUntil(lock, cv, session_id, Idle);
    sessions_.erase(session_id);
    cv.notify_all();  // cancels and unregisters waiting on this session
  }

 private:
  static bool Idle(const State& state) { return state.in_flight == 0; }

  std::unordered_map<std::uint64_t, std::unique_ptr<State>> sessions_;
  std::uint64_t next_auto_id_ = 1ull << 48;
};

}  // namespace fc::core

#endif  // FORECACHE_CORE_SESSION_REGISTRY_H_
