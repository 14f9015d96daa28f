#ifndef MITRA_COMMON_SINGLE_FLIGHT_H_
#define MITRA_COMMON_SINGLE_FLIGHT_H_

#include <chrono>
#include <cstddef>
#include <exception>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

/// \file single_flight.h
/// A string-keyed memo whose values are computed once per key, however
/// many threads ask for the key at the same time ("single-flight"): the
/// first requester computes the value, the others block on its future.
/// Stored values never move; they are handed out as shared pointers.

namespace mitra::common {

/// How one SingleFlight::Get call found its key.
enum class Flight {
  kOwned,     ///< this call computed the value
  kHit,       ///< the value was already published
  kCollided,  ///< another call was still computing it; this one waited
};

template <typename T>
class SingleFlight {
 public:
  /// The value for `key`. The first call for a key runs `compute()` on its
  /// own thread, outside the lock, and publishes the result; an exception
  /// from `compute` is rethrown to every caller of that key. `*flight`
  /// says how this call found the key.
  template <typename Fn>
  std::shared_ptr<const T> Get(const std::string& key, Fn&& compute,
                               Flight* flight) {
    std::promise<std::shared_ptr<const T>> promise;
    std::shared_future<std::shared_ptr<const T>> future;
    bool owner = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto [it, inserted] = map_.try_emplace(key);
      if (inserted) it->second = promise.get_future().share();
      future = it->second;
      owner = inserted;
    }
    if (owner) {
      *flight = Flight::kOwned;
      try {
        promise.set_value(std::make_shared<const T>(compute()));
      } catch (...) {
        // A future left unset would block every later caller of the key.
        promise.set_exception(std::current_exception());
      }
    } else {
      *flight = future.wait_for(std::chrono::seconds(0)) ==
                        std::future_status::ready
                    ? Flight::kHit
                    : Flight::kCollided;
    }
    return future.get();
  }

  /// Number of keys asked for so far.
  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return map_.size();
  }

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string, std::shared_future<std::shared_ptr<const T>>>
      map_;
};

}  // namespace mitra::common

#endif  // MITRA_COMMON_SINGLE_FLIGHT_H_
