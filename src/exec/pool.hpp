// Bounded worker-thread pool for the experiment engine. Deliberately not
// work-stealing: jobs are coarse (one whole application simulation each),
// so a single locked FIFO is contention-free in practice and keeps the
// dispatch order deterministic.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace catt::exec {

class Pool {
 public:
  /// Spawns `threads` workers (clamped to >= 1).
  explicit Pool(int threads = default_jobs());

  /// Drains nothing: outstanding jobs finish, queued jobs still run; the
  /// destructor joins after the queue empties.
  ~Pool();

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  /// Enqueues one job. Jobs must not submit to the same pool (coarse
  /// experiment jobs never need to; nesting would deadlock a full pool).
  void submit(std::function<void()> job);

  int size() const { return static_cast<int>(workers_.size()); }

  /// Worker count used when none is given: the CATT_JOBS environment
  /// variable if set to a positive integer, else hardware_concurrency.
  static int default_jobs();

  /// Process-wide pool shared by all Runners that are not handed one.
  static Pool& shared();

 private:
  void worker_loop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace catt::exec
