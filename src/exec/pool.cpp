#include "exec/pool.hpp"

#include <algorithm>
#include <cstdlib>

#include "obs/obs.hpp"

namespace catt::exec {

Pool::Pool(int threads) {
  threads = std::max(1, threads);
  if (const obs::SimObs* ob = obs::resolve(nullptr)) {
    obs::Registry& reg = ob->registry_or_global();
    reg.set(reg.gauge("exec.pool.threads"), static_cast<std::uint64_t>(threads));
  }
  workers_.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

Pool::~Pool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : workers_) t.join();
}

void Pool::submit(std::function<void()> job) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(job));
  }
  cv_.notify_one();
}

void Pool::worker_loop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to run
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    // Job lifecycle observability rides the host timeline (pid 0,
    // wall-clock microseconds); the whole block folds away when obs is
    // off. The registry/trace sinks are per-thread sharded, so this adds
    // no cross-worker contention.
    if (const obs::SimObs* ob = obs::resolve(nullptr)) {
      obs::Registry& reg = ob->registry_or_global();
      reg.add(reg.counter("exec.pool.jobs"), 1);
      if (ob->trace_level >= 1) {
        obs::Tracer& tr = ob->tracer_or_global();
        const std::uint32_t name = tr.intern("pool_job");
        const std::int64_t t0 = tr.host_now_us();
        job();
        tr.record(obs::TraceEvent{name, 0, obs::Phase::kComplete, 0, tr.host_tid(), t0,
                                  tr.host_now_us() - t0, 0});
        continue;
      }
    }
    job();
  }
}

int Pool::default_jobs() {
  if (const char* env = std::getenv("CATT_JOBS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

Pool& Pool::shared() {
  static Pool pool;
  return pool;
}

}  // namespace catt::exec
