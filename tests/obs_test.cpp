// Observability subsystem tests: registry aggregation across exec pool
// threads (run under TSan in CI), histogram bucketing, ring-buffer
// overflow drop accounting, and a Chrome trace JSON round-trip through a
// minimal in-test parser that validates span nesting per (pid, tid).
#include <gtest/gtest.h>

#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "exec/pool.hpp"
#include "obs/obs.hpp"

namespace catt::obs {
namespace {

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(Registry, CounterAndGaugeScrape) {
  Registry reg;
  const MetricId c = reg.counter("test.counter");
  const MetricId g = reg.gauge("test.gauge");
  reg.add(c, 5);
  reg.add(c, 7);
  reg.set(g, 3);
  reg.set(g, 9);  // gauges overwrite, not accumulate

  const Registry::Snapshot snap = reg.scrape();
  EXPECT_EQ(snap.counter_or("test.counter"), 12u);
  EXPECT_EQ(snap.counter_or("test.gauge"), 9u);
  EXPECT_EQ(snap.counter_or("no.such.metric", 42), 42u);
}

TEST(Registry, RegistrationIdempotentKindMismatchThrows) {
  Registry reg;
  const MetricId c = reg.counter("dual");
  EXPECT_EQ(reg.counter("dual"), c);  // same handle on re-registration
  EXPECT_THROW(reg.gauge("dual"), Error);
  EXPECT_THROW(reg.histogram("dual", {1, 2}), Error);

  const HistogramDesc* h = reg.histogram("hist", {1, 2, 4});
  EXPECT_EQ(reg.histogram("hist", {1, 2, 4}), h);  // pointer-stable
  EXPECT_THROW(reg.histogram("hist", {1, 2, 8}), Error);  // bounds mismatch
  EXPECT_THROW(reg.counter("hist"), Error);
}

TEST(Registry, HistogramBucketsCountSum) {
  Registry reg;
  const HistogramDesc* h = reg.histogram("lat", {1, 2, 4});
  for (const std::uint64_t v : {0u, 1u, 2u, 3u, 4u, 5u, 100u}) reg.observe(*h, v);

  const Registry::Snapshot snap = reg.scrape();
  const Registry::HistogramValue* hv = snap.histogram("lat");
  ASSERT_NE(hv, nullptr);
  ASSERT_EQ(hv->buckets.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(hv->buckets[0], 2u);      // 0, 1      (<= 1)
  EXPECT_EQ(hv->buckets[1], 1u);      // 2         (<= 2)
  EXPECT_EQ(hv->buckets[2], 2u);      // 3, 4      (<= 4)
  EXPECT_EQ(hv->buckets[3], 2u);      // 5, 100    (overflow)
  EXPECT_EQ(hv->count, 7u);
  EXPECT_EQ(hv->sum, 115u);
  EXPECT_EQ(hv->bounds, (std::vector<std::uint64_t>{1, 2, 4}));
}

TEST(Registry, AggregatesAcrossPoolThreads) {
  // Four workers each add from their own shard while the main thread
  // scrapes concurrently (the TSan target: relaxed-atomic slots must make
  // the concurrent scrape well-defined). A start latch holds every worker
  // until all four run, so the adds demonstrably come from four distinct
  // threads (four shards), not one worker draining the queue.
  Registry reg;
  const MetricId c = reg.counter("pool.work");
  const HistogramDesc* h = reg.histogram("pool.sizes", {10, 100});

  std::mutex mu;
  std::condition_variable cv;
  int started = 0;
  {
    exec::Pool pool(4);
    for (int j = 0; j < 4; ++j) {
      pool.submit([&] {
        {
          std::unique_lock<std::mutex> lock(mu);
          ++started;
          cv.notify_all();
          cv.wait(lock, [&] { return started == 4; });
        }
        for (int i = 0; i < 64; ++i) {
          reg.add(c, 3);
          reg.observe(*h, static_cast<std::uint64_t>(i));
        }
      });
    }
    (void)reg.scrape();  // concurrent with the workers; value is approximate
    // Pool destructor joins after the queue drains.
  }

  const Registry::Snapshot snap = reg.scrape();
  EXPECT_EQ(snap.counter_or("pool.work"), 4u * 64u * 3u);
  const Registry::HistogramValue* hv = snap.histogram("pool.sizes");
  ASSERT_NE(hv, nullptr);
  EXPECT_EQ(hv->count, 4u * 64u);
  EXPECT_EQ(hv->sum, 4u * (63u * 64u / 2u));
  EXPECT_EQ(hv->buckets[0], 4u * 11u);  // 0..10
  EXPECT_EQ(hv->buckets[1], 4u * 53u);  // 11..63
  EXPECT_EQ(hv->buckets[2], 0u);        // overflow
  EXPECT_GE(reg.shard_count(), 4u);
}

TEST(Registry, RenderSortsByName) {
  Registry reg;
  reg.add(reg.counter("z.last"), 1);
  reg.add(reg.counter("a.first"), 2);
  const std::string out = reg.render();
  const std::size_t a = out.find("a.first 2");
  const std::size_t z = out.find("z.last 1");
  ASSERT_NE(a, std::string::npos);
  ASSERT_NE(z, std::string::npos);
  EXPECT_LT(a, z);
}

// ---------------------------------------------------------------------------
// Tracer: minimal JSON parser for round-trip validation
// ---------------------------------------------------------------------------

struct ParsedEvent {
  std::string name;
  char ph = '?';
  std::int64_t pid = -1;
  std::int64_t tid = -1;
  std::int64_t ts = 0;
  bool has_dur = false;
  std::int64_t dur = 0;
  std::map<std::string, std::string> args;  // raw scalar text
};

/// Strict cursor parser for the schema Tracer::to_json emits: one object
/// {"traceEvents":[...]} whose elements are flat event objects with at
/// most one level of "args" nesting. Any syntax violation fails the test.
class MiniJson {
 public:
  explicit MiniJson(const std::string& text) : s_(text) {}

  bool parse(std::vector<ParsedEvent>& out) {
    if (!eat('{') || !key("traceEvents") || !eat('[')) return false;
    skip_ws();
    if (peek() != ']') {
      do {
        ParsedEvent e;
        if (!parse_event(e)) return false;
        out.push_back(std::move(e));
      } while (try_eat(','));
    }
    if (!eat(']') || !eat('}')) return false;
    skip_ws();
    return i_ == s_.size();
  }

 private:
  void skip_ws() {
    while (i_ < s_.size() &&
           (s_[i_] == ' ' || s_[i_] == '\n' || s_[i_] == '\t' || s_[i_] == '\r')) {
      ++i_;
    }
  }
  char peek() {
    skip_ws();
    return i_ < s_.size() ? s_[i_] : '\0';
  }
  bool try_eat(char c) {
    if (peek() != c) return false;
    ++i_;
    return true;
  }
  bool eat(char c) { return try_eat(c); }

  bool parse_string(std::string& out) {
    if (!eat('"')) return false;
    out.clear();
    while (i_ < s_.size() && s_[i_] != '"') {
      if (s_[i_] == '\\') {
        if (++i_ >= s_.size()) return false;
        switch (s_[i_]) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'u': i_ += 4; out += '?'; break;  // escapes below 0x20
          default: return false;
        }
        ++i_;
      } else {
        out += s_[i_++];
      }
    }
    return i_ < s_.size() && s_[i_++] == '"';
  }

  bool parse_number(std::string& out) {
    skip_ws();
    out.clear();
    if (i_ < s_.size() && s_[i_] == '-') out += s_[i_++];
    while (i_ < s_.size() && s_[i_] >= '0' && s_[i_] <= '9') out += s_[i_++];
    return !out.empty() && out != "-";
  }

  bool key(const std::string& expect) {
    std::string k;
    return parse_string(k) && k == expect && eat(':');
  }

  bool parse_args(ParsedEvent& e) {
    if (!eat('{')) return false;
    do {
      std::string k, v;
      if (!parse_string(k) || !eat(':')) return false;
      if (peek() == '"') {
        if (!parse_string(v)) return false;
      } else if (!parse_number(v)) {
        return false;
      }
      e.args[k] = v;
    } while (try_eat(','));
    return eat('}');
  }

  bool parse_event(ParsedEvent& e) {
    if (!eat('{')) return false;
    do {
      std::string k;
      if (!parse_string(k) || !eat(':')) return false;
      std::string v;
      if (k == "name") {
        if (!parse_string(e.name)) return false;
      } else if (k == "ph") {
        if (!parse_string(v) || v.size() != 1) return false;
        e.ph = v[0];
      } else if (k == "cat") {
        if (!parse_string(v)) return false;
      } else if (k == "args") {
        if (!parse_args(e)) return false;
      } else if (k == "pid" || k == "tid" || k == "ts" || k == "dur") {
        if (!parse_number(v)) return false;
        const std::int64_t n = std::stoll(v);
        if (k == "pid") e.pid = n;
        if (k == "tid") e.tid = n;
        if (k == "ts") e.ts = n;
        if (k == "dur") {
          e.dur = n;
          e.has_dur = true;
        }
      } else {
        return false;  // unknown key: the schema is closed
      }
    } while (try_eat(','));
    return eat('}');
  }

  const std::string& s_;
  std::size_t i_ = 0;
};

std::vector<ParsedEvent> parse_trace_or_die(const Tracer& tracer) {
  const std::string json = tracer.to_json();
  std::vector<ParsedEvent> events;
  EXPECT_TRUE(MiniJson(json).parse(events)) << "unparseable trace JSON:\n" << json;
  return events;
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

TEST(Tracer, RingOverflowDropAccounting) {
  Tracer tracer(/*ring_capacity=*/8);
  const std::uint32_t name = tracer.intern("tick");
  for (std::int64_t ts = 0; ts < 20; ++ts) {
    tracer.record(TraceEvent{name, 0, Phase::kInstant, 0, 0, ts, 0, 0});
  }
  EXPECT_EQ(tracer.recorded(), 8u);
  EXPECT_EQ(tracer.dropped(), 12u);

  // The newest events survive; the overwritten oldest are gone.
  const std::vector<ParsedEvent> events = parse_trace_or_die(tracer);
  std::set<std::int64_t> kept;
  for (const ParsedEvent& e : events) kept.insert(e.ts);
  EXPECT_EQ(kept, (std::set<std::int64_t>{12, 13, 14, 15, 16, 17, 18, 19}));

  tracer.clear();
  EXPECT_EQ(tracer.recorded(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(Tracer, JsonRoundTripValidatesNesting) {
  Tracer tracer;
  const std::uint32_t pid = tracer.begin_launch("kernelA");
  const std::uint32_t outer = tracer.intern("outer");
  const std::uint32_t inner = tracer.intern("inner");
  const std::uint32_t mark = tracer.intern("mark");
  const std::uint32_t span = tracer.intern("span");
  const std::uint32_t arg_block = tracer.intern("block");

  // Nested B/E spans on (pid, tid 0), plus an instant and a complete.
  tracer.record(TraceEvent{outer, 0, Phase::kBegin, pid, 0, 0, 0, 0});
  tracer.record(TraceEvent{inner, 0, Phase::kBegin, pid, 0, 5, 0, 0});
  tracer.record(TraceEvent{mark, arg_block, Phase::kInstant, pid, 0, 6, 0, 17});
  tracer.record(TraceEvent{inner, 0, Phase::kEnd, pid, 0, 7, 0, 0});
  tracer.record(TraceEvent{outer, 0, Phase::kEnd, pid, 0, 10, 0, 0});
  // Independent tid on the same pid, and a host-pid complete event.
  tracer.record(TraceEvent{outer, 0, Phase::kBegin, pid, 1, 2, 0, 0});
  tracer.record(TraceEvent{outer, 0, Phase::kEnd, pid, 1, 3, 0, 0});
  tracer.record(TraceEvent{span, 0, Phase::kComplete, 0, 0, 1, 4, 0});

  const std::vector<ParsedEvent> events = parse_trace_or_die(tracer);
  ASSERT_EQ(events.size(), 9u);

  // Metadata first, then a non-decreasing timeline.
  EXPECT_EQ(events[0].ph, 'M');
  EXPECT_EQ(events[0].name, "sim:kernelA");
  EXPECT_EQ(events[0].args.at("name"), "sim:kernelA");
  EXPECT_EQ(events[0].pid, static_cast<std::int64_t>(pid));
  for (std::size_t i = 2; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].ts, events[i].ts);
  }

  // Span discipline per (pid, tid): every E pops the matching B, every X
  // carries a duration, and no stack is left open at the end.
  std::map<std::pair<std::int64_t, std::int64_t>, std::vector<std::string>> stacks;
  std::size_t instants = 0;
  for (const ParsedEvent& e : events) {
    if (e.ph == 'M') continue;
    auto& stack = stacks[{e.pid, e.tid}];
    switch (e.ph) {
      case 'B':
        stack.push_back(e.name);
        break;
      case 'E':
        ASSERT_FALSE(stack.empty()) << "E without open B for " << e.name;
        EXPECT_EQ(stack.back(), e.name);
        stack.pop_back();
        break;
      case 'X':
        EXPECT_TRUE(e.has_dur);
        break;
      case 'i':
        ++instants;
        EXPECT_EQ(e.args.at("block"), "17");
        break;
      default:
        FAIL() << "unexpected phase " << e.ph;
    }
  }
  EXPECT_EQ(instants, 1u);
  for (const auto& [key, stack] : stacks) {
    EXPECT_TRUE(stack.empty()) << "unbalanced span stack on pid " << key.first;
  }
}

TEST(Tracer, EscapesHostileNames) {
  Tracer tracer;
  const std::uint32_t id = tracer.intern("evil\"\\\nname");
  tracer.record(TraceEvent{id, 0, Phase::kInstant, 0, 0, 0, 0, 0});
  const std::vector<ParsedEvent> events = parse_trace_or_die(tracer);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "evil\"\\\nname");
}

TEST(Tracer, SimTraceCtxInternsOncePerTracer) {
  Tracer tracer;
  const SimTraceCtx a = SimTraceCtx::for_launch(tracer, 1, "k1");
  const SimTraceCtx b = SimTraceCtx::for_launch(tracer, 2, "k2");
  EXPECT_NE(a.pid, b.pid);
  EXPECT_EQ(a.id_launch, b.id_launch);  // shared intern table
  EXPECT_EQ(a.id_miss, b.id_miss);
  EXPECT_FALSE(a.fine());
  EXPECT_TRUE(b.fine());
}

// ---------------------------------------------------------------------------
// SimObs plumbing
// ---------------------------------------------------------------------------

TEST(SimObs, ResolveGatesOnActivity) {
  SimObs off;  // no knob set
  EXPECT_EQ(resolve(&off), nullptr);

  SimObs on;
  on.metrics_interval = 64;
  EXPECT_EQ(resolve(&on), &on);
}

TEST(SimObs, AccumMirrorsIntoRegistry) {
  Registry reg;
  Accum a(&reg, reg.counter("t.us"));
  a.start();
  a.stop();
  a.start();
  a.stop();
  EXPECT_GE(a.ms(), 0.0);
  // Two stop()s mirrored; wall-clock so only bounds are assertable.
  const Registry::Snapshot snap = reg.scrape();
  EXPECT_GE(snap.counter_or("t.us", 0), 0u);
}

TEST(SimObs, AccumCarriesSubMicrosecondRemainders) {
  // Intervals far shorter than a microsecond, as when a clock wraps one
  // cheap block at a time: the registry must read the accumulated total
  // (floor of the nanoseconds), not a sum of per-stop truncations.
  Registry reg;
  Accum a(&reg, reg.counter("t.us"));
  for (int i = 0; i < 10000; ++i) {
    a.start();
    a.stop();
  }
  const double us = a.ms() * 1000.0;
  const auto mirrored = static_cast<double>(reg.scrape().counter_or("t.us", 0));
  EXPECT_LE(mirrored, us + 1.0);
  EXPECT_GE(mirrored, us - 1.0);
}

}  // namespace
}  // namespace catt::obs
