#include "spans.hpp"

#include <chrono>
#include <cstdio>
#include <ctime>
#include <fstream>

namespace perfbench {

double wall_now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_now_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) * 1e-6;
}

Spans::Spans(bool enabled) : enabled_(enabled), origin_ms_(wall_now_ms()) {}

int Spans::open(std::string name, std::string query) {
  if (!enabled_) return -1;
  Span s;
  s.name = std::move(name);
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.query = !query.empty() || s.parent < 0 ? std::move(query)
                                           : spans_[static_cast<std::size_t>(s.parent)].query;
  s.cpu_ms = cpu_now_ms();
  s.start_ms = wall_now_ms() - origin_ms_;
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void Spans::close(int id) {
  if (id < 0) return;
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end_ms = wall_now_ms() - origin_ms_;
  s.cpu_ms = cpu_now_ms() - s.cpu_ms;
  // Scopes close in LIFO order; tolerate an out-of-order close by popping
  // through it so the stack never keeps a closed span.
  while (!stack_.empty()) {
    const int top = stack_.back();
    stack_.pop_back();
    if (top == id) break;
  }
}

std::vector<const Span*> Spans::named(const std::string& name) const {
  std::vector<const Span*> out;
  for (const Span& s : spans_) {
    if (s.name.compare(0, name.size(), name) != 0) continue;
    if (s.name.size() == name.size() || s.name[name.size()] == ':') out.push_back(&s);
  }
  return out;
}

double Spans::wall_ms(const std::string& name) const {
  double sum = 0.0;
  for (const Span* s : named(name)) sum += s->end_ms - s->start_ms;
  return sum;
}

double Spans::cpu_ms(const std::string& name) const {
  double sum = 0.0;
  for (const Span* s : named(name)) sum += s->cpu_ms;
  return sum;
}

std::string Spans::nesting_error() const {
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ms < s.start_ms) return "span " + std::to_string(i) + " (" + s.name + ") not closed";
    if (s.parent < 0) continue;
    const Span& p = spans_[static_cast<std::size_t>(s.parent)];
    if (s.start_ms < p.start_ms || s.end_ms > p.end_ms) {
      return "span " + std::to_string(i) + " (" + s.name + ") escapes its parent (" + p.name +
             ")";
    }
  }
  return {};
}

namespace {

std::string json_escape(const std::string& in) {
  std::string out;
  for (char c : in) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

bool Spans::write_json(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"spans\":[";
  char buf[160];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "\"parent\":%d,\"start_ms\":%.6f,\"end_ms\":%.6f,\"cpu_ms\":%.6f", s.parent,
                  s.start_ms, s.end_ms, s.cpu_ms);
    f << (i == 0 ? "" : ",") << "\n{\"id\":" << i << ",\"name\":\"" << json_escape(s.name)
      << "\",\"query\":\"" << json_escape(s.query) << "\"," << buf << "}";
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

}  // namespace perfbench
