#include "spans.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <mutex>

namespace pb::spans {

namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point g_epoch = Clock::now();

std::atomic<bool> g_on{false};
std::mutex g_mu;
std::vector<Rec> g_recs;  // guarded by g_mu
std::atomic<int> g_next_tid{1};

thread_local int t_open = -1;
thread_local int t_tid = 0;

double now_us() {
  return std::chrono::duration<double, std::micro>(Clock::now() - g_epoch).count();
}

}  // namespace

void enable(bool on) { g_on.store(on, std::memory_order_relaxed); }
bool enabled() { return g_on.load(std::memory_order_relaxed); }

Span::Span(const char* name, const char* layer, std::int64_t id) {
  if (!enabled()) return;
  if (t_tid == 0) t_tid = g_next_tid.fetch_add(1);
  Rec r;
  r.name = name;
  r.layer = layer;
  r.tid = t_tid;
  r.parent = t_open;
  r.id = id;
  r.t0_us = now_us();
  std::lock_guard<std::mutex> lk(g_mu);
  idx_ = static_cast<int>(g_recs.size());
  g_recs.push_back(r);
  t_open = idx_;
}

Span::~Span() {
  if (idx_ < 0) return;
  const double t1 = now_us();
  std::lock_guard<std::mutex> lk(g_mu);
  Rec& r = g_recs[static_cast<std::size_t>(idx_)];
  r.t1_us = t1;
  t_open = r.parent;
}

std::vector<Rec> snapshot() {
  std::lock_guard<std::mutex> lk(g_mu);
  return g_recs;
}

void clear() {
  std::lock_guard<std::mutex> lk(g_mu);
  g_recs.clear();
}

std::vector<std::pair<std::string, double>> self_ms_by_layer(const std::vector<Rec>& recs) {
  std::vector<double> child_us(recs.size(), 0.0);
  for (const Rec& r : recs)
    if (r.parent >= 0) child_us[static_cast<std::size_t>(r.parent)] += r.t1_us - r.t0_us;
  std::map<std::string, double> by_layer;
  for (std::size_t i = 0; i < recs.size(); ++i)
    by_layer[recs[i].layer] += (recs[i].t1_us - recs[i].t0_us - child_us[i]) / 1e3;
  return {by_layer.begin(), by_layer.end()};
}

bool write_chrome(const std::string& path, const std::vector<Rec>& recs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"traceEvents\":[", f);
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const Rec& r = recs[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                 "\"pid\":1,\"tid\":%d,\"args\":{\"span\":%zu,\"parent\":%d,\"id\":%lld}}",
                 i ? "," : "", r.name, r.layer, r.t0_us, r.t1_us - r.t0_us, r.tid, i, r.parent,
                 static_cast<long long>(r.id));
  }
  std::fputs("\n],\"displayTimeUnit\":\"ms\"}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace pb::spans
