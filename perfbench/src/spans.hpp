// Span recorder of the traced run. A Span wraps one call from the
// benchmark's own code into a layer's public function; spans nest per
// thread (the enclosing open span is the parent) and stay in memory until
// the run ends, when they are written as Chrome trace_event JSON. Nothing
// inside the program is instrumented. While tracing is off a Span costs one
// relaxed load.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace pb::spans {

void enable(bool on);
bool enabled();

struct Rec {
  const char* name = "";
  const char* layer = "";
  double t0_us = 0.0;  ///< microseconds since the recorder's epoch
  double t1_us = 0.0;
  int tid = 0;
  int parent = -1;        ///< index of the enclosing span, -1 at top level
  std::int64_t id = -1;   ///< request id shared by one request's spans
};

class Span {
 public:
  Span(const char* name, const char* layer, std::int64_t id = -1);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int idx_ = -1;
};

/// Every span recorded so far (in start order) and a reset.
std::vector<Rec> snapshot();
void clear();

/// Self time (span duration minus the part covered by its child spans)
/// summed per layer, in milliseconds.
std::vector<std::pair<std::string, double>> self_ms_by_layer(const std::vector<Rec>& recs);

/// Writes {"traceEvents":[...]} with one complete ("X") event per span.
bool write_chrome(const std::string& path, const std::vector<Rec>& recs);

}  // namespace pb::spans
