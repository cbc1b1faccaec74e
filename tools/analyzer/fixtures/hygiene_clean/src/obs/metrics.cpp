#include "obs/metrics.h"

#include <chrono>
#include <cstdio>
#include <unordered_map>

void MetricsRegistry::time(const std::string& name, double seconds) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s %g", name.c_str(), seconds);
  std::fprintf(stderr, "%s\n", buf);
  std::fwrite(buf, 1, 0, stderr);
}
double MetricsRegistry::time() const { return 0.0; }
void record(MetricsRegistry& m, MetricsRegistry* p) {
  m.time("t", 0.5);
  p->time("u", m.time());
}

// Monotonic clocks and unordered containers are fine outside the event core.
auto t0 = std::chrono::steady_clock::now();
std::unordered_map<int, int> cache;
