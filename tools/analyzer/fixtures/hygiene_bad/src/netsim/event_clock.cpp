#include <chrono>
#include <ctime>
#include <unordered_map>
#include <unordered_set>

namespace fx {

long a() { return std::chrono::steady_clock::now().time_since_epoch().count(); }
using Hr = std::chrono::high_resolution_clock;
long c() { return clock(); }
long d(long now) { return time(&now); }
long e() { return std::clock(); }
std::unordered_map<int, int> by_id;
std::unordered_set<int> seen;
std::unordered_multimap<int, int> multi;
std::unordered_multiset<int> bag;

}  // namespace fx
