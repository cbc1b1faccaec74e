// Outside the src/netsim/event* and src/netsim/workload* prefixes: the
// rule covers every file under src/netsim/.
#include <unordered_map>

namespace fx {

std::unordered_map<int, int> pools_by_fiber;
long stamp() { return clock(); }

}  // namespace fx
