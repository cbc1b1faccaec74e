#include <cstdlib>

int seeded() { return std::rand(); }
