#pragma once

#include <random>

// No file is exempt, not even the shared bench header.
inline unsigned entropy() { return std::random_device{}(); }
