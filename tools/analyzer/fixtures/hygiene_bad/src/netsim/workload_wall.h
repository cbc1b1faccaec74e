#pragma once

#include <chrono>

inline auto wall() { return std::chrono::system_clock::now(); }
