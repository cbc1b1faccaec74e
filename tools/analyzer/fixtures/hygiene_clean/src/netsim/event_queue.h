#pragma once

#include <map>

// Virtual time: members named time are not wall clocks.
struct Event { long time = 0; };
struct EventQueue { long time() const { return 0; } };
inline long next(const EventQueue& q, Event e) { return q.time() + e.time; }
inline std::map<int, int> ordered;
