// Comments may precede the pragma: it is still the first token.
#pragma once

#include <string>

// Member calls and declarations named time are not the C time().
struct MetricsRegistry {
  void time(const std::string& name, double seconds);
  double time() const;
};
