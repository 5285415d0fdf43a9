#include "util/env_flags.h"

#include <cstdlib>

namespace decima {

int env_int(const char* name, int fallback) {
  const char* v = std::getenv(name);
  if (!v) return fallback;
  char* end = nullptr;
  const long parsed = std::strtol(v, &end, 10);
  if (end == v) return fallback;
  return static_cast<int>(parsed);
}

}  // namespace decima
