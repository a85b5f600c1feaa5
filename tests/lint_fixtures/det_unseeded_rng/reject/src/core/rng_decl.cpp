#include <random>
std::uint64_t draw() {
  std::mt19937_64 rng;
  return rng();
}
std::uint64_t draw_mt64() {
  util::Mt64 engine;
  return engine();
}
