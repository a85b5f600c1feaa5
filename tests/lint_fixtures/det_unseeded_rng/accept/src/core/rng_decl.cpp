#include <random>
std::uint64_t draw(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  return rng();
}
std::uint64_t draw_mt64(std::uint64_t seed) {
  util::Mt64 engine(seed);
  util::Mt64& alias = engine;
  return alias();
}
