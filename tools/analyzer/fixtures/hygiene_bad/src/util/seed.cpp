#include <chrono>
#include <cstdlib>
#include <ctime>
#include <random>

namespace fx {

unsigned a() { return static_cast<unsigned>(std::rand()); }
void b() { srand(7); }
unsigned c() { std::random_device rd; return rd(); }
long d() { return std::chrono::system_clock::now().time_since_epoch().count(); }
long e() { timeval tv; gettimeofday(&tv, nullptr); return tv.tv_sec; }
long f(std::time_t* t) { return std::time(t); }
long g() { return time(); }
long h() { return time(NULL); }
long i() { return time(nullptr); }
long j() { return time(0); }
long k() { return ::time(nullptr); }
#define FX_SEED_NOW() time(nullptr)

}  // namespace fx
