#include <cstdio>
#include <iostream>

namespace fx {

void a() { std::cout << "x"; }
void b() { std::cerr << "x"; }
void c() { printf("x\n"); }
void d() { puts("x"); }
void e() { std::fprintf(stdout, "x\n"); }
void f() { std::printf("x\n"); }
void g() { std::puts("x"); }
void h() { ::printf("x\n"); }

}  // namespace fx
