#include <cstdio>
#include <iostream>

// Tests may print: stdio-in-src covers src/ only.
void report() { std::printf("tests may print\n"); std::cout << "x\n"; }
