#pragma once

// A conditional that is not an include guard.
#ifndef FX_CHECKS
#define FX_CHECKS 0
#endif
