#ifndef FX_GUARDED_H
#define FX_GUARDED_H

int guarded();

#endif  // FX_GUARDED_H
