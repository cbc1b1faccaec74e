namespace fx {
struct Rng {
  bool bernoulli(double p);
};
// The slot loop is in the draw-count scope: a rate-gated draw is reported.
int advance(Rng& rng, double frac, int whole) {
  return whole + ((frac > 0.0 && rng.bernoulli(frac)) ? 1 : 0);  // short-circuit
}
}  // namespace fx
