namespace fx {
struct Rng {
  bool bernoulli(double p);
};
// Outside the draw-count scope: the same rate-gated draw is not reported.
bool cut(Rng& rng, double rate) { return rate > 0.0 && rng.bernoulli(rate); }
}  // namespace fx
