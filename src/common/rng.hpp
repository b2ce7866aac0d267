// Deterministic random number generation.
//
// Experiments must be bit-reproducible across platforms and standard
// libraries, so we implement both the generator (xoshiro256**) and every
// distribution ourselves instead of relying on std::<...>_distribution,
// whose outputs are implementation-defined.
#pragma once

#include <cstdint>
#include <vector>

namespace vnfr::common {

/// xoshiro256** PRNG seeded through SplitMix64, as recommended by the
/// xoshiro authors. Satisfies UniformRandomBitGenerator.
class Rng {
  public:
    using result_type = std::uint64_t;

    /// Seeds the four lanes of state from `seed` via SplitMix64.
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~0ULL; }

    /// Next raw 64-bit output.
    std::uint64_t operator()();

    /// Uniform double in [0, 1) with 53 bits of precision.
    double uniform01();

    /// Uniform double in [lo, hi). Precondition: lo <= hi.
    double uniform(double lo, double hi);

    /// Uniform integer in the inclusive range [lo, hi] without modulo bias.
    std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

    /// Bernoulli trial with success probability p in [0, 1].
    bool bernoulli(double p);

    /// Exponential variate with rate lambda > 0.
    double exponential(double lambda);

    /// Bounded Pareto variate on [lo, hi] with shape alpha > 0. Heavy-tailed
    /// durations (Google-cluster-like workloads) are drawn from this.
    double bounded_pareto(double alpha, double lo, double hi);

    /// Poisson variate with mean in (0, ~700); inversion by sequential search.
    int poisson(double mean);

    /// Normal variate via Marsaglia polar method.
    double normal(double mean, double stddev);

    /// Sample k distinct indices from [0, n) in selection order.
    std::vector<std::size_t> sample_without_replacement(std::size_t n, std::size_t k);

    /// Derive an independent child generator; `stream` distinguishes children
    /// seeded from the same parent state.
    Rng split(std::uint64_t stream);

  private:
    std::uint64_t state_[4];
    double cached_normal_{0};
    bool has_cached_normal_{false};
};

/// Counter-based stream seeding for parallel experiments: a stateless hash
/// of (master_seed, stream), so replication `stream` draws the same random
/// sequence no matter which thread runs it, in what order, or how many
/// replications run beside it. This — not splitting a shared generator —
/// is what makes the experiment engine thread-count-invariant.
///
/// The hash finalizes two rounds of SplitMix64 over both inputs; distinct
/// (master_seed, stream) pairs map to distinct-looking seeds, and
/// stream_seed(s, k) != s + k, so streams never collide with the legacy
/// additive seeding scheme by construction of use.
std::uint64_t stream_seed(std::uint64_t master_seed, std::uint64_t stream);

/// Rng seeded with stream_seed(master_seed, stream).
Rng stream_rng(std::uint64_t master_seed, std::uint64_t stream);

}  // namespace vnfr::common
