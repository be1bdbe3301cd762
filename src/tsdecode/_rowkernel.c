/* The gamma variates of one Dirichlet row, compiled.

   This is ``rng.Stream._gammas`` statement for statement:
   draw i of the stream keyed by ``key`` is mix64(key ^ mix64(i)), and each
   variate is one boosted Marsaglia-Tsang sample. The transcendentals are
   the libm functions CPython's ``math.log``, ``math.cos``, ``math.sqrt``
   and float ``**`` call, on the same operands in the same order, and the
   file must be compiled without floating-point contraction
   (-ffp-contract=off) or fast-math, so every variate has the bytes the
   Python loop gives. ``rowkernel.load`` checks that it does before ``rng``
   uses it. */

#include <math.h>
#include <stdint.h>

uint64_t tsd_gammas(uint64_t key, uint64_t start, int64_t n,
                    double concentration, double *out);

static uint64_t mix64(uint64_t x)
{
    uint64_t z = x + UINT64_C(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)) * UINT64_C(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)) * UINT64_C(0x94D049BB133111EB);
    return z ^ (z >> 31);
}

/* Draw ``i`` (counting from 1) of the stream keyed by ``key``, in (0, 1). */
static double uniform(uint64_t key, uint64_t i)
{
    return ((double)(mix64(key ^ mix64(i)) >> 11) + 0.5) * 0x1p-53;
}

/* Writes ``n`` gamma variates of shape ``concentration`` to ``out`` from
   the draws after ``start``, and returns the number of draws consumed. */
uint64_t tsd_gammas(uint64_t key, uint64_t start, int64_t n,
                    double concentration, double *out)
{
    /* Boost for shape < 1: Gamma(a) = Gamma(a + 1) * U^(1/a). */
    int boost = concentration < 1.0;
    double shape = boost ? concentration + 1.0 : concentration;
    double power = 1.0 / concentration;
    double d = shape - 1.0 / 3.0;
    double c = 1.0 / sqrt(9.0 * d);
    double two_pi = 2.0 * 3.141592653589793; /* 2.0 * math.pi */
    uint64_t i = start;
    for (int64_t k = 0; k < n; k++) {
        double b = boost ? uniform(key, ++i) : 0.0;
        double x, v, u;
        for (;;) {
            x = sqrt(-2.0 * log(uniform(key, i + 1))) * cos(two_pi * uniform(key, i + 2));
            v = 1.0 + c * x;
            if (v <= 0.0) {
                i += 2;
                continue;
            }
            v = v * v * v;
            u = uniform(key, i + 3);
            i += 3;
            if (u < 1.0 - 0.0331 * x * x * x * x || log(u) < 0.5 * x * x + d * (1.0 - v + log(v)))
                break;
        }
        out[k] = boost ? d * v * pow(b, power) : d * v;
    }
    return i - start;
}
