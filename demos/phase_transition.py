# The phase transition at the divergence: let the Type I budget decay
# as eps_n = e^{-nc}.  For c above D(P1||P0) every test degrades to
# beta -> 1, which renyi_converse at log eps = -c n shows; for c below it
# a threshold test drives beta -> 0 exponentially, which
# phase_transition_achievability at the same log eps shows.  Both sides
# have closed-form exponents for Gaussians.

import math

from htbounds import (
    Direction,
    kl_divergence,
    parse_pair,
    phase_transition_achievability,
    renyi_converse,
)

pair = parse_pair("gaussian:2,0.05")
d = kl_divergence(pair, Direction.REVERSE)
print(f"divergence D(P1||P0) = {d:.6g}")

c_hi = 20.0 * d
expo = (math.sqrt(c_hi) - math.sqrt(d)) ** 2
print(f"\nabove: c = 20 D, closed-form exponent (sqrt(c)-sqrt(D))^2 = {expo:.6g}")
print(" n     converse bound      1 - closed form")
for n in (50, 100, 200, 500, 1000):
    r = renyi_converse(pair, n, -c_hi * n)
    print(f"{n:5d}  {r.value:.12f}  {1.0 - math.exp(-n * expo):.12f}")
print(f"optimizer lambda* = {renyi_converse(pair, 200, -c_hi * 200).optimizer:.6f}"
      f"  vs sqrt(c/D) = {math.sqrt(c_hi / d):.6f}")

c_lo = 0.25 * d
print(f"\nbelow: c = D/4, beta is pushed to zero instead")
print(" n       achievability upper bound")
for n in (1000, 3000, 10000, 30000):
    r = phase_transition_achievability(pair, n, -c_lo * n)
    print(f"{n:6d}   {r.value:.6g}   (exponent per sample {-r.log_value / n:.3e})")
print(f"matches (sqrt(c)-sqrt(D))^2 = {(math.sqrt(c_lo) - math.sqrt(d)) ** 2:.3e}")
