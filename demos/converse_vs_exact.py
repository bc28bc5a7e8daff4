"""How tight is the Renyi converse against the exact optimum?

Fixes the Type I budget at eps = 0.01 and walks the block length up for
a Bernoulli pair, printing the converse, the Fano baseline, and the
exact randomized Neyman-Pearson Type II error it must stay below.  The
exact beta is the type oracle's, exact in log; ``np_exact_bernoulli``
forms it as 1 - P1(reject), 1.1e-4 relative too high at n = 1600.
"""

import math

from htbounds import fano_bound, np_exact_discrete, parse_pair, renyi_converse

pair = parse_pair("bernoulli:0.5,0.6")
log_eps = math.log(0.01)

print(" n     renyi        fano         exact beta   renyi/exact")
for n in (25, 50, 100, 200, 400, 800, 1600):
    conv = renyi_converse(pair, n, log_eps)
    fano = fano_bound(pair, n, log_eps)
    exact = np_exact_discrete(pair, n, log_eps)
    ratio = conv.value / exact.beta if exact.beta > 0 else float("inf")
    print(
        f"{n:4d}  {conv.value:<12.6g} {fano.value:<12.6g}"
        f" {exact.beta:<12.6g} {ratio:.4f}"
    )

# The converse is sound (ratio <= 1) everywhere, while the Fano line
# only becomes informative once n is moderately large.  At constant eps
# the two decay at comparable rates eventually; the gap between either
# of them and the exact beta is the small-n story.
n = 400
conv = renyi_converse(pair, n, log_eps)
exact = np_exact_discrete(pair, n, log_eps)
print()
print(f"n={n}: log ratio per sample = {(conv.log_value - exact.log_beta) / n:.3e}")
print(f"optimizing order lambda = {conv.optimizer:.4f}")
