# Quick tour of the divergence toolkit: Renyi orders, the KL limit,
# and tensorization across product pairs.

import numpy as np

from htbounds import (
    BernoulliPair,
    Direction,
    FiniteDiscretePair,
    GaussianPair,
    kl_divergence,
    renyi_divergence,
)

bern = BernoulliPair(0.5, 0.6)
gauss = GaussianPair(2.0, 0.05)

print("pair                 lam=0.5     lam=2       lam=10      lam=1e5")
for name, pair in [("bernoulli:0.5,0.6", bern), ("gaussian:2,0.05", gauss)]:
    row = [renyi_divergence(pair, lam, Direction.REVERSE) for lam in (0.5, 2.0, 10.0, 1e5)]
    print(f"{name:20s} " + " ".join(f"{d:<11.6g}" for d in row))

# For the Bernoulli pair the orders stay below log(0.6/0.5); for the
# Gaussian pair they grow linearly in lambda.
print()
print("bernoulli cap log(0.6/0.5) =", np.log(0.6 / 0.5))

# The KL divergence is the lambda -> 1 limit.
for h in (1e-2, 1e-4, 1e-6):
    d = renyi_divergence(bern, 1.0 + h, Direction.FORWARD)
    print(f"D_(1+{h:g}) = {d:.10f}   KL = {kl_divergence(bern, Direction.FORWARD):.10f}")

# Divergences add over independent observations: the two-fold product
# of a 3-symbol pair has exactly twice the single-letter value.
p = (0.2, 0.3, 0.5)
q = (0.4, 0.4, 0.2)
single = FiniteDiscretePair(p, q)
product = FiniteDiscretePair(tuple(np.kron(p, p)), tuple(np.kron(q, q)))
print()
for lam in (0.5, 3.0):
    d1 = renyi_divergence(single, lam, Direction.FORWARD)
    d2 = renyi_divergence(product, lam, Direction.FORWARD)
    print(f"lam={lam}: single={d1:.12f}  product={d2:.12f}  ratio={d2 / d1:.12f}")

# The squared Hellinger distance is 1 - e^{-D_1/2 / 2}.
print()
h2 = [-np.expm1(-renyi_divergence(pair, 0.5, Direction.FORWARD) / 2.0) for pair in (bern, gauss)]
print("squared Hellinger:", *h2)
