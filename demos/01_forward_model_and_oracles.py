"""Walk through the forward model every other capability builds on.

A two-layer random-feature network maps a unit-norm input through m random
directions:  f(x) = sum_j a_j s(w_j . x).  A training client reveals the
gradient of the summed square loss on its batch; everything in this
repository treats that gradient as the output of a known map applied to
the unknown batch.  This script builds the pieces and checks the hand
derivations against finite differences.
"""
import numpy as np

from gradleak import (
    Activation,
    gradient,
    hermite_moments,
    input_gram,
    sample_batch,
    sample_params,
)
from gradleak.network import loss

act = Activation("softplus")
params = sample_params(d=6, m=48, seed=0, activation=act)
batch = sample_batch(d=6, B=3, seed=1)

print("network: d =", params.d, " m =", params.m, " batch B =", batch.B)
print("sample matrix condition, smallest singular value:", round(batch.min_singular_value, 4))

obs = gradient(params, batch)
print("\nflattened gradient length:", obs.flat.size, "= m + m*d")
print("gradient norm:", round(obs.norm(), 4))

# finite-difference spot check of one coordinate of the a-block
j = 5
h = 1e-6
a_up = params.a.copy()
a_up[j] += h
a_dn = params.a.copy()
a_dn[j] -= h
from gradleak.network import NetworkParams

fd = (
    loss(NetworkParams(a=a_up, W=params.W, activation=act), batch)
    - loss(NetworkParams(a=a_dn, W=params.W, activation=act), batch)
) / (2 * h)
print(f"d loss / d a[{j}]: analytic {obs.grad_a[j]:+.8f}  finite-diff {fd:+.8f}")

# the input Jacobian J says how the observation responds to the inputs; the
# information-theoretic bounds consume its Gram matrix J J^T, built in closed
# form without forming J
G, mass = input_gram(params, batch)
J_shape = (G.shape[0], params.n_coords)
print("\ninput Jacobian shape:", J_shape, "(batch coords x observation coords)")
print("tr(J J^T):", round(mass, 3))

# which Hermite orders of the activation carry the moment attack's signal
for kind in ("softplus", "exp", "cubic"):
    mo = hermite_moments(Activation(kind))
    print(
        f"\n{kind:>8}: matrix statistic at order {mo.matrix_order} "
        f"(weight {mo.matrix_weight:.4f}), tensor statistic at order "
        f"{mo.tensor_order} (weight {mo.tensor_weight:.4f})"
    )
    print("          raw moments E[s(z) He_k(z)], k=0..4:",
          np.array2string(mo.raw, precision=4))
