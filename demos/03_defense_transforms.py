"""What each defense does to the observation, and what actually helps.

Key punchlines reproduced here at desk scale:
  - norm clipping is a global rescaling and the moment attack is exactly
    scale-invariant, so clipping alone defends nothing;
  - magnitude pruning below ratio d/(d+1) keeps all but a handful of the
    second-layer entries, the only ones the moment attack reads; past that
    ratio it reaches them but raises the error only modestly;
  - node dropout genuinely shrinks the effective width and hurts it.
"""
import numpy as np

from gradleak import (
    Activation,
    ClipDefense,
    DropoutDefense,
    NoiseDefense,
    PruneRatioDefense,
    TensorAttackConfig,
    compose,
    dp_sgd_preset,
    gradient,
    local_aggregation,
    sample_batch,
    sample_params,
    score_reconstruction,
    secure_aggregate,
    tensor_attack,
)
from gradleak.network import DataBatch

act = Activation("exp")
d, B, m = 16, 2, 2**14
params = sample_params(d, m, seed=0, activation=act)
batch = sample_batch(d, B, seed=1)
obs = gradient(params, batch)


def rmse_of(observation, n=B, truth=None):
    res = tensor_attack(observation, params, n, TensorAttackConfig(seed=0))
    return score_reconstruction(res, batch.X if truth is None else truth).rmse


print(f"undefended             rmse = {rmse_of(obs):.4f}   ||G|| = {obs.norm():.2f}")

clipped = ClipDefense(obs.norm() / 5.0).apply(obs, 0)
print(f"clip to ||G||/5        rmse = {rmse_of(clipped):.4f}   "
      f"(realized factor {clipped.provenance[-1].clip_factor:.3f})")

for ratio in (0.5, 0.9, 0.99):
    pruned = PruneRatioDefense(ratio).apply(obs, 0)
    touched = np.count_nonzero(pruned.grad_a == 0.0)
    print(f"prune ratio {ratio:<5}      rmse = {rmse_of(pruned):.4f}   "
          f"(second-layer entries zeroed: {touched})")

for rate in (0.5, 0.9):
    dropped = DropoutDefense(rate).apply(obs, 7)
    print(f"node dropout {rate:<5}     rmse = {rmse_of(dropped):.4f}")

# this activation puts the gradient entries around |g| ~ 5, so the noise
# level must be compared against that scale
for sigma0 in (0.5, 5.0, 50.0):
    noisy = NoiseDefense(sigma0).apply(obs, 8)
    print(f"additive noise {sigma0:<5}   rmse = {rmse_of(noisy):.4f}")

private = compose(dp_sgd_preset(threshold=2.0, sigma0=0.05), obs, seed=9)
print(f"clip(2)+noise(0.05)    rmse = {rmse_of(private):.4f}   "
      f"provenance: {[r.variant for r in private.provenance]}")

agg = local_aggregation(params, [batch], eta_a=1 / m**2, eta_w=0.1 / np.sqrt(m), steps=2)
print(f"2-step aggregation     rmse = {rmse_of(agg):.4f}   "
      f"(release is the rescaled parameter difference)")

# secure aggregation: two clients, the server sees one anonymous mean
b1 = DataBatch(X=batch.X[:, :1], y=batch.y[:1])
b2 = DataBatch(X=batch.X[:, 1:], y=batch.y[1:])
merged = secure_aggregate([(gradient(params, b1), 1), (gradient(params, b2), 1)])
print(f"secure aggregation     rmse = {rmse_of(merged):.4f}   "
      f"(union recovered, client identity gone)")
