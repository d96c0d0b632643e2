"""Optimization-based inversion, and when moment-based directions help it.

Gradient matching optimizes candidate samples until their gradient matches
the observed one.  Undefended and single-sample it solves the problem to
numerical precision; under additive noise its landscape degrades, and
pulling the candidates toward the moment attack's recovered directions
(sign-proof squared-cosine penalty) restores much of the accuracy.
"""
import numpy as np

from gradleak import (
    Activation,
    GradMatchConfig,
    NoiseDefense,
    OptimizerConfig,
    TensorAttackConfig,
    grad_match_attack,
    gradient,
    sample_batch,
    sample_params,
    score_reconstruction,
    tensor_attack,
)

# part 1: the well-posed case
act = Activation("softplus")
params = sample_params(d=8, m=256, seed=0, activation=act)
batch = sample_batch(d=8, B=1, seed=1)
cfg = GradMatchConfig(seed=0, optimizer=OptimizerConfig(max_iters=3000))
res = grad_match_attack(gradient(params, batch), params, batch.y, cfg)
scored = score_reconstruction(res, batch.X)
print(f"B=1, m=256, no defense: rmse = {scored.rmse:.2e} "
      f"after {res.diagnostics['iterations']} iterations")

# part 2: additive noise, with and without the feature pull
act = Activation("exp")
d, B, m = 16, 2, 2**14
plain_errs, pulled_errs = [], []
for seed in range(10):
    params = sample_params(d, m, seed=seed, activation=act)
    batch = sample_batch(d, B, seed=100 + seed)
    obs = NoiseDefense(0.1).apply(gradient(params, batch), 200 + seed)
    zhat = tensor_attack(obs, params, B, TensorAttackConfig(seed=seed)).samples
    common = dict(
        distance="negative-cosine",
        group_reweighting=True,
        optimizer=OptimizerConfig(max_iters=600),
        seed=seed,
    )
    plain = grad_match_attack(obs, params, batch.y, GradMatchConfig(**common))
    pulled = grad_match_attack(
        obs, params, batch.y,
        GradMatchConfig(feature_mode="cosine2", alpha_feature=0.1, **common),
        feature_targets=zhat,
    )
    plain_errs.append(score_reconstruction(plain, batch.X).rmse)
    pulled_errs.append(score_reconstruction(pulled, batch.X).rmse)

print(f"\nadditive noise 0.1 at B=2, m=16384 (10 trials):")
print("  plain matching      rmse per trial:", np.round(plain_errs, 3))
print("  with feature pull   rmse per trial:", np.round(pulled_errs, 3))
print(f"  median {np.median(plain_errs):.3f} -> {np.median(pulled_errs):.3f},  "
      f"mean {np.mean(plain_errs):.3f} -> {np.mean(pulled_errs):.3f}")
print("  the pull's main value is rescuing the catastrophic seeds the noisy "
      "landscape strands far from the batch")
