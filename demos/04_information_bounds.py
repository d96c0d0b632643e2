"""No-free-lunch side: how well could ANY attack do, and what privacy costs.

Modeling the released gradient as signal plus isotropic Gaussian noise,
the estimation limit follows from the input Jacobian's Gram matrix, which
``bound_for_observation`` builds in closed form; the observation's defense
records adjust it (clipping rescales the effective noise, masking deletes
observation coordinates).  The same noise model prices a formal privacy
guarantee, and the price grows linearly with the width.
"""
from gradleak import (
    Activation,
    ClipDefense,
    PruneRatioDefense,
    bound_for_observation,
    dp_delta,
    estimate_sensitivity,
    gradient,
    required_sigma,
    sample_batch,
    sample_params,
)

act = Activation("softplus")
d, B, sigma = 16, 2, 0.1

print("estimation lower bound vs width (sigma = 0.1):")
for m in (2**9, 2**10, 2**11, 2**12):
    params = sample_params(d, m, seed=0, activation=act)
    batch = sample_batch(d, B, seed=1)
    rep = bound_for_observation(params, batch, sigma, gradient(params, batch))
    print(f"  m = {m:5d}   exact {rep.rl_exact:.5f}   loose {rep.rl_loose:.5f}")

params = sample_params(d, 2**11, seed=0, activation=act)
batch = sample_batch(d, B, seed=1)
obs = gradient(params, batch)
base = bound_for_observation(params, batch, sigma, obs)

clipped = ClipDefense(obs.norm() / 4.0).apply(obs, 0)
rep = bound_for_observation(params, batch, sigma, clipped)
print(f"\nclipping at ||G||/4 rescales the effective noise: "
      f"{base.rl_exact:.5f} -> {rep.rl_exact:.5f}")

pruned = PruneRatioDefense(0.95).apply(obs, 0)
rep = bound_for_observation(params, batch, sigma, pruned)
print(f"pruning 95% of coordinates destroys "
      f"{rep.adjustments['mass_fraction_destroyed']:.1%} of the Jacobian mass: "
      f"{base.rl_exact:.5f} -> {rep.rl_exact:.5f}")

print("\nprivacy pricing (epsilon = 1, delta = 1e-5):")
for m in (256, 1024, 4096):
    p = sample_params(d, m, seed=2, activation=act)
    sens = estimate_sensitivity(p, trials=200, seed=3)
    s2 = required_sigma(1.0, 1e-5, sens)
    print(f"  m = {m:5d}   sampled sensitivity {sens:9.1f}   required variance {s2:12.1f}")
print("the variance needed for a formal guarantee scales with the width, "
      "which is why formally private training destroys gradient utility here")

print("\nforward direction: delta achieved by a given noise level")
for s2 in (10.0, 40.0, 160.0):
    print(f"  sigma^2 = {s2:6.1f}   delta = {dp_delta(1.0, s2, sensitivity=2.0):.3e}")
