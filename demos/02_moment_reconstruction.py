"""Recover a batch from nothing but the second-layer gradient block.

The attack averages the observed gradient coordinates against Hermite
tensors of the known random first-layer rows, turning them into data
moment tensors; a subspace step plus a small tensor decomposition then
separates the individual samples (up to sign and order, which the metric
resolves).  Error falls off like 1/sqrt(width).
"""
import numpy as np

from gradleak import (
    Activation,
    TensorAttackConfig,
    gradient,
    sample_batch,
    sample_params,
    score_reconstruction,
    tensor_attack,
)

act = Activation("exp")  # order-3 tensor path, strongest at desk scale
d, B = 16, 2

print("median reconstruction error vs width (10 trials each):")
for m in (2**11, 2**12, 2**13, 2**14, 2**15):
    errs = []
    for seed in range(10):
        params = sample_params(d, m, seed=seed, activation=act)
        batch = sample_batch(d, B, seed=1000 + seed)
        res = tensor_attack(gradient(params, batch), params, B, TensorAttackConfig(seed=seed))
        errs.append(score_reconstruction(res, batch.X).rmse)
    print(f"  m = {m:6d}   rmse = {np.median(errs):.4f}")

# one reconstruction in detail
params = sample_params(d, 2**14, seed=3, activation=act)
batch = sample_batch(d, B, seed=1003)
res = score_reconstruction(
    tensor_attack(gradient(params, batch), params, B, TensorAttackConfig(seed=3)),
    batch.X,
)
print("\none run at m = 16384:")
print("  rmse:", round(res.rmse, 4))
print("  matching:", res.assignment, " signs:", res.signs)
print("  extraction weights:", np.round(res.diagnostics["weights"], 3),
      "(sign hints at the labels at random init)")
print("  subspace gap:", round(res.diagnostics["subspace_gap"], 3))
for i in range(B):
    align = abs(float(batch.X[:, i] @ res.samples[:, res.assignment[i]]))
    print(f"  |<x_{i}, recovered>| = {align:.4f}")
