"""The benchmark's workloads, as pure data built from one seed.

``make_workload(name, seed)`` returns a plain dict and imports nothing from
the package, so it is a pure function of its arguments.  The seed becomes
``base_seed`` of every experiment config; nothing else depends on it.

Two kinds of workload exist:

``trial``  the closed loop calls ``run_trial(config, i)`` back to back,
           cycling ``i`` over the first ``pool`` trial indices.
``sweep``  the closed loop calls ``sweep(spec, out, force=True,
           workers=...)`` back to back; every call recomputes the same grid.

Cycling a small pool keeps every timed trial covered by the stored
reference values, and makes each repeat a determinism check.
"""
from __future__ import annotations

import copy

WHY = {
    "bound-d32": (
        "Dense-Jacobian Cramer-Rao path with a masked fold; J is 554 MB, above "
        "L3. ROADMAP's baseline table used unpinned BLAS threads, so it is not "
        "comparable with these runs."
    ),
    "gradmatch-d16": (
        "Noisy gradient matching (criterion 11 A/B case): ~1200 gradient and "
        "VJP calls on an L2-sized vector per trial; never builds the Jacobian "
        "or a bound."
    ),
    "attack-d64": (
        "ROADMAP's largest reference size, tensor attack only: samplers, noise "
        "and the projected tensor dominate. Bounds off: the dense J would be "
        "17.4 GB."
    ),
    "sweep-utility": (
        "Sweep on its 2-worker pool with 300-step utility training: the defense "
        "chain on every training step, plus the sweep's CSV/JSON I/O and thread "
        "pool."
    ),
}

NAMES = tuple(WHY)

_BASE = {
    "bound-d32": {
        "kind": "trial",
        "pool": 4,
        "config": {
            "d": 32,
            "m": 16384,
            "B": 4,
            "activation": {"kind": "exp"},
            "defenses": [
                {"variant": "dropout", "rate": 0.5},
                {"variant": "clip", "threshold": 1.0},
                {"variant": "noise", "sigma0": 0.01},
            ],
            "attacks": {"tensor": {}},
            "sigma": 0.01,
            "compute_bounds": True,
        },
    },
    "gradmatch-d16": {
        "kind": "trial",
        "pool": 4,
        "config": {
            "d": 16,
            "m": 16384,
            "B": 2,
            "activation": {"kind": "exp"},
            "defenses": [{"variant": "noise", "sigma0": 0.1}],
            "attacks": {
                "tensor": {},
                "gradmatch": {
                    "distance": "negative-cosine",
                    "group_reweighting": True,
                    "feature_mode": "cosine2",
                    "alpha_feature": 0.1,
                    "feature_source": "tensor",
                    "optimizer": {"max_iters": 600},
                },
            },
            "sigma": 0.1,
            "compute_bounds": False,
        },
    },
    "attack-d64": {
        "kind": "trial",
        "pool": 8,
        "config": {
            "d": 64,
            "m": 65536,
            "B": 8,
            "activation": {"kind": "exp"},
            "defenses": [{"variant": "noise", "sigma0": 0.01}],
            "attacks": {"tensor": {}},
            "sigma": 0.01,
            "compute_bounds": False,
        },
    },
    "sweep-utility": {
        "kind": "sweep",
        "workers": 2,
        "sweep": {
            "base": {
                "d": 16,
                "m": 4096,
                "B": 2,
                "activation": {"kind": "softplus"},
                "attacks": {"tensor": {}},
                "compute_bounds": False,
                "utility": {"steps": 300},
                "trials": 2,
            },
            "grid": {
                "defenses": [
                    [
                        {"variant": "clip", "threshold": 1.0},
                        {"variant": "noise", "sigma0": 0.01},
                    ],
                    [{"variant": "dropout", "rate": 0.5}],
                    [{"variant": "prune_ratio", "ratio": 0.9}],
                    [{"variant": "noise", "sigma0": 0.05}],
                ],
            },
        },
    },
}


def make_workload(name: str, seed: int) -> dict:
    """The inputs of workload ``name`` for workload seed ``seed``."""
    if name not in _BASE:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    spec = copy.deepcopy(_BASE[name])
    spec["name"] = name
    spec["seed"] = seed
    spec["why"] = WHY[name]
    if spec["kind"] == "trial":
        spec["config"]["base_seed"] = seed
    else:
        spec["sweep"]["base"]["base_seed"] = seed
    return spec
