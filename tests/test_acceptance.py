"""Acceptance suite: one test per criterion, one printed line per verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every verdict
line; the fast unit suite lives in the other test modules.  Parameters not
fixed by a criterion (activation choice, optimizer budgets) are pinned
here to the configuration each phenomenon needs; every tolerance is fixed.

Criterion 6 orders the two defenses the way the package's whole-vector
magnitude pruning forces: with d=16 the second-layer block ``grad_a`` holds 1/17 of
the coordinates and its entries dwarf the first-layer ones, so pruning at
ratio 0.9 < 16/17 keeps all but a handful of ``grad_a`` entries -- the
only block the moment attack reads -- and leaves its error at the
undefended level, while node dropout at the same nominal rate cuts the
effective width tenfold.  The criterion checks that precondition per seed
and then asserts dropout(0.9) >= prune(0.9) and dropout(0.9) >= undefended.
"""
import json

import numpy as np

from gradleak.activations import Activation, hermite_moments
from gradleak.bounds import bound_for_observation, dp_delta, estimate_sensitivity, required_sigma
from gradleak.defenses import (
    ClipDefense,
    DropoutDefense,
    NoiseDefense,
    PruneRatioDefense,
    local_aggregation,
)
from gradleak.gradmatch import GradMatchConfig, OptimizerConfig, grad_match_attack
from gradleak.harness import read_results_csv, sweep
from gradleak.metrics import min_perm_distance
from gradleak.network import gradient, sample_batch, sample_params
from gradleak.seeding import derive_seed
from gradleak.tensor_attack import (
    TensorAttackConfig,
    build_moment_matrix,
    build_projected_tensor,
    score_reconstruction,
    tensor_attack,
)
from oracles import (
    brute_force_min_perm,
    fd_input_jacobian,
    fd_loss_gradient,
    input_jacobian,
    loglog_slope,
)

SP = Activation("softplus")
EXP = Activation("exp")
SP_MO = hermite_moments(SP)
EXP_MO = hermite_moments(EXP)


def _report(num: int, desc: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {desc} -- {detail}")
    assert ok, f"criterion {num} ({desc}): {detail}"


def attack_rmse(d, m, B, seed, activation=EXP, transform=None):
    p = sample_params(d, m, seed=seed, activation=activation)
    b = sample_batch(d, B, seed=derive_seed(seed, 1))
    obs = gradient(p, b)
    if transform is not None:
        obs = transform(obs, p, b)
    res = tensor_attack(obs, p, B, TensorAttackConfig(seed=seed))
    return score_reconstruction(res, b.X).rmse


def test_criterion_01_derivative_oracles():
    rng = np.random.default_rng(101)
    worst_g, worst_j = 0.0, 0.0
    for _ in range(20):
        d = int(rng.integers(2, 9))
        m = int(rng.integers(4, 65))
        B = int(rng.integers(1, 5))
        seed = int(rng.integers(0, 2**31))
        p = sample_params(d, m, seed=seed, activation=SP)
        b = sample_batch(d, B, seed=seed + 1)
        g = gradient(p, b).flat
        fd_g = fd_loss_gradient(p, b, step=1e-5)
        worst_g = max(worst_g, np.linalg.norm(g - fd_g) / np.linalg.norm(fd_g))
        J = input_jacobian(p, b)
        fd_J = fd_input_jacobian(p, b, step=1e-6)
        worst_j = max(worst_j, np.linalg.norm(J - fd_J) / np.linalg.norm(fd_J))
    _report(
        1,
        "analytic gradients and Jacobians match finite differences",
        worst_g < 1e-6 and worst_j < 1e-5,
        f"worst gradient rel {worst_g:.2e} (<1e-6), worst Jacobian rel {worst_j:.2e} (<1e-5)",
    )


def test_criterion_02_stein_oracle():
    rng = np.random.default_rng(202)
    d, n = 4, 10**6
    x = rng.standard_normal(d)
    x /= np.linalg.norm(x)
    W = rng.standard_normal((n, d))
    worst = 0.0
    # order 2: averaged order-2 Hermite statistic lands on E[s''] x x^T
    for act, mo in ((SP, SP_MO), (EXP, EXP_MO)):
        g = act(W @ x)
        P = build_moment_matrix(g, W, mo)
        target = mo.raw[2] * np.outer(x, x)
        worst = max(worst, np.abs(P - target).max())
    # order 3: projected order-3 statistic lands on E[s'''] x^(x3)
    g = EXP(W @ x)
    T = build_projected_tensor(g, W, np.eye(d), EXP_MO)
    target3 = EXP_MO.raw[3] * np.einsum("p,q,r->pqr", x, x, x)
    worst = max(worst, np.abs(T - target3).max())
    _report(
        2,
        "sampled Hermite-weighted averages hit the moment builders' targets",
        worst < 5e-2,
        f"max-abs deviation {worst:.3e} over p in {{2,3}} at d=4, 1e6 samples (<5e-2)",
    )


def test_criterion_03_attack_error_scaling():
    d, B = 16, 2
    sizes = [2**k for k in range(11, 16)]
    medians = []
    for m in sizes:
        errs = [attack_rmse(d, m, B, seed=300 + s) for s in range(10)]
        medians.append(float(np.median(errs)))
    slope = loglog_slope(sizes, medians)
    b2 = float(np.median([attack_rmse(d, 2**14, 2, seed=300 + s) for s in range(10)]))
    b4 = float(np.median([attack_rmse(d, 2**14, 4, seed=300 + s) for s in range(10)]))
    ok = (-0.65 <= slope <= -0.35) and (b4 >= b2)
    _report(
        3,
        "attack error decays like 1/sqrt(width) and grows with batch size",
        ok,
        f"slope {slope:.3f} (in -0.5+-0.15), medians {['%.3f' % v for v in medians]}, "
        f"B=4 {b4:.3f} >= B=2 {b2:.3f}",
    )


def test_criterion_04_lower_bound_scaling_and_ordering():
    d, B, sigma = 32, 2, 0.1
    sizes = [2**k for k in range(10, 14)]
    medians = []
    for m in sizes:
        vals = []
        for seed in range(5):
            p = sample_params(d, m, seed=400 + seed, activation=SP)
            b = sample_batch(d, B, seed=450 + seed)
            vals.append(bound_for_observation(p, b, sigma, gradient(p, b)).rl_loose)
        medians.append(float(np.median(vals)))
    slope = loglog_slope(sizes, medians)

    # paired trials: the realized lower bound must sit below the attack error
    held = 0
    trials = 50
    for seed in range(trials):
        dd, mm = 16, 2**12
        p = sample_params(dd, mm, seed=4000 + seed, activation=EXP)
        b = sample_batch(dd, B, seed=4500 + seed)
        g = gradient(p, b)
        obs = NoiseDefense(sigma).apply(g, 4600 + seed)
        rmse = score_reconstruction(
            tensor_attack(obs, p, B, TensorAttackConfig(seed=seed)), b.X
        ).rmse
        rl = bound_for_observation(p, b, sigma, g).rl_exact
        held += rl <= rmse
    ok = (-0.65 <= slope <= -0.35) and held >= int(0.9 * trials)
    _report(
        4,
        "information bound scales like sigma*sqrt(d/m) and lower-bounds the attack",
        ok,
        f"slope {slope:.3f} (in -0.5+-0.15); bound below attack in {held}/{trials} trials (>=45)",
    )


def test_criterion_05_clipping_neutrality():
    worst = 0.0
    for seed in (500, 501):
        p = sample_params(8, 2**12, seed=seed, activation=EXP)
        b = sample_batch(8, 2, seed=seed + 50)
        obs = gradient(p, b)
        clipped = ClipDefense(obs.norm() / 5.0).apply(obs, 0)
        r0 = tensor_attack(obs, p, 2, TensorAttackConfig(seed=seed))
        r1 = tensor_attack(clipped, p, 2, TensorAttackConfig(seed=seed))
        worst = max(worst, float(np.abs(r0.samples - r1.samples).max()))
    _report(
        5,
        "norm clipping at ||G|| = 5C does not move the reconstruction",
        worst < 1e-9,
        f"max coordinate difference {worst:.2e} (<1e-9)",
    )


def test_criterion_06_defense_potency_ordering():
    d, B, m = 16, 2, 2**14
    undef, dropped, pruned, kept_a = [], [], [], []

    def prune(o, p, b):
        out = PruneRatioDefense(0.9).apply(o, 0)
        kept_a.append(int(np.count_nonzero(out.provenance[-1].mask[:m])))
        return out

    for s in range(10):
        seed = 600 + s
        undef.append(attack_rmse(d, m, B, seed))
        pruned.append(attack_rmse(d, m, B, seed, transform=prune))
        dropped.append(
            attack_rmse(
                d, m, B, seed,
                transform=lambda o, p, b: DropoutDefense(0.9).apply(o, derive_seed(seed, 9)),
            )
        )
    mu, md, mp = (float(np.median(v)) for v in (undef, dropped, pruned))
    # precondition: a 0.9 prune keeps >= 99.9% of grad_a, the block the
    # attack reads, so its error stays at the undefended level
    intact = min(kept_a) >= 0.999 * m and abs(mp - mu) < 0.01
    _report(
        6,
        "dropout(0.9) >= prune(0.9) ~ undefended for the moment attack",
        intact and md >= mp and md >= mu,
        f"medians: dropout {md:.3f}, prune {mp:.3f}, undefended {mu:.3f} "
        f"(|prune - undefended| < 0.01); prune(0.9) zeroed at most {m - min(kept_a)} "
        f"of {m} grad_a entries per seed (keeps >= 99.9%)",
    )


def test_criterion_07_noise_monotonicity():
    # small-output activation makes the pinned noise grid span the weak and
    # strong regimes: the noise coefficient in the error scales inversely
    # with the activation's derivative moments
    act = Activation("exp", scale=1e-3)
    d, B, m = 16, 2, 2**14
    medians = []
    for k, sigma0 in enumerate((0.0, 0.01, 0.1)):
        errs = []
        for s in range(10):
            seed = 700 + s
            errs.append(
                attack_rmse(
                    d, m, B, seed, activation=act,
                    transform=lambda o, p, b: NoiseDefense(sigma0).apply(o, derive_seed(seed, k)),
                )
            )
        medians.append(float(np.median(errs)))
    _report(
        7,
        "attack error is non-decreasing in the noise level {0, 0.01, 0.1}",
        medians[0] <= medians[1] <= medians[2],
        f"medians {['%.4f' % v for v in medians]}",
    )


def test_criterion_08_local_aggregation_two_steps():
    d, B, m = 16, 2, 2**14
    base, agg = [], []
    for s in range(5):
        seed = 800 + s
        p = sample_params(d, m, seed=seed, activation=EXP)
        b = sample_batch(d, B, seed=derive_seed(seed, 1))
        r0 = score_reconstruction(
            tensor_attack(gradient(p, b), p, B, TensorAttackConfig(seed=seed)), b.X
        ).rmse
        obs = local_aggregation(p, [b], eta_a=1.0 / m**2, eta_w=0.1 / np.sqrt(m), steps=2)
        r1 = score_reconstruction(
            tensor_attack(obs, p, B, TensorAttackConfig(seed=seed)), b.X
        ).rmse
        base.append(r0)
        agg.append(r1)
    mb, ma = float(np.median(base)), float(np.median(agg))
    _report(
        8,
        "a 2-step aggregated release is at most twice as hard to invert",
        ma <= 2.0 * mb,
        f"aggregated median {ma:.3f} vs 2x undefended {2 * mb:.3f}",
    )


def test_criterion_09_privacy_calculator():
    worst_rt = 0.0
    for eps, delta, sens in ((1.0, 1e-5, 2.0), (0.5, 1e-6, 10.0), (2.0, 1e-4, 0.5)):
        s2 = required_sigma(eps, delta, sens)
        worst_rt = max(worst_rt, abs(dp_delta(eps, s2, sens) - delta) / delta)
    sizes = (256, 1024, 4096)
    sigmas = []
    for m in sizes:
        p = sample_params(16, m, seed=900, activation=SP)
        sens = estimate_sensitivity(p, trials=200, seed=901)
        sigmas.append(required_sigma(1.0, 1e-5, sens))
    slope = loglog_slope(sizes, sigmas)
    ok = worst_rt < 1e-9 and slope >= 0.85
    _report(
        9,
        "noise calculator round-trips and the needed variance grows with width",
        ok,
        f"round-trip rel err {worst_rt:.2e} (<1e-9); growth slope {slope:.3f} (>=0.85, "
        "i.e. at least linear up to the suite's standard slope tolerance)",
    )


def test_criterion_10_assignment_metric_exact():
    rng = np.random.default_rng(1000)
    worst = 0.0
    for _ in range(200):
        B = int(rng.integers(1, 7))
        d = int(rng.integers(2, 9))
        S = rng.standard_normal((d, B))
        S_hat = rng.standard_normal((d, B))
        got, _, _ = min_perm_distance(S, S_hat, sign_resolve=True)
        want = brute_force_min_perm(S, S_hat, sign_resolve=True)
        worst = max(worst, abs(got - want))
    _report(
        10,
        "assignment-based error equals brute-force enumeration (B <= 6)",
        worst < 1e-10,
        f"largest deviation {worst:.2e} over 200 instances",
    )


def test_criterion_11_gradient_matching():
    # part 1: the well-posed single-sample case
    errs = []
    for s in range(5):
        seed = 1100 + s
        p = sample_params(8, 256, seed=seed, activation=SP)
        b = sample_batch(8, 1, seed=derive_seed(seed, 1))
        cfg = GradMatchConfig(seed=seed, optimizer=OptimizerConfig(max_iters=3000))
        res = grad_match_attack(gradient(p, b), p, b.y, cfg)
        errs.append(score_reconstruction(res, b.X).rmse)
    part1 = float(np.median(errs))

    # part 2: paired A/B under additive noise, cosine distance with
    # group reweighting so the default regularizer weight is meaningful
    d, B, m = 16, 2, 2**14
    base, reg = [], []
    for s in range(10):
        seed = 1150 + s
        p = sample_params(d, m, seed=seed, activation=EXP)
        b = sample_batch(d, B, seed=derive_seed(seed, 1))
        obs = NoiseDefense(0.1).apply(gradient(p, b), derive_seed(seed, 2))
        zhat = tensor_attack(obs, p, B, TensorAttackConfig(seed=seed)).samples
        common = dict(
            distance="negative-cosine",
            group_reweighting=True,
            optimizer=OptimizerConfig(max_iters=600),
            seed=seed,
        )
        plain = grad_match_attack(obs, p, b.y, GradMatchConfig(**common))
        pulled = grad_match_attack(
            obs, p, b.y,
            GradMatchConfig(feature_mode="cosine2", alpha_feature=0.1, **common),
            feature_targets=zhat,
        )
        base.append(score_reconstruction(plain, b.X).rmse)
        reg.append(score_reconstruction(pulled, b.X).rmse)
    mb, mr = float(np.median(base)), float(np.median(reg))
    ok = part1 < 0.05 and mr < mb
    _report(
        11,
        "matching attack solves B=1; feature pull strictly improves it under noise",
        ok,
        f"B=1 median {part1:.4f} (<0.05); noisy A/B medians: plain {mb:.3f} vs "
        f"regularized {mr:.3f} (strictly lower)",
    )


def test_criterion_12_sweep_determinism(tmp_path):
    cfg = {
        "base": {
            "d": 6,
            "B": 2,
            "activation": {"kind": "exp"},
            "attacks": {"tensor": {"subspace_iters": 60, "restarts": 4, "power_iters": 40}},
            "sigma": 0.1,
            "trials": 2,
            "base_seed": 12,
            "defenses": [],
        },
        "grid": {"m": [128, 256]},
    }
    sweep(cfg, tmp_path / "a")
    sweep(cfg, tmp_path / "b")

    def stripped(p):
        lines = (p / "results.csv").read_text().strip().split("\n")
        return "\n".join(",".join(ln.split(",")[:-1]) for ln in lines)

    csv_same = stripped(tmp_path / "a") == stripped(tmp_path / "b")

    def records_sans_wall(p):
        data = json.loads((p / "results.json").read_text())
        for rec in data["records"]:
            rec.pop("wall_ms", None)
        for row in data["rows"]:
            row.pop("wall_ms", None)
        return data

    json_same = records_sans_wall(tmp_path / "a") == records_sans_wall(tmp_path / "b")
    rows = read_results_csv(tmp_path / "a" / "results.csv")
    _report(
        12,
        "repeated sweeps are byte-identical apart from wall-time measurements",
        csv_same and json_same and len(rows) == 4,
        f"csv match {csv_same}, json match {json_same}, rows {len(rows)}",
    )
