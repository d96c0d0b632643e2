import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from gradleak import defenses, network
from gradleak.activations import Activation
from gradleak.errors import DimensionError
from gradleak.network import (
    DataBatch,
    GradientObservation,
    forward,
    gradient,
    input_gram,
    loss,
    sample_batch,
    sample_params,
)
from conftest import traced_peak, whole_calls
from oracles import (allocating_input_gram, allocating_w_block_rows, fd_input_jacobian,
                     fd_loss_gradient, gradient_input_vjp, input_jacobian)

SP = Activation("softplus")


def test_sample_params_rejects_degenerate_sizes():
    with pytest.raises(DimensionError):
        sample_params(0, 8, 1, SP)
    with pytest.raises(DimensionError):
        sample_params(4, 0, 1, SP)


def test_sample_params_deterministic():
    p1 = sample_params(4, 1024, seed=7, activation=SP)
    p2 = sample_params(4, 1024, seed=7, activation=SP)
    assert np.array_equal(p1.a, p2.a) and np.array_equal(p1.W, p2.W)


def test_sample_params_empirical_moments():
    m = 1024
    p = sample_params(4, m, seed=7, activation=SP)
    assert abs(p.a.mean()) < 3.0 / m
    assert 0.5 / m**2 <= p.a.var() <= 2.0 / m**2
    row_norms = np.linalg.norm(p.W, axis=1)
    assert 0.8 * 2.0 <= row_norms.mean() <= 1.2 * 2.0  # sqrt(d) = 2


def test_minimal_network_layout():
    p = sample_params(1, 1, seed=0, activation=SP)
    b = sample_batch(1, 1, seed=1)
    assert gradient(p, b).flat.shape == (2,)  # 1 + 1*1 coordinates


def test_param_scaling_tails():
    # 20 seeds at m=4096, d=64; generous tail bounds must hold for >= 95%
    m, d = 4096, 64
    ok = 0
    for seed in range(20):
        p = sample_params(d, m, seed=seed, activation=SP)
        a_ok = np.abs(p.a).max() < (6.0 / m) * np.sqrt(2.0 * np.log(m))
        w_ok = np.linalg.norm(p.W, axis=1).max() < np.sqrt(d) + 4.0 * np.sqrt(np.log(m))
        ok += a_ok and w_ok
    assert ok >= 19


def test_forward_zero_weights():
    from gradleak.network import NetworkParams

    base = sample_params(5, 16, seed=0, activation=SP)
    p = NetworkParams(a=np.zeros_like(base.a), W=base.W, activation=SP)
    x = np.zeros(5)
    x[0] = 1.0
    assert forward(p, x) == 0.0


def test_forward_single_unit_value():
    from gradleak.network import NetworkParams

    p = NetworkParams(a=np.array([2.0]), W=np.eye(1, 4), activation=SP)
    x = np.zeros(4)
    x[0] = 1.0
    assert forward(p, x) == pytest.approx(2.0 * np.log1p(np.e), rel=1e-12)


def test_forward_dimension_check():
    p = sample_params(4, 8, seed=0, activation=SP)
    with pytest.raises(DimensionError):
        forward(p, np.zeros(5))


def test_forward_stays_order_one_at_width_4096():
    vals = []
    for seed in range(100):
        p = sample_params(8, 4096, seed=seed, activation=SP)
        b = sample_batch(8, 1, seed=10_000 + seed)
        vals.append(abs(forward(p, b.X[:, 0])))
    assert np.percentile(vals, 99) < 1.0


def test_gradient_zero_residual():
    p = sample_params(6, 12, seed=3, activation=SP)
    b = sample_batch(6, 2, seed=4)
    fitted = DataBatch(X=b.X, y=np.array([forward(p, b.X[:, i]) for i in range(2)]))
    g = gradient(p, fitted)
    assert np.abs(g.flat).max() < 1e-14


def test_gradient_matches_finite_differences():
    p = sample_params(6, 32, seed=5, activation=SP)
    b = sample_batch(6, 3, seed=6)
    g = gradient(p, b).flat
    fd = fd_loss_gradient(p, b, step=1e-5)
    assert np.linalg.norm(g - fd) / np.linalg.norm(fd) < 1e-6


@pytest.mark.parametrize("kind", ["softplus", "exp", "cubic"])
def test_gradient_equals_the_out_of_place_products_bit_for_bit(kind):
    # gradient scales one (m, B) temporary in place; the products are the same
    act = Activation(kind, 0.7)
    p = sample_params(9, 300, seed=2, activation=act)
    b = sample_batch(9, 4, seed=3)
    z = p.W @ b.X
    s, s1 = act.derivatives(z, 1)
    r = 2.0 * (s.T @ p.a - b.y)
    grad_a = s @ r
    grad_W = (p.a[:, None] * (s1 * r[None, :])) @ b.X.T
    assert gradient(p, b).flat.tobytes() == np.concatenate([grad_a, grad_W.ravel()]).tobytes()


@pytest.mark.parametrize("B", [1, 2, 3, 8])
@pytest.mark.parametrize("kind", ["softplus", "exp", "cubic"])
def test_gradient_split_in_halves_equals_the_whole_call(split_halves, kind, B):
    # W @ X by row halves, C @ X^T whole; odd m and odd d put the cut off any block
    p = sample_params(7, 1001, seed=B, activation=Activation(kind, 0.7))
    b = sample_batch(7, B, seed=B + 50)
    split = gradient(p, b)
    assert len(split_halves.names) == (0 if B == 1 else 1)  # W @ X at B = 1 is a GEMV, whole
    with whole_calls():
        whole = gradient(p, b)
    assert split.flat.tobytes() == whole.flat.tobytes()


def test_row_halves_equal_the_whole_products_at_attack_d64_shapes(split_halves):
    # the reference workload's sizes: W (65536, 64) and B = 8; the split products are
    # the whole calls' bytes, with the upper half on the spare or here after the lower
    # (the moment matrix's blocks: test_tensor_attack.py)
    rng = np.random.default_rng(64)
    W = rng.standard_normal((65536, 64))
    X = rng.standard_normal((64, 8))
    for a, b in ((W, X), (W @ X, X.T)):
        for spare in (split_halves, None):
            with network._spare_thread(spare):
                assert network._matmul_rows(a, b).tobytes() == (a @ b).tobytes()
    assert len(split_halves.names) == 2


def test_the_spare_half_runs_under_the_callers_errstate(split_halves):
    # numpy keeps np.errstate per thread; the lower half waits until the spare
    # has started the upper one, so the spare certainly runs it
    started, over = threading.Event(), {}

    def fn(lo, hi):
        if lo == 0:
            assert started.wait(timeout=10)
        else:
            started.set()
        over[lo] = np.geterr()["over"]

    with np.errstate(over="ignore"):
        network._halves(fn, 4, 1)
    assert over == {0: "ignore", 2: "ignore"} and len(split_halves.names) == 1


def test_only_network_spells_out_a_floating_point_error_policy():
    # every other module ignores numpy's floating-point errors through _quiet
    src = Path(network.__file__).parent
    assert [f.name for f in sorted(src.glob("*.py")) if "np.errstate(" in f.read_text()] == [
        "network.py"]


def test_halves_split_by_shape_alone_on_the_spare_thread_or_here_lower_first():
    # the partition depends on n and the size alone; a lent spare runs the upper
    # half, and without one both run here, the lower first
    me, calls = threading.current_thread(), []
    fn = lambda lo, hi: calls.append((lo, hi, threading.current_thread()))  # noqa: E731
    network._halves(fn, 9, 1 << 40)
    assert calls == [(0, 4, me), (4, 9, me)]
    for n, size in ((9, network._SPLIT_MIN - 1), (3, 1 << 40)):  # below the floor, n < 4
        calls.clear()
        network._halves(fn, n, size)
        assert calls == [(0, n, me)]
    with ThreadPoolExecutor(max_workers=1) as pool, network._spare_thread(pool):
        calls.clear()
        pool.submit(network._halves, fn, 9, 1 << 40).result()  # the spare lends nothing
        assert [c[:2] for c in calls] == [(0, 4), (4, 9)] and calls[0][2] is calls[1][2]
        calls.clear()
        network._halves(fn, 4, network._SPLIT_MIN)
        assert sorted(c[:2] for c in calls) == [(0, 2), (2, 4)]
        assert {lo: t is me for lo, _, t in calls} == {0: True, 2: False}


@pytest.mark.parametrize("raising", ["this thread", "spare"])
def test_halves_error_surfaces_after_the_other_half_finished_writing(raising):
    out = np.zeros(10)
    started = threading.Event()

    def fn(lo, hi):
        if lo > 0:
            started.set()
        else:
            assert started.wait(10)  # both halves are running
        if (lo == 0) == (raising == "this thread"):
            raise ValueError("half failed")
        time.sleep(0.2)
        out[lo:hi] = 1.0

    with ThreadPoolExecutor(max_workers=1) as pool, network._spare_thread(pool):
        with pytest.raises(ValueError, match="half failed"):
            network._halves(fn, 10, 1 << 40)
        written, failed = (out[5:], out[:5]) if raising == "this thread" else (out[:5], out[5:])
        assert (written == 1.0).all()  # before the error surfaced
        assert (failed == 0.0).all()


def test_beside_without_a_spare_runs_here_first():
    ran = []
    assert network._beside(lambda: ran.append("there") or 1,
                           lambda: ran.append("here") or 2) == (1, 2)
    assert ran == ["here", "there"]


def test_beside_leaves_there_to_the_spare_even_when_it_starts_late():
    # the spare is busy until here itself releases it, so there has not
    # started when here ends; the spare still runs it, not this thread
    me, ran, release = threading.current_thread(), [], threading.Event()

    def here():
        ran.append(("here", threading.current_thread()))
        release.set()
        return 2

    with ThreadPoolExecutor(max_workers=1) as pool, network._spare_thread(pool):
        pool.submit(release.wait, 10)
        got = network._beside(lambda: ran.append(("there", threading.current_thread())) or 1,
                              here)
    assert got == (1, 2) and [name for name, _ in ran] == ["here", "there"]
    assert ran[0][1] is me and ran[1][1] is not me


@pytest.mark.parametrize("spare", [False, True], ids=["no-spare", "spare"])
def test_beside_raises_heres_error_first(spare):
    def fail(name):
        raise ValueError(name)

    with ThreadPoolExecutor(max_workers=1) as pool, network._spare_thread(pool if spare else None):
        with pytest.raises(ValueError, match="here"):
            network._beside(lambda: fail("there"), lambda: fail("here"))


def test_sampled_params_and_batch_are_read_only():
    # both trial threads read them, so a write would corrupt the other's work
    p = sample_params(3, 5, seed=1, activation=SP)
    b = sample_batch(3, 2, seed=2)
    for name, arr in (("W", p.W), ("a", p.a), ("X", b.X), ("y", b.y)):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0
        assert not arr.flags.writeable, name


def test_gradient_batch_linearity():
    p = sample_params(5, 24, seed=9, activation=SP)
    b = sample_batch(5, 4, seed=10)
    whole = gradient(p, b).flat
    parts = sum(
        gradient(p, DataBatch(X=b.X[:, i:i + 1], y=b.y[i:i + 1])).flat
        for i in range(4)
    )
    assert np.linalg.norm(whole - parts) <= 1e-12 * np.linalg.norm(whole)


def test_flatten_round_trip_exact():
    p = sample_params(7, 20, seed=1, activation=SP)
    b = sample_batch(7, 2, seed=2)
    g = gradient(p, b)
    buf = np.concatenate([g.grad_a, g.grad_W.ravel()])
    back = GradientObservation(buf, p.m, p.d)
    assert np.array_equal(back.grad_a, g.grad_a)
    assert np.array_equal(back.grad_W, g.grad_W)
    assert np.array_equal(back.flat, g.flat)
    # the constructor owns the buffer it is given; the blocks are views of it
    assert back.flat is buf and not buf.flags.writeable
    assert np.shares_memory(back.grad_a, buf) and np.shares_memory(back.grad_W, buf)
    with pytest.raises(DimensionError):
        GradientObservation(buf[1:], p.m, p.d)


def test_input_jacobian_matches_finite_differences():
    p = sample_params(5, 16, seed=11, activation=SP)
    b = sample_batch(5, 2, seed=12)
    J = input_jacobian(p, b)
    fd = fd_input_jacobian(p, b, step=1e-6)
    assert np.linalg.norm(J - fd) / np.linalg.norm(fd) < 1e-5


def test_input_jacobian_zero_second_layer():
    # a = 0 collapses the network output, its input gradient h, and every
    # W-block; the a-block reduces to -2 y s'(z) w
    from gradleak.network import NetworkParams

    base = sample_params(4, 6, seed=13, activation=SP)
    p = NetworkParams(a=np.zeros(6), W=base.W, activation=SP)
    b = sample_batch(4, 1, seed=14)
    J = input_jacobian(p, b)
    assert np.abs(J[:, 6:]).max() == 0.0
    z = p.W @ b.X[:, 0]
    expected = -2.0 * b.y[0] * (p.W * SP.derivatives(z, 1)[1][:, None]).T
    assert np.allclose(J[:, :6], expected, atol=1e-12)


def test_vjp_matches_dense_jacobian():
    p = sample_params(6, 40, seed=21, activation=SP)
    b = sample_batch(6, 3, seed=22)
    J = input_jacobian(p, b)
    rng = np.random.default_rng(23)
    u = rng.standard_normal(p.n_coords)
    dense = (J @ u).reshape(b.B, p.d).T
    fast = gradient_input_vjp(p, b, u[:p.m], u[p.m:].reshape(p.m, p.d))
    assert np.linalg.norm(dense - fast) / np.linalg.norm(dense) < 1e-10


# all but "random-half" keep or drop whole W rows, so they take the row path
GRAM_MASKS = (
    "all-kept", "all-dropped", "a-block-only", "W-block-only", "random-half",
    "node-dropout", "rows-kept-a-dropped", "rows-mixed-a-random",
)


def _mixed_rows(m, rng):
    rows = rng.random(m) < 0.5
    rows[0] = True
    rows[1:2] = False
    return rows


def _gram_mask(kind, m, n, rng):
    keep = np.zeros(n, dtype=bool)
    d = n // m - 1
    if kind == "all-kept":
        keep[:] = True
    elif kind == "a-block-only":
        keep[:m] = True
    elif kind == "W-block-only":
        keep[m:] = True
    elif kind == "random-half":
        keep = rng.random(n) < 0.5
    elif kind == "node-dropout":
        rows = _mixed_rows(m, rng)
        keep[:m] = rows
        keep[m:] = np.repeat(rows, d)
    elif kind == "rows-kept-a-dropped":
        rows = _mixed_rows(m, rng)
        keep[:m] = ~rows
        keep[m:] = np.repeat(rows, d)
    elif kind == "rows-mixed-a-random":
        keep[:m] = rng.random(m) < 0.5
        keep[m:] = np.repeat(_mixed_rows(m, rng), d)
    return keep


@pytest.mark.parametrize("kind", ["softplus", "exp"])
@pytest.mark.parametrize("seed", range(6))
def test_input_gram_matches_dense_jacobian(kind, seed):
    rng = np.random.default_rng(seed)
    d, m, B = int(rng.integers(1, 9)), int(rng.integers(1, 65)), int(rng.integers(1, 5))
    p = sample_params(d, m, seed=40 + seed, activation=Activation(kind))
    b = sample_batch(d, B, seed=80 + seed)
    J = input_jacobian(p, b)
    for mask in GRAM_MASKS:
        keep = _gram_mask(mask, m, p.n_coords, rng)
        G, mass = input_gram(p, b, keep)
        dense = J[:, keep] @ J[:, keep].T
        assert G.shape == (B * d, B * d)
        assert np.linalg.norm(G - dense) <= 1e-12 * np.linalg.norm(dense), (mask, d, m, B)
        assert mass == pytest.approx(np.sum(J * J), rel=1e-12)
    G, mass = input_gram(p, b)
    assert np.linalg.norm(G - J @ J.T) <= 1e-12 * np.linalg.norm(J @ J.T)


def _w_block_operands(d, m, B, seed):
    rng = np.random.default_rng(seed)
    P = rng.standard_normal((B, d, m))
    Q = rng.standard_normal((B, m))
    X = rng.standard_normal((d, B))
    return P, Q, X / np.linalg.norm(X, axis=0)


@pytest.mark.parametrize(
    "d, m, B, rate, seed",
    [(1, 1, 1, 0.5, 0), (3, 7, 1, 0.5, 1), (5, 40, 3, 0.0, 2), (8, 64, 4, 0.5, 3),
     (6, 33, 2, 0.9, 4), (2, 50, 5, 1.0, 5), (32, 16384, 4, 0.5, 6)],
)
def test_row_and_coordinate_w_block_terms_agree(d, m, B, rate, seed):
    P, Q, X = _w_block_operands(d, m, B, seed)
    rows = np.random.default_rng(100 + seed).random(m) >= rate
    G_rows = np.zeros((B * d, B * d))
    network._add_w_block_rows(G_rows, P.copy(), Q, X, rows)
    G_coords = np.zeros((B * d, B * d))
    network._add_w_block_coords(G_coords, P, Q, X, np.repeat(rows[:, None], d, axis=1))
    assert np.linalg.norm(G_rows - G_coords) <= 1e-12 * np.linalg.norm(G_coords)


@pytest.mark.parametrize("d, m, B, seed", [(1, 1, 1, 0), (3, 7, 2, 1), (8, 3000, 3, 2),
                                           (32, 16385, 4, 3)])
def test_row_w_block_terms_equal_the_whole_array_form_bit_for_bit(d, m, B, seed):
    # operands of order one, so that the per-sample diagonal term shows in G
    P, Q, X = _w_block_operands(d, m, B, seed)
    rows = _mixed_rows(m, np.random.default_rng(seed))
    G, ref = np.zeros((B * d, B * d)), np.zeros((B * d, B * d))
    allocating_w_block_rows(ref, P, Q, X, rows)
    network._add_w_block_rows(G, P, Q, X, rows)
    assert G.tobytes() == ref.tobytes()


@pytest.mark.parametrize(
    "defend, path",
    [
        (lambda o: o, "rows"),
        (lambda o: defenses.ClipDefense(1e-3).apply(o, 0), "rows"),
        (lambda o: defenses.NoiseDefense(0.01).apply(o, 5), "rows"),
        (lambda o: defenses.DropoutDefense(0.5).apply(o, 5), "rows"),
        (lambda o: defenses.DropoutDefense(0.5, node_level=False).apply(o, 5), "coords"),
        (lambda o: defenses.PruneRatioDefense(0.5).apply(o, 0), "coords"),
    ],
    ids=["none", "clip", "noise", "node-dropout", "coordinate-dropout", "prune"],
)
def test_input_gram_takes_the_row_path_for_row_constant_masks(monkeypatch, defend, path):
    p = sample_params(4, 32, seed=3, activation=SP)
    b = sample_batch(4, 2, seed=4)
    keep = np.ones(p.n_coords, dtype=bool)
    for rec in defend(gradient(p, b)).provenance:
        if rec.mask is not None:
            keep &= rec.mask
    taken = []
    for name in ("rows", "coords"):
        def spy(*args, _helper=getattr(network, f"_add_w_block_{name}"), _name=name):
            taken.append(_name)
            _helper(*args)
        monkeypatch.setattr(network, f"_add_w_block_{name}", spy)
    input_gram(p, b, keep)
    assert taken == [path]


@pytest.mark.parametrize("d, m", [(1, 300001), (3, 100000), (32, 16385), (100, 3000)])
def test_the_factor_fill_equals_the_whole_array_expressions(d, m):
    cols = max(1, network._PIECE_BYTES // (8 * d))
    assert m > cols and m % cols  # several pieces, the last a short one
    rng = np.random.default_rng(d)
    B = 2
    W, H = rng.standard_normal((m, d)), rng.standard_normal((d, B))
    coef, right = rng.standard_normal((m, B)), rng.standard_normal((m, B))
    F = np.empty((B, d, m))
    network._fill_factor(F, W, H, lambda i, js: coef[js, i], lambda i, js: right[js, i])
    WT = np.ascontiguousarray(W.T)
    for i in range(B):
        assert np.array_equal(F[i], WT * coef[:, i] + np.outer(2.0 * H[:, i], right[:, i]))


@pytest.mark.parametrize("kind", ["exp", "softplus", "cubic"])
@pytest.mark.parametrize("d, m, B", [(1, 1, 1), (3, 7, 2), (100, 3000, 3), (32, 16385, 4)])
@pytest.mark.parametrize("mask", ["none", "node-dropout", "random-half"])
def test_input_gram_equals_the_whole_array_form_bit_for_bit(kind, d, m, B, mask):
    # no mask and node dropout take the row path, a coordinate mask the other
    p = sample_params(d, m, seed=d + m, activation=Activation(kind))
    b = sample_batch(d, B, seed=B)
    keep = None if mask == "none" else _gram_mask(mask, m, p.n_coords, np.random.default_rng(m))
    G, mass = input_gram(p, b, keep)
    ref_G, ref_mass = allocating_input_gram(p, b, keep)
    assert G.tobytes() == ref_G.tobytes() and mass == ref_mass


def test_input_gram_holds_one_factor_and_3_mib_at_bound_d32():
    # the (B, d, m) factor is 16 MiB; its fill holds no (d, m) temporary
    d, m, B = 32, 16384, 4
    p = sample_params(d, m, seed=32, activation=Activation("exp"))
    b = sample_batch(d, B, seed=4)
    keep = _gram_mask("node-dropout", m, p.n_coords, np.random.default_rng(0))
    assert traced_peak(lambda: input_gram(p, b, keep)) < B * d * m * 8 + (3 << 20)


def test_input_gram_rejects_a_mask_of_the_wrong_length():
    p = sample_params(3, 8, seed=1, activation=SP)
    b = sample_batch(3, 2, seed=2)
    with pytest.raises(DimensionError):
        input_gram(p, b, np.ones(p.n_coords - 1, dtype=bool))


def test_jacobian_trace_scales_linearly_in_width():
    # tr(J J^T)/m stays within a factor-3 band while m doubles 2^10 -> 2^13
    d, B = 8, 2
    ratios = []
    for m in (2**10, 2**11, 2**12, 2**13):
        per_seed = []
        for seed in range(10):
            p = sample_params(d, m, seed=seed, activation=SP)
            b = sample_batch(d, B, seed=100 + seed)
            per_seed.append(input_gram(p, b)[1] / m)
        ratios.append(np.median(per_seed))
    assert max(ratios) / min(ratios) < 3.0


def test_loss_value():
    p = sample_params(4, 8, seed=2, activation=SP)
    b = sample_batch(4, 2, seed=3)
    manual = sum((b.y[i] - forward(p, b.X[:, i])) ** 2 for i in range(2))
    assert loss(p, b) == pytest.approx(manual, rel=1e-12)


SRC = str(Path(network.__file__).resolve().parents[1])


def _python(code: str) -> str:
    """stdout of ``code`` run in a fresh interpreter that imports gradleak from this tree."""
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": SRC}).stdout


def _glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


@pytest.mark.skipif(not _glibc(), reason="the allocator policy is set on glibc only")
@pytest.mark.parametrize("refill", ["f()", "t = threading.Thread(target=f); t.start(); t.join()"],
                         ids=["same-thread", "new-thread"])
def test_a_freed_array_is_refilled_without_faulting_new_pages(refill):
    # 64 MiB is above glibc's largest default mmap threshold, so without the
    # policy the refill maps, faults and zero-fills 16k fresh pages; a new
    # thread with an arena of its own would map them too.  Transparent huge
    # pages are turned off for the child (prctl PR_SET_THP_DISABLE), so a
    # fault is one 4 KiB page whatever the machine's setting.
    out = _python(
        "import ctypes, resource, threading, numpy as np, gradleak\n"
        "assert ctypes.CDLL(None).prctl(41, 1, 0, 0, 0) == 0\n"
        "f = lambda: np.ones(1 << 23)\n"
        "f()\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        f"{refill}\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n")
    assert int(out) < 100


@pytest.mark.parametrize("no_glibc", [
    "os.confstr = lambda name: None",
    "os.confstr = lambda name: int('unknown name')",  # ValueError, as on musl or macOS
    "del os.confstr",                                 # as on Windows
], ids=["none", "unknown-name", "no-confstr"])
def test_the_memory_policy_does_nothing_without_glibc(no_glibc):
    out = _python(
        "import ctypes, os\n"
        "import numpy as np\n"
        f"{no_glibc}\n"
        "loaded = []\n"
        "ctypes.CDLL = lambda *args, **kwargs: loaded.append(args)\n"
        "from gradleak.network import gradient, sample_batch, sample_params\n"
        "from gradleak.activations import Activation\n"
        "gradient(sample_params(3, 8, 1, Activation('exp')), sample_batch(3, 2, 2))\n"
        "print(loaded)\n")
    assert out == "[]\n"
