"""Tests of the benchmark's own machinery (not of the package).

    python3 -m pytest -q perfbench
"""
from __future__ import annotations

import copy
import sys
import threading
import types
from pathlib import Path

import pytest

from check import Checker, record_key, record_values
from tracer import Span, Tracer, covered_ns, self_times, summarize
from workloads import NAMES, make_workload

SRC = Path(__file__).resolve().parent.parent / "src"


# -- self-time arithmetic ---------------------------------------------------


def _span(i, parent, start, end, name="pkg.mod.f", thread=1):
    return Span(id=i, parent=parent, name=name, thread=thread, start_ns=start, end_ns=end)


def test_self_time_subtracts_nested_children():
    spans = [
        _span(1, None, 0, 100),
        _span(2, 1, 10, 40),
        _span(3, 2, 15, 25),
        _span(4, 1, 50, 70),
    ]
    assert self_times(spans) == {1: 100 - 30 - 20, 2: 30 - 10, 3: 10, 4: 20}


def test_self_time_counts_overlapping_children_once():
    # two pool workers under one sweep span: [20, 60] and [30, 80] cover 60
    spans = [
        _span(1, None, 0, 100, thread=1),
        _span(2, 1, 20, 60, thread=2),
        _span(3, 1, 30, 80, thread=3),
    ]
    assert self_times(spans)[1] == 40


def test_covered_clips_to_the_parent_interval():
    assert covered_ns([(-5, 10), (90, 120)], 0, 100) == 20
    assert covered_ns([], 0, 100) == 0
    assert covered_ns([(30, 30), (40, 35)], 0, 100) == 0


def test_summarize_groups_by_name():
    spans = [
        _span(1, None, 0, 4_000_000, name="a"),
        _span(2, 1, 0, 1_000_000, name="b"),
        _span(3, 1, 2_000_000, 3_000_000, name="b"),
    ]
    rows = summarize(spans)
    assert rows["a"] == {"calls": 1, "total_ms": 4.0, "self_ms": 2.0}
    assert rows["b"] == {"calls": 2, "total_ms": 2.0, "self_ms": 2.0}


# -- workload generation ----------------------------------------------------


@pytest.mark.parametrize("name", NAMES)
def test_workload_is_a_pure_function_of_the_seed(name):
    a = make_workload(name, 7)
    snapshot = copy.deepcopy(a)
    a["why"] = "mutated"
    (a.get("config") or a["sweep"]["base"])["d"] = -1
    assert make_workload(name, 7) == snapshot
    other = make_workload(name, 8)
    assert other != snapshot
    # the seed reaches the inputs only as base_seed
    for spec in (snapshot, other):
        (spec.get("config") or spec["sweep"]["base"]).pop("base_seed")
        spec.pop("seed")
    assert other == snapshot


def test_workload_rejects_bad_arguments():
    with pytest.raises(ValueError):
        make_workload("no-such-workload", 0)
    with pytest.raises(ValueError):
        make_workload(NAMES[0], -1)


# -- output check -----------------------------------------------------------


def _record(rmse=0.25, rl=(0.2, 0.15), record_hash="abc"):
    return {
        "defense": "noise",
        "defense_param": "0.01",
        "trial": 3,
        "attacks": {"tensor": {"rmse": rmse, "assignment": [0, 1], "error": None}},
        "bound": {"rl_exact": rl[0], "rl_loose": rl[1]},
        "utility_loss": None,
        "record_hash": record_hash,
    }


def _checker(ref_rec):
    reference = {"5": {record_key(ref_rec): {"values": record_values(ref_rec),
                                             "record_hash": ref_rec["record_hash"]}}}
    return Checker(reference, expect_bound=True, expect_utility=False)


def test_check_accepts_the_reference_record():
    chk = _checker(_record())
    assert chk.check(5, _record())
    assert chk.reference_checked == 1 and not chk.problems and not chk.hash_mismatches


def test_check_rejects_a_perturbed_rmse():
    chk = _checker(_record())
    assert not chk.check(5, _record(rmse=0.25 * (1 + 1e-4)))
    assert any("rmse.tensor" in p for p in chk.problems)


def test_check_reports_a_hash_mismatch_without_failing():
    chk = _checker(_record())
    assert chk.check(5, _record(record_hash="def"))
    assert chk.hash_mismatches


def test_check_rejects_loose_above_exact_and_attack_errors():
    chk = Checker({}, expect_bound=True, expect_utility=True)
    assert not chk.check(0, _record(rl=(0.1, 0.2)))
    bad = _record()
    bad["attacks"]["tensor"].update(rmse=float("nan"), error="stage failed")
    assert not chk.check(1, bad)
    text = " ".join(chk.problems)
    assert "exceeds rl_exact" in text and "stage failed" in text and "utility_loss" in text


def test_check_rejects_a_changed_hash_on_repeat():
    chk = Checker({}, expect_bound=True, expect_utility=False)
    assert chk.check(0, _record(record_hash="a"))
    assert not chk.check(0, _record(record_hash="b"))
    assert chk.ledger() == [(0, record_key(_record()), "a")]


# -- tracer -----------------------------------------------------------------


@pytest.fixture
def fakepkg(monkeypatch):
    """A two-module package whose functions call each other through globals."""
    low = types.ModuleType("fakepkg.low")
    high = types.ModuleType("fakepkg.high")
    pkg = types.ModuleType("fakepkg")
    exec(
        "def leaf(x):\n    return x + 1\n"
        "def _private(x):\n    return x\n",
        low.__dict__,
    )
    high.leaf = low.leaf   # "from .low import leaf"
    exec("def top(x):\n    return leaf(x) * 2\n", high.__dict__)
    pkg.top = high.top
    for mod in (pkg, low, high):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    return pkg, low, high


def test_tracer_wraps_by_identity_and_restores(fakepkg):
    pkg, low, high = fakepkg
    original_leaf, original_top = low.leaf, high.top
    seen = []
    tracer = Tracer("fakepkg", hooks={"leaf": lambda a, k, r, s: seen.append(r)})
    with tracer:
        assert high.leaf is low.leaf is not original_leaf
        assert pkg.top is high.top
        assert low._private.__name__ == "_private" and not hasattr(low._private, "__wrapped__")
        assert pkg.top(1) == 4
    assert low.leaf is original_leaf and high.top is original_top and pkg.top is original_top
    names = {s.name: s for s in tracer.spans}
    assert set(names) == {"fakepkg.low.leaf", "fakepkg.high.top"}
    assert names["fakepkg.low.leaf"].parent == names["fakepkg.high.top"].id
    assert names["fakepkg.high.top"].parent is None
    assert seen == [2]
    assert tracer.absent(["leaf", "top", "gone"]) == ["gone"]


def test_tracer_parents_worker_spans_to_the_owner(fakepkg):
    pkg, low, _ = fakepkg
    tracer = Tracer("fakepkg")
    low.threading = threading
    exec(
        "def owner_work():\n"
        "    t = threading.Thread(target=leaf, args=(0,))\n"
        "    t.start()\n"
        "    t.join(timeout=10)\n"
        "    return t.is_alive()\n",
        low.__dict__,
    )
    with tracer:
        assert low.owner_work() is False
    by_name = {s.name: s for s in tracer.spans}
    worker, owner = by_name["fakepkg.low.leaf"], by_name["fakepkg.low.owner_work"]
    assert worker.thread != owner.thread and worker.parent == owner.id


def test_tracer_hook_errors_never_break_the_call(fakepkg):
    pkg, low, _ = fakepkg

    def bad_hook(*_):
        raise KeyError("missing")

    tracer = Tracer("fakepkg", hooks={"leaf": bad_hook})
    with tracer:
        assert low.leaf(1) == 2
    assert "leaf" in tracer.hook_errors


def test_traced_trial_reproduces_the_record_hash():
    if not (SRC / "gradleak" / "__init__.py").is_file():
        pytest.skip("package sources not present")
    sys.path.insert(0, str(SRC))
    try:
        import gradleak as gl
    finally:
        sys.path.remove(str(SRC))
    cfg = gl.ExperimentConfig.from_dict({
        "d": 4, "m": 64, "B": 2, "activation": {"kind": "exp"},
        "defenses": [{"variant": "dropout", "rate": 0.5}, {"variant": "noise", "sigma0": 0.01}],
        "attacks": {"tensor": {}}, "base_seed": 3,
    })
    plain = gl.run_trial(cfg, 0).record_hash()
    tracer = Tracer("gradleak")
    with tracer:
        traced = gl.run_trial(cfg, 0).record_hash()
    assert traced == plain
    names = {s.name for s in tracer.spans}
    assert {"gradleak.harness.run_trial", "gradleak.network.input_jacobian",
            "gradleak.harness.bound_for_observation"} <= names


# -- BENCHMARK.json agrees with what the runner emits ----------------------


def test_benchmark_json_matches_the_runner():
    import json

    import run
    from workloads import WHY

    path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    if not path.is_file():
        pytest.skip("BENCHMARK.json not present")
    bench = json.loads(path.read_text())
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == list(WHY.items())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.E2E_UNITS
    loop = run.Loop()
    loop.records, loop.elapsed = [{"attacks": {"tensor": {"rmse": 0.5}}}], 1.0
    emitted = run.per_layer_metrics(Tracer("gradleak"), [], 1, loop, loop)
    assert [m["name"] for m in bench["per_layer"]] == list(emitted)
    assert all(m["unit"] == run._per_layer_unit(m["name"]) for m in bench["per_layer"])
