"""gradleak benchmark: closed-loop trials, end to end and layer by layer.

Run one workload::

    python3 perfbench/run.py --workload bound-d32 --seed 3 --seconds 15 --trace 0

or all four, each in its own process, with a table of the results::

    python3 perfbench/run.py --workload all --seed 0 --seconds 15

The program is imported from ``src/`` of the checkout this file sits in,
never from an installed copy.  One client runs trials back to back (closed
loop); ``sweep-utility`` runs whole sweeps on the sweep's own 2-worker
thread pool.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the first half of the
window runs untraced and the second half under the outside-in tracer
(``tracer.py``), and the metrics are the per-layer ones plus the tracing
overhead.  Each run writes a result file, a record-hash ledger and, when
traced, its spans under ``.perfbench_out/`` at the checkout root.

BLAS and OpenMP are pinned to one thread before numpy is imported (see
``PIN_REASONS``).
"""
from __future__ import annotations

import os
import sys
import time

_START = time.perf_counter()

PINNED_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(PINNED_THREADS)  # must precede the first numpy import

PIN_REASONS = [
    "record_hash depends on the BLAS thread count: the bound-d32 tensor RMSE "
    "reads ...5372 at 1 thread and ...53377 at 2.",
    "With 2 threads the 128-node hermgauss eigensolve takes 15.9 ms instead "
    "of 2.4 ms, and its timing depends on what ran before it.",
]

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from check import Checker, load_reference, record_key, record_values  # noqa: E402
from tracer import Tracer, self_times, summarize  # noqa: E402
from workloads import NAMES, make_workload  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE_DIR = HERE / "reference"
SETUP_SAMPLES = 3          # setup_s is the median of this many full set-ups
PACKAGE = "gradleak"
LAYERS = ("network", "activations", "tensor_attack", "gradmatch", "defenses",
          "bounds", "metrics", "harness")

# per-layer self-time metrics: metric prefix -> function __qualname__.  The
# prefix names the module at the time the benchmark was written; the span is
# found by qualname in whatever module defines it now.
SELF_TIMED = {
    "network.input_jacobian": "input_jacobian",
    "harness.bound_for_observation": "bound_for_observation",
    "bounds.cramer_rao": "cramer_rao",
    "gradmatch.grad_match_loss": "grad_match_loss",
    "network.gradient_input_vjp": "gradient_input_vjp",
    "network.gradient": "gradient",
    "tensor_attack.build_projected_tensor": "build_projected_tensor",
    "tensor_attack.build_moment_matrix": "build_moment_matrix",
    "tensor_attack.estimate_subspace": "estimate_subspace",
    "tensor_attack.decompose_tensor": "decompose_tensor",
    "network.sample_params": "sample_params",
    "defenses.apply_noise": "apply_noise",
    "defenses.apply_prune_ratio": "apply_prune_ratio",
    "defenses.apply_dropout": "apply_dropout",
    "defenses.apply_clip": "apply_clip",
    "harness.utility_loss": "utility_loss",
    "harness.sweep": "sweep",
    "activations.hermite_moments": "hermite_moments",
    "activations.gauss_hermite_expectation": "gauss_hermite_expectation",
    "metrics.min_perm_distance": "min_perm_distance",
}
CALL_COUNTED = {
    "network.gradient": "gradient",
    "defenses.compose": "compose",
    "activations.hermite_moments": "hermite_moments",
    "activations.gauss_hermite_expectation": "gauss_hermite_expectation",
}
# functions read by the counting hooks, beyond the ones above
HOOKED = ("grad_match_attack", "tensor_attack")

# the spans each workload's largest self times are predicted to come from
PREDICTED_TOP = {
    "bound-d32": ("input_jacobian", "bound_for_observation"),
    "gradmatch-d16": ("grad_match_loss", "gradient_input_vjp", "gradient"),
    "attack-d64": ("build_projected_tensor", "apply_noise"),
    "sweep-utility": ("apply_prune_ratio", "apply_noise"),
}

E2E_UNITS = {
    "trials_per_s": "1/s",
    "trial_s_p50": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
# printed by name for every run, but not among the result line's metrics:
# fail_frac is 0 on a correct run (the line carries failed / attempted), and
# attack_rmse_p50 varies between seeds more than any bound allows (it is a
# per-layer metric; the output check catches a weaker attack in every trial)
REPORT_ONLY_UNITS = {"fail_frac": "1", "attack_rmse_p50": "1"}


# ---------------------------------------------------------------------------
# the program under test
# ---------------------------------------------------------------------------


def import_package():
    """Import gradleak from this checkout's ``src/``; exit 2 if it is missing."""
    if not (SRC / PACKAGE / "__init__.py").is_file():
        sys.exit(f"perfbench: {SRC / PACKAGE} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import gradleak

    if Path(gradleak.__file__).resolve().parent != (SRC / PACKAGE).resolve():
        sys.exit(f"perfbench: imported {gradleak.__file__}, not the checkout's copy")
    return gradleak


def _openblas_runtime():
    """Runtime OpenBLAS config string and thread count, if the library says."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = {ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln}
    except OSError:
        return None, None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for suffix in ("64_", ""):
            for prefix in ("scipy_openblas", "openblas"):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is None or config is None:
                    continue
                threads.restype = ctypes.c_int
                threads.argtypes = []
                config.restype = ctypes.c_char_p
                config.argtypes = []
                return config().decode(), int(threads())
    return None, None


def machine_record() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    runtime_config, runtime_threads = _openblas_runtime()
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_build_config": blas.get("openblas configuration"),
        "blas_runtime_config": runtime_config,
        "blas_threads": runtime_threads,
        "pinned_env": {k: os.environ.get(k) for k in PINNED_THREADS},
        "pin_reasons": PIN_REASONS,
    }


# ---------------------------------------------------------------------------
# one workload in this process
# ---------------------------------------------------------------------------


class Workload:
    """Runs the units of one workload's closed loop and checks their records."""

    def __init__(self, gl, spec: dict, out_dir: Path):
        self.gl = gl
        self.spec = spec
        self.seed = spec["seed"]
        self.out_dir = out_dir
        if spec["kind"] == "trial":
            self.config = gl.ExperimentConfig.from_dict(spec["config"])
            self.expect_bound = self.config.compute_bounds
            self.expect_utility = self.config.utility is not None
            self.records_per_unit = 1
        else:
            sweep = spec["sweep"]
            first = dict(sweep["base"], defenses=sweep["grid"]["defenses"][0])
            self.config = gl.ExperimentConfig.from_dict(first)  # the warm-up trial
            self.expect_bound = bool(sweep["base"].get("compute_bounds", True))
            self.expect_utility = sweep["base"].get("utility") is not None
            n_points = len(sweep["grid"]["defenses"])
            self.records_per_unit = n_points * sweep["base"].get("trials", 1)

    def warm_up(self) -> dict:
        return self.gl.run_trial(self.config, 0).to_dict()

    def unit(self, k: int) -> list[dict]:
        """The k-th unit of the loop: one trial, or one whole sweep."""
        spec = self.spec
        if spec["kind"] == "trial":
            return [self.gl.run_trial(self.config, k % spec["pool"]).to_dict()]
        out = self.gl.sweep(spec["sweep"], self.out_dir / "sweep", force=True,
                            workers=spec["workers"])
        return json.loads(Path(out["json"]).read_text())["records"]


class Loop:
    """Outcome of one closed-loop window."""

    def __init__(self):
        self.unit_s: list[float] = []
        self.trial_s: list[float] = []
        self.records: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.elapsed = 0.0

    @property
    def completed(self) -> int:
        return len(self.records)


def closed_loop(work: Workload, checker: Checker, seconds: float) -> Loop:
    """Run units back to back until ``seconds`` have passed; check each record."""
    loop = Loop()
    t0 = time.perf_counter()
    k = 0
    while True:
        ts = time.perf_counter()
        try:
            recs = work.unit(k)
        except Exception:  # a failed trial is counted, never fatal
            loop.attempted += work.records_per_unit
            loop.failed += work.records_per_unit
            loop.errors.append(f"unit {k}: {traceback.format_exc()}")
            recs = []
        te = time.perf_counter()
        loop.unit_s.append(te - ts)
        for rec in recs:
            loop.attempted += 1
            loop.records.append(rec)
            if not checker.check(work.seed, rec):
                loop.failed += 1
        if work.spec["kind"] == "trial":
            loop.trial_s.append(te - ts)
        else:
            loop.trial_s.extend(r["wall_ms"] / 1000.0 for r in recs)
        k += 1
        if te - t0 >= seconds:
            break
    loop.elapsed = time.perf_counter() - t0
    return loop


def setup_probe_seconds(name: str, seed: int) -> float:
    """A fresh process's set-up time: imports, workload, one warm-up trial."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def _median(xs):
    return statistics.median(xs) if xs else float("nan")


def attack_rmse_p50(loop: Loop) -> float:
    """Median over trials of each trial's best (smallest) attack rmse."""
    return _median([min(r["rmse"] for r in rec["attacks"].values()) for rec in loop.records])


def end_to_end_metrics(loop: Loop, setup_s: list[float]) -> dict:
    return {
        "trials_per_s": loop.completed / loop.elapsed,
        "trial_s_p50": _median(loop.trial_s),
        "setup_s": _median(setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


# ---------------------------------------------------------------------------
# tracing: counting hooks and per-layer metrics
# ---------------------------------------------------------------------------


def _arg(args, kwargs, pos: int, name: str):
    return kwargs[name] if name in kwargs else args[pos]


def make_hooks(tracer: Tracer) -> dict:
    """Counts recorded at the traced boundaries; the byte and flop counts are
    *computed* from argument shapes, not measured."""
    import numpy as np

    def input_jacobian(args, kwargs, result, span):
        params, batch = _arg(args, kwargs, 0, "params"), _arg(args, kwargs, 1, "batch")
        tracer.count("input_jacobian.bytes", batch.B * params.d * params.m * (1 + params.d) * 8)

    def bound_for_observation(args, kwargs, result, span):
        J, obs = _arg(args, kwargs, 0, "J"), _arg(args, kwargs, 3, "obs")
        keep = np.ones(J.shape[1], dtype=bool)
        for rec in obs.provenance:
            if rec.mask is not None:
                keep &= rec.mask
        n_keep = int(keep.sum())
        copies = 1 if n_keep == keep.size else 2   # J[:, keep] once, or twice
        tracer.count("bound_for_observation.masked_copy_bytes", copies * J.shape[0] * n_keep * 8)

    def cramer_rao(args, kwargs, result, span):
        J = _arg(args, kwargs, 0, "J")
        tracer.count("cramer_rao.flops", 2.0 * J.shape[0] ** 2 * J.shape[1])

    def grad_match_attack(args, kwargs, result, span):
        cfg = _arg(args, kwargs, 3, "cfg")
        tracer.count("gradmatch.iterations", result.diagnostics["iterations"])
        tracer.count("gradmatch.max_iters", cfg.optimizer.max_iters)
        tracer.count("gradmatch.attack_ns", span.duration_ns)

    def tensor_attack(args, kwargs, result, span):
        conv = np.asarray(result.diagnostics["converged"], dtype=bool)
        tracer.count("tensor.converged", int(conv.sum()))
        tracer.count("tensor.components", conv.size)

    def utility_loss(args, kwargs, result, span):
        tracer.count("utility.steps", _arg(args, kwargs, 3, "steps"))

    return {
        "input_jacobian": input_jacobian,
        "bound_for_observation": bound_for_observation,
        "cramer_rao": cramer_rao,
        "grad_match_attack": grad_match_attack,
        "tensor_attack": tensor_attack,
        "utility_loss": utility_loss,
    }


def per_layer_metrics(tracer: Tracer, spans, n_trials: int, untraced: Loop, traced: Loop) -> dict:
    """Every per-layer metric, per trial; absent functions read 0."""
    by_qualname: dict[str, dict] = {}
    for name, row in summarize(spans).items():
        q = name.rsplit(".", 1)[-1]
        agg = by_qualname.setdefault(q, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
        for k in agg:
            agg[k] += row[k]
    n = max(n_trials, 1)
    c = tracer.counts
    m: dict[str, float] = {}
    for label, q in SELF_TIMED.items():
        m[f"{label}.self_ms"] = by_qualname.get(q, {}).get("self_ms", 0.0) / n
    for label, q in CALL_COUNTED.items():
        m[f"{label}.calls"] = by_qualname.get(q, {}).get("calls", 0) / n
    m["network.input_jacobian.bytes_computed"] = c.get("input_jacobian.bytes", 0.0) / n
    m["harness.bound_for_observation.masked_copy_bytes"] = (
        c.get("bound_for_observation.masked_copy_bytes", 0.0) / n
    )
    m["bounds.cramer_rao.flops_computed"] = c.get("cramer_rao.flops", 0.0) / n
    iters = c.get("gradmatch.iterations", 0.0)
    m["gradmatch.iterations"] = iters / n
    m["gradmatch.iter_frac"] = iters / c["gradmatch.max_iters"] if c.get("gradmatch.max_iters") else 0.0
    m["gradmatch.iter_ms"] = c.get("gradmatch.attack_ns", 0.0) / 1e6 / iters if iters else 0.0
    comps = c.get("tensor.components", 0.0)
    m["tensor_attack.converged_frac"] = c.get("tensor.converged", 0.0) / comps if comps else 0.0
    steps = c.get("utility.steps", 0.0)
    m["harness.utility_step_ms"] = (
        by_qualname.get("utility_loss", {}).get("total_ms", 0.0) / steps if steps else 0.0
    )
    layer_self = layer_self_ms(spans)
    for layer in LAYERS:
        m[f"layer.{layer}.self_ms"] = layer_self.get(layer, 0.0) / n
    m["attack_rmse_p50"] = attack_rmse_p50(traced)
    tps_plain = untraced.completed / untraced.elapsed
    tps_traced = traced.completed / traced.elapsed
    m["trace.overhead_frac"] = 1.0 - tps_traced / tps_plain if tps_plain else 0.0
    return m


def layer_self_ms(spans) -> dict[str, float]:
    """Self time summed per package module (the layer)."""
    selfs = self_times(spans)
    out: dict[str, float] = {}
    for sp in spans:
        parts = sp.name.split(".")
        layer = parts[1] if len(parts) > 2 and parts[0] == PACKAGE else parts[0]
        out[layer] = out.get(layer, 0.0) + selfs[sp.id] / 1e6
    return out


def top_self(spans, k: int) -> list[tuple[str, float]]:
    rows = summarize(spans)
    total = sum(r["self_ms"] for r in rows.values()) or 1.0
    ranked = sorted(rows.items(), key=lambda kv: -kv[1]["self_ms"])
    return [(name, row["self_ms"] / total) for name, row in ranked[:k]]


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def run_one(args) -> int:
    name, seed = args.workload, args.seed
    spec = make_workload(name, seed)
    gl = import_package()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    work = Workload(gl, spec, out_dir / f"{name}-seed{seed}-trace{args.trace}")
    work.out_dir.mkdir(parents=True, exist_ok=True)
    checker = Checker(load_reference(REFERENCE_DIR, name), work.expect_bound, work.expect_utility)

    warm = work.warm_up()
    setup_self = time.perf_counter() - _START
    warm_ok = checker.check(seed, warm)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_self}))
        return 0

    result: dict = {"workload": name, "seed": seed, "why": spec["why"], "trace": args.trace,
                    "seconds": args.seconds, "machine": machine_record(), "spec": spec}
    if args.trace:
        untraced = closed_loop(work, checker, args.seconds / 2.0)
        tracer = Tracer(PACKAGE)
        tracer.hooks = make_hooks(tracer)
        with tracer:
            traced = closed_loop(work, checker, args.seconds / 2.0)
        spans = list(tracer.spans)
        loops = [untraced, traced]
        metrics = per_layer_metrics(tracer, spans, traced.completed, untraced, traced)
        wanted = set(SELF_TIMED.values()) | set(CALL_COUNTED.values()) | set(HOOKED)
        absent = sorted(tracer.absent(wanted))
        predicted = PREDICTED_TOP[name]
        top = top_self(spans, len(predicted))
        top_names = {n.rsplit(".", 1)[-1] for n, _ in top}
        result["trace_report"] = {
            "absent": absent,
            "hook_errors": tracer.hook_errors,
            "wrapped": tracer.wrapped,
            "top_self": top,
            "predicted_top": list(predicted),
            "prediction_matches": top_names == set(predicted),
            "spans": len(spans),
        }
        spans_path = out_dir / f"{name}-seed{seed}-spans.json"
        spans_path.write_text(json.dumps(
            [[s.id, s.parent, s.name, s.thread, s.start_ns, s.end_ns] for s in spans]
        ))
    else:
        setup_s = [setup_self] + [setup_probe_seconds(name, seed)
                                  for _ in range(SETUP_SAMPLES - 1)]
        loop = closed_loop(work, checker, args.seconds)
        loops = [loop]
        metrics = end_to_end_metrics(loop, setup_s)
        result["setup_samples_s"] = setup_s

    # a seed outside the stored reference still gets one reference comparison
    extra_ref = None
    if str(seed) not in checker.reference and checker.reference:
        ref_seed = sorted(int(s) for s in checker.reference)[seed % len(checker.reference)]
        for rec in Workload(gl, make_workload(name, ref_seed), work.out_dir).unit(0):
            checker.check(ref_seed, rec)
        extra_ref = ref_seed

    attempted = sum(lp.attempted for lp in loops)
    failed = sum(lp.failed for lp in loops)
    errors = [e for lp in loops for e in lp.errors]
    correct = warm_ok and failed == 0 and not checker.problems and not errors
    report_only = {
        "fail_frac": failed / attempted if attempted else 1.0,
        "attack_rmse_p50": attack_rmse_p50(loops[-1]),
    }
    samples = {"trial_s_p50": len(loops[-1].trial_s), "setup_s": len(result.get("setup_samples_s", ()))}
    result.update({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "report_only": report_only,
        "samples": samples,
        "problems": checker.problems[:50] + errors[:50],
        "reference_checked": checker.reference_checked,
        "reference_seed_extra": extra_ref,
        "hashes_match_reference": not checker.hash_mismatches,
        "hash_mismatches": checker.hash_mismatches[:50],
        "unit_s": [lp.unit_s for lp in loops],
        "ledger": [{"seed": s, "key": k, "record_hash": h} for s, k, h in checker.ledger()],
        "records": {record_key(r): {"record_hash": r["record_hash"], "values": record_values(r)}
                    for lp in loops for r in lp.records},
    })
    stem = out_dir / f"{name}-seed{seed}-trace{args.trace}"
    Path(f"{stem}.json").write_text(json.dumps(result, indent=1, default=str) + "\n")
    Path(f"{stem}-ledger.tsv").write_text("".join(
        f"{name}\t{s}\t{k}\t{h}\n" for s, k, h in checker.ledger()))

    units = dict(E2E_UNITS, **REPORT_ONLY_UNITS)
    print(f"# {name} seed={seed} trace={args.trace} correct={correct} "
          f"attempted={attempted} failed={failed} "
          f"reference_checked={checker.reference_checked} "
          f"hashes_match_reference={not checker.hash_mismatches}")
    for p in result["problems"][:10]:
        print(f"#   problem: {p}")
    if args.trace:
        rep = result["trace_report"]
        print(f"#   top self time: " + ", ".join(f"{n} {s:.0%}" for n, s in rep["top_self"]))
        print(f"#   predicted: {', '.join(rep['predicted_top'])} -> "
              f"{'match' if rep['prediction_matches'] else 'MISMATCH'}")
        if rep["absent"]:
            print(f"#   absent: {', '.join(rep['absent'])}")
    for key, val in dict(metrics, **report_only).items():
        n = f" (n={samples[key]})" if key in samples else ""
        print(f"#   {key} = {val:.6g} {units.get(key, _per_layer_unit(key))}{n}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            k: {"value": v, "unit": units.get(k, _per_layer_unit(k))} for k, v in metrics.items()
        },
    }))
    return 0


def _per_layer_unit(key: str) -> str:
    if key.endswith("_ms"):
        return "ms"
    if key.endswith("_bytes") or key.endswith("bytes_computed"):
        return "B"
    if key.endswith("flops_computed"):
        return "flop"
    if key.endswith(".calls") or key.endswith(".iterations"):
        return "count"
    return "1"


def run_all(args) -> int:
    """Each workload in its own process; a table of the end-to-end results."""
    rows = {}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--out", str(args.out)],
            capture_output=True, text=True, cwd=ROOT,
        )
        sys.stdout.write("".join(ln + "\n" for ln in proc.stdout.splitlines()[:-1]))
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            rows[name] = {"correct": False, "error": f"exit {proc.returncode}"}
            continue
        rows[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps({"workloads": rows}))
    return 0 if all(r.get("correct") for r in rows.values()) else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=str(OUT))
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
