"""Command-line entry points.

Subcommands:
    attack   print one trial's record as JSON; exit 1 if a stage failed
    bound    print one trial's Cramer-Rao bound report (no attack runs);
             exit 1, with one "error: ..." line, if a stage failed
    dp-calc  Gaussian-mechanism (epsilon, delta, sigma^2, sensitivity) math
    sweep    run a grid of trials into a journal, results.jsonl, and write
             results.csv / results.json from it
    report   aggregate a results.csv into scores and failure counts per
             setting (d, m, B) and defense

Configs are JSON files (schema: ExperimentConfig.from_dict, plus
{"base": ..., "grid": ...}, and no other key, for sweeps); a config or CSV
that does not read exits 2 with one "error: ..." line.  Output cut short
by a closed stdout (``| head``) exits 1 quietly.
A config is a trial's only input: its "base_seed" (a sweep's
"base.base_seed") is the only seed, so one config gives one record, and
an interrupted sweep resumes from the same file.
A sweep runs its trials on --workers threads (at least 1, default 1) and
records each trial's failing stages in its record.  Every run resumes
what --out holds: it runs only the trials the journal lacks, none for a
finished sweep, rewrites the CSV and JSON from the journal, and writes
the manifest only when there is none.  Without --force a sweep deletes
nothing; --force deletes the journal, CSV, JSON and manifest first.  A
sweep whose --out another run holds exits 2 and touches no file.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor

from . import bounds as bnd
from .activations import Activation
from .errors import GradleakError
from .harness import (SCORING_MODES, ExperimentConfig, _error, _inputs, _read_json,
                      _stage, aggregate_rows, read_results_csv, run_trial, sweep)
from .network import _spare_thread, sample_params
from .seeding import derive_seed


def _workers(text: str) -> int:
    """``--workers``: an integer >= 1, else argparse's usage error."""
    if not text.lstrip("-").isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text}")
    return int(text)


def _print_json(obj):
    json.dump(obj, sys.stdout, sort_keys=True, indent=2, default=str)
    sys.stdout.write("\n")


def cmd_attack(args) -> int:
    config = ExperimentConfig.from_dict(_read_json(args.config))
    rec = run_trial(config, args.trial, keep_samples=True)
    _print_json(rec.to_dict())
    return 1 if rec.errors or any(a["error"] for a in rec.attacks.values()) else 0


def cmd_bound(args) -> int:
    """The trial's inputs stage, then its bound, each run by ``_stage`` with
    a helper lent as in ``run_trial``: work handed to it runs under the
    errstate of the thread that handed it.  A failing stage prints
    ``error: <Type>: <msg>`` and exits 1, as a trial with a failed stage
    does in ``attack``."""
    config = ExperimentConfig.from_dict(_read_json(args.config))
    if not config.compute_bounds:
        print("bounds disabled in this config", file=sys.stderr)
        return 1
    with ThreadPoolExecutor(max_workers=1) as helper, _spare_thread(helper):
        inputs, e = _stage(_inputs, config, args.trial)
        if e is None:
            _, params, _, obs, truth = inputs
            report, e = _stage(bnd.bound_for_observation, params, truth, config.sigma, obs)
    if e is not None:
        print(f"error: {_error(e)}", file=sys.stderr)
        return 1
    _print_json(report.to_dict())
    return 0


def cmd_dp_calc(args) -> int:
    sens = args.sensitivity
    out = {"epsilon": args.epsilon}
    if sens is None:
        activation = Activation(args.activation)
        params = sample_params(args.d, args.m, derive_seed(args.seed, 0xD9), activation)
        sens = bnd.estimate_sensitivity(params, trials=args.trials, seed=args.seed)
        out["sensitivity_sampled_from"] = {"d": args.d, "m": args.m, "trials": args.trials}
    out["sensitivity"] = sens
    if args.sigma2 is not None:
        out["sigma2"] = args.sigma2
        out["delta"] = bnd.dp_delta(args.epsilon, args.sigma2, sens)
    else:
        out["delta"] = args.delta
        out["sigma2"] = bnd.required_sigma(args.epsilon, args.delta, sens)
    lam = bnd.dp_lambda_star(args.epsilon, out["sigma2"], sens)
    out["lambda_star"] = lam
    if lam < 1:
        out["flags"] = ["optimizing moment order below 1; closed form not valid here"]
    _print_json(out)
    return 0


def cmd_sweep(args) -> int:
    _print_json(sweep(_read_json(args.config), args.out, force=args.force, workers=args.workers))
    return 0


def cmd_report(args) -> int:
    rows = read_results_csv(args.csv)
    _print_json(aggregate_rows(rows, mode=args.mode, utility_tol=args.utility_tol))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="gradleak", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("attack", help="single attack trial, result as JSON")
    pa.add_argument("--config", required=True)
    pa.add_argument("--trial", type=int, default=0)
    pa.set_defaults(fn=cmd_attack)

    pb = sub.add_parser("bound", help="bound report for one trial, as JSON")
    pb.add_argument("--config", required=True)
    pb.add_argument("--trial", type=int, default=0)
    pb.set_defaults(fn=cmd_bound)

    pd = sub.add_parser("dp-calc", help="Gaussian-mechanism calculator")
    pd.add_argument("--epsilon", type=float, required=True)
    noise = pd.add_mutually_exclusive_group(required=True)
    noise.add_argument("--sigma2", type=float, help="forward: the delta of this noise")
    noise.add_argument("--delta", type=float, help="inverse: the noise for this delta")
    sens = pd.add_mutually_exclusive_group(required=True)
    sens.add_argument("--sensitivity", type=float)
    sens.add_argument("--m", type=int, help="sample sensitivity at this width")
    pd.add_argument("--d", type=int, default=16)
    pd.add_argument("--trials", type=int, default=200)
    pd.add_argument("--activation", default="softplus")
    pd.add_argument("--seed", type=int, default=0)
    pd.set_defaults(fn=cmd_dp_calc)

    ps = sub.add_parser("sweep", help="run a config grid")
    ps.add_argument("--config", required=True)
    ps.add_argument("--out", required=True)
    ps.add_argument("--force", action="store_true")
    ps.add_argument("--workers", type=_workers, default=1)
    ps.set_defaults(fn=cmd_sweep)

    pr = sub.add_parser("report", help="aggregate results.csv per defense")
    pr.add_argument("--csv", required=True)
    pr.add_argument("--mode", default=SCORING_MODES[0], choices=SCORING_MODES)
    pr.add_argument("--utility-tol", type=float, default=None)
    pr.set_defaults(fn=cmd_report)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except GradleakError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout (``| head``): Python's documented recipe,
        # stdout pointed at devnull so the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
