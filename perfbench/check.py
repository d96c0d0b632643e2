"""Output check for the benchmark's trial records.

Every record a run produces is checked twice:

* invariants: no attack recorded an error, every rmse is finite and
  non-negative, a bound has finite positive ``rl_loose <= rl_exact``, and a
  configured utility loss is finite;
* reference: when ``reference/<workload>.json`` holds the same (seed,
  record key), each value must agree within ``RTOL`` (relative) plus
  ``ATOL`` (absolute).

``record_hash`` is compared with the reference separately: a mismatch is
reported, not counted as a failure, because BLAS kernels differ between
CPUs in the last bits while the values stay within tolerance.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

RTOL = 1e-6
ATOL = 1e-15
LOOSE_SLACK = 1e-12   # rl_loose may exceed rl_exact by this relative amount


def record_key(rec: dict) -> str:
    """Stable name of a record within one workload seed: defense and trial."""
    return f"{rec['defense']}({rec['defense_param']})#{rec['trial']}"


def record_values(rec: dict) -> dict[str, float | None]:
    """The checked numbers of one record (``TrialRecord.to_dict`` form)."""
    out = {f"rmse.{name}": res.get("rmse") for name, res in sorted(rec["attacks"].items())}
    bound = rec.get("bound")
    out["rl_exact"] = None if bound is None else bound["rl_exact"]
    out["rl_loose"] = None if bound is None else bound["rl_loose"]
    out["utility_loss"] = rec.get("utility_loss")
    return out


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def invariant_problems(rec: dict, expect_bound: bool, expect_utility: bool) -> list[str]:
    problems = []
    for name, res in sorted(rec["attacks"].items()):
        if res.get("error"):
            problems.append(f"attack {name} error: {res['error']}")
        rmse = res.get("rmse")
        if not (_finite(rmse) and rmse >= 0):
            problems.append(f"attack {name} rmse {rmse!r} is not finite and >= 0")
    bound = rec.get("bound")
    if expect_bound:
        if bound is None:
            problems.append("bound missing")
        else:
            ex, lo = bound["rl_exact"], bound["rl_loose"]
            if not (_finite(ex) and _finite(lo) and ex > 0 and lo > 0):
                problems.append(f"bound not finite and positive: exact {ex!r} loose {lo!r}")
            elif lo > ex * (1 + LOOSE_SLACK):
                problems.append(f"rl_loose {lo!r} exceeds rl_exact {ex!r}")
    if expect_utility and not _finite(rec.get("utility_loss")):
        problems.append(f"utility_loss {rec.get('utility_loss')!r} is not finite")
    return problems


def close(a, b, rtol: float = RTOL, atol: float = ATOL) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= atol + rtol * abs(b)


def reference_problems(values: dict, ref_values: dict) -> list[str]:
    if set(values) != set(ref_values):
        return [f"checked fields {sorted(values)} differ from reference {sorted(ref_values)}"]
    return [
        f"{k} = {values[k]!r}, reference {ref_values[k]!r}"
        for k in sorted(values)
        if not close(values[k], ref_values[k])
    ]


def load_reference(directory: Path, workload: str) -> dict:
    """seed (str) -> record key -> {"values": ..., "record_hash": ...}."""
    path = directory / f"{workload}.json"
    if not path.is_file():
        return {}
    return json.loads(path.read_text())["seeds"]


class Checker:
    """Checks the records of one run and keeps the ledger of their hashes."""

    def __init__(self, reference: dict, expect_bound: bool, expect_utility: bool):
        self.reference = reference
        self.expect_bound = expect_bound
        self.expect_utility = expect_utility
        self.seen: dict[tuple[int, str], str] = {}
        self.problems: list[str] = []
        self.reference_checked = 0
        self.hash_mismatches: list[str] = []

    def check(self, seed: int, rec: dict) -> bool:
        """True when ``rec`` passes; its problems are kept in ``problems``."""
        key = record_key(rec)
        h = rec["record_hash"]
        problems = invariant_problems(rec, self.expect_bound, self.expect_utility)
        prev = self.seen.setdefault((seed, key), h)
        if prev != h:
            problems.append(f"record_hash {h} differs from {prev} for the same trial")
        ref = self.reference.get(str(seed), {}).get(key)
        if ref is not None:
            self.reference_checked += 1
            problems += reference_problems(record_values(rec), ref["values"])
            if ref["record_hash"] != h:
                self.hash_mismatches.append(f"seed {seed} {key}: {h} != {ref['record_hash']}")
        self.problems += [f"seed {seed} {key}: {p}" for p in problems]
        return not problems

    def ledger(self) -> list[tuple[int, str, str]]:
        return sorted((seed, key, h) for (seed, key), h in self.seen.items())
