"""Reproducible experiment grids: trials, CSV/JSON artifacts, scoring.

Every trial's randomness derives from (base seed, trial index), so re-runs
are byte-identical apart from wall-time measurements, grids can be
extended without perturbing existing points, and an interrupted sweep
resumes from its journal (results.jsonl), from which results.csv and
results.json are written.  The aggregator scores each defense by its
strongest (lowest-error) attack, with the literal worst-attack maximum
available as an alternative mode.
"""
import json
import tempfile
from pathlib import Path

from gradleak import aggregate_rows, sweep
from gradleak.harness import read_results_csv

config = {
    "base": {
        "d": 8,
        "B": 2,
        "m": 2048,
        "activation": {"kind": "exp"},
        "attacks": {"tensor": {}},
        "sigma": 0.1,
        "trials": 4,
        "base_seed": 42,
        "utility": {"steps": 300},
    },
    "grid": {
        "defenses": [
            [],
            [{"variant": "noise", "sigma0": 0.5}],
            [{"variant": "dropout", "rate": 0.9}],
            [{"variant": "prune_ratio", "ratio": 0.9}],
            [{"variant": "clip", "threshold": 1.0}],
        ]
    },
}

with tempfile.TemporaryDirectory(prefix="gradleak_sweep_") as tmp:
    result = sweep(config, Path(tmp))
    print("artifacts:", {k: str(v) for k, v in result.items()})
    rows = read_results_csv(result["csv"])

print(f"\n{len(rows)} rows; first row:")
print(json.dumps(rows[0], indent=2))

table = aggregate_rows(rows, mode="strongest-attack-min", utility_tol=1.0)
print("\nper-defense score (strongest attack) and utility:")
scored = [t for t in table["defenses"] if t["score"] is not None]  # None: every attack failed
for entry in sorted(scored, key=lambda t: -t["score"]):
    param = f"{float(entry['defense_param']):g}" if entry["defense_param"] else ""
    print(
        f"  {entry['defense']:>12}({param}): "
        f"score {entry['score']:.4f}   utility loss {entry['utility_median']:.2e}"
    )
print("\nhigher score = better defense at that utility cost; check the score "
      "against the utility column before declaring a winner")
