from concurrent.futures import ThreadPoolExecutor

import pytest

from gradleak import network

# a sweep that would write two trials twice: derive_seed mixes base_seed ^
# trial, so trial 1 of base seed 10 is trial 0 of base seed 11
REPEATING_SEED_GRID = {"base": {"d": 4, "m": 64, "B": 2, "activation": {"kind": "exp"},
                                "trials": 2, "compute_bounds": False},
                       "grid": {"base_seed": [10, 11]}}


class RecordingPool(ThreadPoolExecutor):
    """A thread pool that records the qualified name of every function
    submitted to it: ``network._beside`` submits its ``there`` under its own
    name, so a kernel half is ``_halves.<locals>.<lambda>``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.names = []

    def submit(self, fn, /, *args, **kwargs):
        self.names.append(fn.__qualname__)
        return super().submit(fn, *args, **kwargs)


@pytest.fixture
def split_halves(monkeypatch):
    """Every kernel call on this thread that can split does: the size floor
    is lowered to 0 and this thread lends a real one-thread pool, which the
    fixture returns.  ``network._spare_thread(None)`` inside a test runs the
    whole calls again."""
    monkeypatch.setattr(network, "_SPLIT_MIN", 0)
    with RecordingPool(max_workers=1) as pool, network._spare_thread(pool):
        yield pool
