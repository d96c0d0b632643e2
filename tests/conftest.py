import math
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import pytest

from gradleak import network

# a sweep that would write two trials twice: derive_seed mixes base_seed ^
# trial, so trial 1 of base seed 10 is trial 0 of base seed 11
REPEATING_SEED_GRID = {"base": {"d": 4, "m": 64, "B": 2, "activation": {"kind": "exp"},
                                "trials": 2, "compute_bounds": False},
                       "grid": {"base_seed": [10, 11]}}

# a finite observation whose moment matrix overflows to +-inf: LAPACK's SVD
# of it would print to stdout
LAPACK_PRINTING = {"d": 4, "m": 1, "B": 2, "base_seed": 5, "activation": {"kind": "exp"},
                   "compute_bounds": False, "defenses": [{"variant": "noise", "sigma0": 1e308}]}


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


def whole_calls():
    """A context in which every kernel call runs whole: the split floor is
    out of reach."""
    return mock.patch.object(network, "_SPLIT_MIN", math.inf)


@pytest.fixture
def split_halves(monkeypatch):
    """Every kernel call that can split does: the size floor is lowered to 0
    and this thread lends a real one-thread pool, which the fixture returns.
    ``network._spare_thread(None)`` inside a test runs the same halves one
    after the other on this thread, and ``whole_calls()`` the whole calls.
    Below the floor a split GEMM's bytes are not guaranteed (README names
    shapes where they differ), so a test comparing splits with whole calls
    holds for its own shapes only; the floor shapes are tested with the
    floor in place."""
    monkeypatch.setattr(network, "_SPLIT_MIN", 0)
    with RecordingPool(max_workers=1) as pool, network._spare_thread(pool):
        yield pool
