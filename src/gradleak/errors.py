"""Exception taxonomy shared across the package, the checks configs run on
construction, and the one way JSON becomes a config."""
import numbers
from dataclasses import fields


class GradleakError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(GradleakError, ValueError):
    """Shapes of inputs do not line up."""


class ConfigError(GradleakError, ValueError):
    """A config object violates its declared invariants."""


class AssignmentError(GradleakError, ValueError):
    """An assignment cost matrix holds NaN or -inf, or admits no finite
    matching (e.g. a NaN reconstruction)."""


class NoInformativeOrderError(GradleakError):
    """All Gaussian derivative moments of the activation vanish up to the
    searched order; the moment-based attack cannot use it."""


class DegenerateObservationError(GradleakError):
    """The observation carries nothing to attack: a defense destroyed all of
    it (e.g. every node dropped), or it holds non-finite values."""


class DivergenceError(GradleakError):
    """An iterative rollout produced non-finite values."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


class LayoutMismatchError(GradleakError):
    """Observations with different flattening layouts cannot be combined."""


class ProbeError(GradleakError):
    """Contraction probe is (nearly) orthogonal to the estimated subspace;
    resample it."""


class AttackStageError(GradleakError):
    """Wraps a failure inside the attack pipeline with the stage name."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"attack stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause


def _check(what: str, value, ok, kind=numbers.Real):
    """ConfigError unless ``value`` is a ``kind`` number (bools excluded)
    with ``ok(value)`` true; write ``ok`` so that NaN fails it."""
    if isinstance(value, bool) or not isinstance(value, kind) or not ok(value):
        raise ConfigError(f"{what}, got {value!r}")


def _float(value):
    """An integer ``value`` (bools excepted) as a float, anything else as it
    is, so that ``2`` and ``2.0`` make one config and one ``config_hash``."""
    integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    return float(value) if integral else value


def _floats(cfg):
    """``_float`` on every float-typed field of the frozen dataclass ``cfg``."""
    for f in fields(cfg):
        if f.type in ("float", "float | None"):
            object.__setattr__(cfg, f.name, _float(getattr(cfg, f.name)))


def _check_flag(what: str, value):
    if not isinstance(value, bool):
        raise ConfigError(f"{what} must be true or false, got {value!r}")


def _build(cls, spec, what: str, **typed):
    """``cls(**spec, **typed)`` from a JSON object: a missing, unknown or
    repeated key is a ConfigError, and so is each value ``cls`` rejects.
    ``_build(dict, spec, what)`` checks that ``spec`` is an object and copies it."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{what} must be a JSON object, got {spec!r}")
    try:
        return cls(**spec, **typed)
    except (TypeError, OverflowError) as e:  # OverflowError: an integer past float range
        raise ConfigError(f"bad {what}: {e}") from e
