"""Shared plumbing: error types, deterministic seeds, canonical JSON, atomic writes."""

from __future__ import annotations

import json
import math
import numbers
import operator
import os
import reprlib
import tempfile

import numpy as np

TWO_PI = 2.0 * np.pi


class MeshsimError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(MeshsimError, ValueError):
    """An argument violates a documented precondition."""


class StructureError(ValidationError):
    """A composite value (settings, plan, config) is malformed."""


class UnknownHeaterError(MeshsimError, KeyError):
    """A heater id is not present in the profile."""


class FitDegeneracyError(MeshsimError):
    """A least-squares fit cannot be determined from the given samples."""


class InfeasibleError(MeshsimError):
    """No in-range drive solution exists; carries the offending heater ids."""

    def __init__(self, message, heater_ids=()):
        super().__init__(message)
        self.heater_ids = tuple(heater_ids)


class UsageError(MeshsimError):
    """Bad configuration or command line input (maps to exit code 2)."""


def wrap_phase(x):
    """Wrap phase(s) into [0, 2*pi)."""
    return np.mod(x, TWO_PI)


def wrap_signed(x):
    """Wrap phase(s) into (-pi, pi]."""
    return np.pi - np.mod(np.pi - np.asarray(x), TWO_PI)


def column_sums(x):
    """Sums over axis 0 by a pairwise tree fixed by len(x) alone.

    Every column's sum is then the same bits whatever the other columns,
    their number or their memory alignment; numpy's own reductions change
    their summation order with the array's shape.
    """
    n = len(x)
    while n > 1:
        half = n // 2
        head = x[:half] + x[half : 2 * half]
        if n % 2:
            head[0] += x[n - 1]
        x, n = head, half
    return x[0]


def as_int(value):
    """operator.index(value): an int, or a ValidationError for a fractional
    or non-numeric value and for a bool, which is no count or index."""
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise ValidationError(f"expected an integer, got {value!r}")


_BOUND_HOLDS = {">=": operator.ge, ">": operator.gt, "<=": operator.le}


def as_real(value, what, lo=None, hi=None, *, above=None):
    """float(value) for a finite real number >= lo, > above and <= hi, each
    bound optional; otherwise a ValidationError that starts with `what` and
    ends with reprlib's short repr of the value. A bool, a string, None, an
    array, NaN, an infinity and an int too large for a float are rejected."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{what} must be a real number, got {reprlib.repr(value)}")
    try:
        x = float(value)
    except OverflowError:  # an int beyond the float range
        x = math.inf
    bounds = [(op, b) for op, b in ((">=", lo), (">", above), ("<=", hi)) if b is not None]
    if not (math.isfinite(x) and all(_BOUND_HOLDS[op](x, b) for op, b in bounds)):
        text = "".join(f" and {op} {b}" for op, b in bounds)
        raise ValidationError(f"{what} must be finite{text}, got {reprlib.repr(value)}")
    return x


def _seed_sequence(key):
    """SeedSequence of a key of non-negative integers such as (seed, stream,
    index); a part that as_int rejects or a negative part raises
    ValidationError."""
    try:
        entropy = [as_int(part) for part in key]
    except ValidationError:
        entropy = [-1]
    if min(entropy) < 0:
        raise ValidationError(f"seeds must be non-negative integers, got {key}")
    return np.random.SeedSequence(entropy)


def seeded_rng(*key):
    """Generator drawn from the SeedSequence of `key` (see _seed_sequence)."""
    return np.random.default_rng(_seed_sequence(key))


def child_seed(seed, index):
    """Derive a stable 64-bit item seed from a campaign seed and item index.

    Uses the splittable SeedSequence scheme, so an item's draws depend only
    on (seed, index), never on which other items run or in what order.
    """
    return int(_seed_sequence((seed, index)).generate_state(2, np.uint64)[0])


def normalize_floats(obj):
    """Recursively round floats to 15 significant digits for stable JSON."""
    if isinstance(obj, dict):
        return {k: normalize_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [normalize_floats(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return normalize_floats(obj.tolist())
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (float, np.floating)):
        return float(format(float(obj), ".15g"))
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    return obj


def dumps_canonical(payload):
    """Canonical JSON text: normalized floats, sorted keys, trailing newline."""
    return json.dumps(normalize_floats(payload), sort_keys=True, indent=2, allow_nan=False) + "\n"


def atomic_write_text(path, text):
    """Write text through a temp file and rename so readers never see partials."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
