"""Shared plumbing: error types, deterministic seeds, the batched fit core,
canonical JSON, atomic writes."""

from __future__ import annotations

import functools
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


def product_sums(pairs, like):
    """column_sums of a * b for each (a, b) pair of arrays that broadcast to
    the (m, k) shape of `like`, stacked."""
    terms = np.empty((len(like), len(pairs)) + like.shape[1:])
    for row, (a, b) in enumerate(pairs):
        np.multiply(a, b, out=terms[:, row])
    return column_sums(terms)


# Gauss-Newton steps per fit and the starting damping, which both fits share
# (README, "Dip fit" and "Calibration fit")
FIT_ITERATIONS = 500
FIT_DAMPING = 1e-3


def _solve(a, b):
    """x of a x = b by Gaussian elimination in order, without pivoting, for
    a symmetric a given by its lower triangle a[i][j], j <= i; every entry is
    an array over columns, so each column is solved alone."""
    n = len(b)
    a, b = [list(row[: i + 1]) for i, row in enumerate(a)], list(b)
    for i in range(n):
        for j in range(i + 1, n):
            f = a[j][i] / a[i][i]
            for col in range(i + 1, j + 1):
                a[j][col] = a[j][col] - f * a[col][i]
            b[j] = b[j] - f * b[i]
    for i in reversed(range(n)):
        for j in range(i + 1, n):
            b[i] = b[i] - a[j][i] * b[j]
        b[i] = b[i] / a[i][i]
    return b


@functools.lru_cache(maxsize=None)
def _lower(n):
    """The (n, n) positions, in lower-triangle row order, of the pairs (v, w)."""
    return np.array([[max(v, w) * (max(v, w) + 1) // 2 + min(v, w) for w in range(n)]
                     for v in range(n)])


def _projection(model, x, y, theta, offset):
    """The state of every column of y (m, k) at theta (q, k), one row per
    entry: the SSR, the undamped Gauss-Newton step's size in scales, the
    gradient H^T r (q), the step (q), the normal matrix H^T P H (q x q) and
    the linear coefficients."""
    basis, derivatives, scale = model(x, *theta)
    basis = [1.0] * offset + basis
    nb, nv = len(basis), len(theta) + 1
    gram = product_sums(
        [(f, g) for i, f in enumerate(basis) for g in basis[: i + 1]] + [(f, y) for f in basis], y
    )
    lower = [gram[i * (i + 1) // 2 :] for i in range(nb)]
    coef = _solve(lower, gram[-nb:])
    # the residual r and h_q = dmodel/dtheta_q, whose fits on the basis
    # refine the coefficients once and project h off the basis
    vectors = [y - sum(c * f for c, f in zip(coef, basis))] + [
        sum(c * d[q] for c, d in zip(coef[offset:], derivatives)) for q in range(nv - 1)
    ]
    sums = product_sums(
        [(f, v) for f in basis for v in vectors]
        + [(v, w) for i, v in enumerate(vectors) for w in vectors[: i + 1]], y
    )
    cross = sums[: nb * nv].reshape(nb, nv, -1)
    fits = _solve(lower, cross)
    # v^T P w is v^T w less the part of it that w's fit on the basis explains
    explained = sum(c[:, None] * f[None] for c, f in zip(cross, fits))
    projected = sums[nb * nv + _lower(nv)] - explained
    step = _solve(projected[1:, 1:], projected[1:, 0])
    size = np.abs(step).max(0) / np.abs(scale)
    normal = projected[1:, 1:].reshape((nv - 1) ** 2, -1)
    coef = np.array(coef) + np.array(fits)[:, 0]
    return np.concatenate([projected[:1, 0], size[None], projected[1:, 0], step, normal, coef])


def variable_projection(model, x, y, theta, lo, hi, *, offset, tol):
    """Damped Gauss-Newton fit of every column of y (m, k) to a constant, if
    `offset`, plus sum_j c_j f_j(x; theta), from the start theta (q, k), the
    linear coefficients c projected out (Golub & Pereyra, SIAM J. Numer.
    Anal. 10, 413 (1973)) with Kaufman's Jacobian (BIT 15, 49 (1975)).

    model(x, *theta) returns the f_j (m, k), [[df_j/dtheta_q for q] for j]
    and the (k,) scale a step is measured in. A step solves the normal
    matrix with its diagonal scaled by 1 + damping, and is accepted if all
    is finite, lo <= theta <= hi holds and the SSR falls by more than its
    rounding error, or stays within it while the undamped step shrinks. A
    rejected step multiplies the damping by 10, to FIT_DAMPING at least; an
    accepted one divides it by 10 or takes the secant's. Each column stops
    once its undamped step is below `tol` scales or no damping helps, and
    every operation acts on each column alone. Returns theta, the linear
    coefficients (constant first), the SSR and a mask of the columns that
    stopped within FIT_ITERATIONS steps.
    """
    theta = np.array(theta)
    q, k = theta.shape
    # rows of the state: SSR, size, gradient, step, normal matrix, coefficients
    grad, step = slice(2, 2 + q), slice(2 + q, 2 + 2 * q)
    normal = slice(2 + 2 * q, 2 + 2 * q + q * q)
    lo, hi = np.broadcast_to(lo, theta.shape), np.broadcast_to(hi, theta.shape)
    diagonal = np.eye(q)[..., None]
    live, final, converged = np.arange(k), theta.copy(), np.zeros(k, bool)
    with np.errstate(all="ignore"):
        # each residual carries a rounding error of about eps |y|
        rounding = 4.0 * np.finfo(float).eps * np.sqrt(column_sums(y * y))
        state = _projection(model, x, y, theta, offset)
        states = np.empty_like(state)
        lam = np.full(k, FIT_DAMPING)
        for iteration in range(FIT_ITERATIONS + 1):
            # past a damping of 1e16 no step moves theta to the SSR's precision
            going = (state[1] > tol) & (lam <= 1e16)
            if not going.all():
                # a stopped column leaves the stack that the loop works on
                done = live[~going]
                final[:, done], states[:, done] = theta[:, ~going], state[:, ~going]
                converged[done] = True
                live, theta, state, lam, x, y, rounding, lo, hi = (
                    a[..., going] for a in (live, theta, state, lam, x, y, rounding, lo, hi)
                )
            if live.size == 0 or iteration == FIT_ITERATIONS:
                break
            # the normal matrix with its diagonal scaled by 1 + damping
            damped = state[normal].reshape(q, q, -1) * (1.0 + lam * diagonal)
            theta_try = theta + _solve(damped, state[grad])
            trial = _projection(model, x, y, theta_try, offset)
            band = rounding * np.sqrt(state[0])
            better = (
                np.isfinite(trial).all(0)
                & ((lo <= theta_try) & (theta_try <= hi)).all(0)
                & (
                    (trial[0] < state[0] - band)
                    | (trial[0] <= state[0] + band) & (trial[1] < state[1])
                )
            )
            # the change of the gradient over an accepted step measures the
            # curvature Gauss-Newton leaves out (large residuals): where the
            # next undamped step turns back by over half of the last one, or
            # continues at over half its size, the secant ratio of true to
            # Gauss-Newton curvature sets the damping, below 0 to lengthen it
            turn = column_sums(trial[step] * state[step]) / column_sums(state[step] ** 2)
            secant = (np.abs(turn) > 0.5) & (turn < 0.9)
            lam = np.where(
                better,
                np.where(secant, (1.0 + lam) * (1.0 - turn) - 1.0, lam / 10.0),
                np.maximum(lam * 10.0, FIT_DAMPING),
            )
            theta = np.where(better, theta_try, theta)
            state = np.where(better, trial, state)
    final[:, live], states[:, live] = theta, state
    return final, states[normal.stop :], states[0], converged


def as_int(value):
    """operator.index(value): an int, or a ValidationError for a fractional
    or non-numeric value and for a bool, which is no count or index."""
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise ValidationError(f"expected an integer, got {reprlib.repr(value)}")


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


def as_reals(value, what, shape=None, lo=None, hi=None, *, dtype=float, finite=True):
    """A new `dtype` array (float, complex or int) of value, whose shape
    matches `shape`, None in it matching any length, and whose entries are
    finite, >= lo and <= hi, each bound optional; otherwise a
    ValidationError that starts with `what`. A bool, string or object array
    is rejected, and so is a complex one for a float result and a float one
    for an int result. A list is judged by the dtype numpy gives it: [True,
    1] is [1, 1], while [True] and ['1'] are rejected. finite=False skips
    the entry checks, for a caller whose error names the failing item."""
    try:
        arr = np.asarray(value)
    except ValueError:  # a ragged nesting of sequences
        raise ValidationError(f"{what} must be a rectangular array, got {reprlib.repr(value)}")
    kinds, noun = {float: ("iuf", "real numbers"), complex: ("iufc", "complex numbers"),
                   int: ("iu", "integers")}[dtype]
    if arr.dtype.kind not in kinds:
        raise ValidationError(f"{what} must be {noun}, got {reprlib.repr(value)}")
    if shape is not None and (
        arr.ndim != len(shape) or any(s not in (None, a) for s, a in zip(shape, arr.shape))
    ):
        raise ValidationError(f"{what} must have shape {shape}, got {arr.shape}")
    arr = np.array(arr, dtype=dtype)
    bounds = [(op, b) for op, b in ((">=", lo), ("<=", hi)) if b is not None]
    holds = (_BOUND_HOLDS[op](arr, b).all() for op, b in bounds)
    if finite and not (np.isfinite(arr).all() and all(holds)):
        text = "".join(f" and {op} {b}" for op, b in bounds)
        raise ValidationError(f"{what} must be finite{text}")
    return arr


def factorial_reaches(n, count):
    """Whether n! >= count, multiplying 2 * 3 * ... only until the product
    reaches count (n! itself takes a minute to compute at n = 3e6)."""
    product, factor = 1, 2
    while product < count and factor <= n:
        product, factor = product * factor, factor + 1
    return product >= count


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
