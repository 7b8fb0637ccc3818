"""Compiles unitaries into mesh settings and generates target ensembles.

The decomposition walks the anti-diagonals of the target matrix: even
diagonals are nulled by right-multiplying with inverted cells (column mixes),
odd diagonals by left-multiplying with cells (row mixes). The surviving left
factors are then commuted through the residual diagonal, which leaves a pure
output phase screen in front of a single mesh-ordered product of cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

from .mesh import (
    CellAddress,
    CellSetting,
    MeshSettings,
    Unitary,
    cell_index,
    cell_transfer,
    mesh_unitary,
)
from .util import TWO_PI, ValidationError, wrap_phase

DECOMPOSE_INPUT_TOL = 1e-8
# entries at or below this magnitude count as already nulled; the deterministic
# branch parks the cell at bar (pi, 0), or cross (0, 0) when the partner
# entry is the vanishing one
NULLED_TOL = 1e-12


class NullingStep(NamedTuple):
    """One eliminated matrix entry: which element, from which side."""

    step: int
    row: int
    col: int
    side: str  # "right" or "left"
    mode: int  # upper mode of the pair the operation acted on


@dataclass(frozen=True)
class DecompositionReport:
    settings: MeshSettings
    residual: float
    nulling_sequence: Tuple[NullingStep, ...]


def _null(target, other):
    """Cell phases (theta, phi) that zero `target` against its partner entry
    `other`. Nulling from the right mixes columns (c, c+1) and passes the
    negated right neighbour; nulling from the left mixes rows (r-1, r) and
    passes the entry above."""
    at = abs(target)
    ao = abs(other)
    if at <= NULLED_TOL:
        return np.pi, 0.0  # already nulled: park the cell in the bar state
    if ao <= NULLED_TOL:
        return 0.0, 0.0
    theta = 2.0 * np.arctan2(ao, at)
    phi = float(np.angle(target) - np.angle(other))
    return theta, phi


def clements_decompose(u):
    """Decompose a unitary into MeshSettings that reproduce it exactly.

    Args:
        u: Unitary or raw complex matrix, unitary within 1e-8.

    Returns:
        DecompositionReport with settings (theta in [0, pi], phi in [0, 2*pi)),
        the max-abs reconstruction residual, and the ordered nulling record.
    """
    if isinstance(u, Unitary):
        target = np.array(u.elements, dtype=complex)
    else:
        target = np.array(u, dtype=complex)
        if target.ndim != 2 or target.shape[0] != target.shape[1]:
            raise ValidationError(f"expected a square matrix, got {target.shape}")
        defect = float(np.max(np.abs(target @ target.conj().T - np.eye(len(target)))))
        if defect > DECOMPOSE_INPUT_TOL:
            raise ValidationError(
                f"input is not unitary: max-abs defect {defect:.3e} "
                f"exceeds {DECOMPOSE_INPUT_TOL:.0e}"
            )
    n = target.shape[0]
    if n == 1:
        return DecompositionReport(
            settings=MeshSettings.from_phases(
                1, [], [], output_phases=[np.angle(target[0, 0])]
            ),
            residual=0.0,
            nulling_sequence=(),
        )

    v = target.copy()
    right_ops: List[Tuple[int, float, float]] = []  # (mode, theta, phi)
    left_ops: List[Tuple[int, float, float]] = []
    nulling: List[NullingStep] = []
    step = 0

    for diag in range(n - 1):
        if diag % 2 == 0:
            # null (n-1-j, diag-j) from the right, mixing columns (c, c+1)
            for j in range(diag + 1):
                r = n - 1 - j
                c = diag - j
                theta, phi = _null(v[r, c], -v[r, c + 1])
                t_dag = cell_transfer(CellSetting(theta, phi)).conj().T
                v[:, c : c + 2] = v[:, c : c + 2] @ t_dag
                v[r, c] = 0.0
                right_ops.append((c, theta, phi))
                nulling.append(NullingStep(step, r, c, "right", c))
                step += 1
        else:
            # null (n-1-diag+j, j) from the left, mixing rows (r-1, r)
            for j in range(diag + 1):
                r = n - 1 - diag + j
                c = j
                theta, phi = _null(v[r, c], v[r - 1, c])
                t = cell_transfer(CellSetting(theta, phi))
                v[r - 1 : r + 1, :] = t @ v[r - 1 : r + 1, :]
                v[r, c] = 0.0
                left_ops.append((r - 1, theta, phi))
                nulling.append(NullingStep(step, r, c, "left", r - 1))
                step += 1

    # v is now diagonal: U = Ldag_1 .. Ldag_p  D  R_q .. R_1.  Commute each
    # left factor through the diagonal,
    #   Tdag(theta, phi) D(mu1, mu2) = D(mu2-phi-theta, mu2-theta) T(theta, mu1-mu2),
    # innermost first, leaving D_final * (T_1' .. T_p') * (R_q .. R_1).
    # Exact bar and cross cells are diagonal or anti-diagonal, so their phi
    # is gauge; pin it to zero there to keep permutation-like programs clean.
    mu = np.angle(np.diagonal(v)).copy()
    absorbed: List[Tuple[int, float, float]] = []
    for mode, theta, phi in reversed(left_ops):
        mu1 = mu[mode]
        mu2 = mu[mode + 1]
        if theta == np.pi:
            absorbed.append((mode, theta, 0.0))
            mu[mode] = mu1 - phi - np.pi
            mu[mode + 1] = mu2 + np.pi
        elif theta == 0.0:
            absorbed.append((mode, theta, 0.0))
            mu[mode] = mu2 - phi
            mu[mode + 1] = mu1
        else:
            absorbed.append((mode, theta, mu1 - mu2))
            mu[mode] = mu2 - phi - theta
            mu[mode + 1] = mu2 - theta

    # application order onto the input state: R_1..R_q, then the absorbed
    # left cells innermost-first
    ordered = right_ops + absorbed

    # as-soon-as-possible column scheduling tiles the checkerboard exactly
    next_free = [0] * n
    index = cell_index(n)
    thetas = np.empty(len(index))
    phis = np.empty(len(index))
    for mode, theta, phi in ordered:
        column = max(next_free[mode], next_free[mode + 1])
        if (column - mode) % 2 != 0:
            raise AssertionError(
                f"scheduling parity violation at mode {mode}, column {column}"
            )
        i = index[CellAddress(column, mode)]
        thetas[i] = theta
        phis[i] = wrap_phase(phi)
        next_free[mode] = column + 1
        next_free[mode + 1] = column + 1

    settings = MeshSettings.from_phases(
        n, thetas, phis, output_phases=wrap_phase(mu)
    )
    residual = float(np.max(np.abs(mesh_unitary(settings).elements - target)))
    return DecompositionReport(
        settings=settings, residual=residual, nulling_sequence=tuple(nulling)
    )


def haar_random(n, seed):
    """Haar-distributed n x n unitary: QR of a complex Gaussian matrix with
    the R diagonal phases folded back into Q. Deterministic per seed."""
    if n < 1:
        raise ValidationError("mode count must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence(int(seed)))
    z = (
        rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    ) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    q = q * (d / np.abs(d))
    return Unitary(n, q)


def permutation_unitary(perm):
    """0/1 unitary routing input i to output perm[i]."""
    perm = tuple(int(p) for p in perm)
    n = len(perm)
    if sorted(perm) != list(range(n)):
        raise ValidationError(f"not a bijection on 0..{n - 1}: {perm}")
    u = np.zeros((n, n), dtype=complex)
    for i, p in enumerate(perm):
        u[p, i] = 1.0
    return Unitary(n, u)


def permutation_ensemble(n, count, seed):
    """Seeded list of `count` distinct permutations, uniform without
    replacement (rejection sampling keeps the marginal uniform)."""
    if count < 1:
        raise ValidationError("count must be >= 1")
    total = math.factorial(n)
    if count > total:
        raise ValidationError(f"count {count} exceeds {n}! = {total}")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 1]))
    seen = set()
    out: List[Tuple[int, ...]] = []
    while len(out) < count:
        p = tuple(int(x) for x in rng.permutation(n))
        if p not in seen:
            seen.add(p)
            out.append(p)
    return out


def ensemble_manifest(kind, n, seed, count):
    """Manifest document describing a generated target ensemble."""
    if kind not in ("haar", "permutation"):
        raise ValidationError(f"unknown ensemble kind: {kind!r}")
    return {"kind": kind, "n": int(n), "seed": int(seed), "count": int(count)}
