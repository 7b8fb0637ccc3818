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
from functools import lru_cache
from typing import List, NamedTuple, Tuple

import numpy as np

from .mesh import (
    CellAddress,
    MeshSettings,
    Unitary,
    cell_index,
    cell_transfers,
    mesh_unitary,
)
from .util import ValidationError, seeded_rng, wrap_phase

DECOMPOSE_INPUT_TOL = 1e-8
# entries at or below this magnitude count as already nulled; the deterministic
# branch parks the cell at bar (pi, 0), or cross (0, 0) when the partner
# entry is the vanishing one
NULLED_TOL = 1e-12

_PERMUTATION_STREAM = 1


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


@lru_cache(maxsize=None)
def _schedule(n):
    """Nulling sequence for n modes, its left steps innermost-first, and the
    step whose cell lands in each cell_addresses(n) slot. None of these
    depends on the target: right steps apply first, in nulling order, then
    the absorbed left steps, and as-soon-as-possible column scheduling tiles
    the checkerboard exactly."""
    steps = []
    for diag in range(n - 1):
        for j in range(diag + 1):
            if diag % 2 == 0:
                # null (n-1-j, diag-j) from the right, mixing columns (c, c+1)
                r, c = n - 1 - j, diag - j
                steps.append(NullingStep(len(steps), r, c, "right", c))
            else:
                # null (n-1-diag+j, j) from the left, mixing rows (r-1, r)
                r, c = n - 1 - diag + j, j
                steps.append(NullingStep(len(steps), r, c, "left", r - 1))
    left = [s for s in steps if s.side == "left"]
    ordered = [s for s in steps if s.side == "right"] + left[::-1]
    next_free = [0] * n
    index = cell_index(n)
    cell_step = np.empty(len(steps), dtype=np.intp)
    for s in ordered:
        column = max(next_free[s.mode], next_free[s.mode + 1])
        if (column - s.mode) % 2 != 0:
            raise AssertionError(
                f"scheduling parity violation at mode {s.mode}, column {column}"
            )
        cell_step[index[CellAddress(column, s.mode)]] = s.step
        next_free[s.mode] = next_free[s.mode + 1] = column + 1
    cell_step.setflags(write=False)
    return tuple(steps), tuple(left[::-1]), cell_step


def _null(target, other):
    """Cell phases (theta, phi) that zero each `target` entry against its
    partner `other`, over a stack. An entry at or below NULLED_TOL parks its
    cell at bar (pi, 0); a vanishing partner parks it at cross (0, 0). |z|
    is np.hypot of the parts: np.abs on complex arrays takes a SIMD path
    whose bits differ from the scalar abs()."""
    at = np.hypot(target.real, target.imag)
    ao = np.hypot(other.real, other.imag)
    theta = 2.0 * np.arctan2(ao, at)
    phi = np.arctan2(target.imag, target.real) - np.arctan2(other.imag, other.real)
    # parking is rare, so np.where runs only for stacks that need it
    if np.count_nonzero(np.minimum(at, ao) <= NULLED_TOL):
        parked = at <= NULLED_TOL
        crossed = ao <= NULLED_TOL
        theta = np.where(parked, np.pi, np.where(crossed, 0.0, theta))
        phi = np.where(parked | crossed, 0.0, phi)
    return theta, phi


def decompose_stack(targets):
    """Decompose a (k, n, n) stack of unitaries, n >= 2, into (theta, phi,
    output_phases) arrays of shapes (k, cells), (k, cells) and (k, n), each
    row the phase vectors MeshSettings.from_phases stores for its target.

    Each target must be unitary within 1e-8 (clements_decompose checks). The
    nulling schedule is the same for every target, so each step updates the
    whole stack at once; per target the bits equal one-at-a-time compiling.
    """
    v = np.array(targets, dtype=complex)
    if v.ndim != 3 or v.shape[1] != v.shape[2] or v.shape[1] < 2:
        raise ValidationError(f"expected a (k, n, n) stack with n >= 2, got {v.shape}")
    n = v.shape[-1]
    steps, left, cell_step = _schedule(n)
    thetas, phis = [], []
    for s in steps:
        r, c = s.row, s.col
        right = s.side == "right"
        theta, phi = _null(v[:, r, c], -v[:, r, c + 1] if right else v[:, r - 1, c])
        t = cell_transfers(theta, wrap_phase(phi))
        if right:
            v[:, :, c : c + 2] = v[:, :, c : c + 2] @ t.conj().transpose(0, 2, 1)
        else:
            v[:, r - 1 : r + 1, :] = t @ v[:, r - 1 : r + 1, :]
        v[:, r, c] = 0.0
        thetas.append(theta)
        phis.append(phi)

    # v is now diagonal: U = Ldag_1 .. Ldag_p  D  R_q .. R_1.  Commute each
    # left factor through the diagonal,
    #   Tdag(theta, phi) D(mu1, mu2) = D(mu2-phi-theta, mu2-theta) T(theta, mu1-mu2),
    # innermost first, leaving D_final * (T_1' .. T_p') * (R_q .. R_1).
    # Exact bar and cross cells are diagonal or anti-diagonal, so their phi
    # is gauge; pin it to zero there to keep permutation-like programs clean.
    mu = list(np.angle(np.diagonal(v, axis1=1, axis2=2)).T)
    step_theta = np.stack(thetas, axis=1)
    exact = ((step_theta == np.pi) | (step_theta == 0.0)).any(axis=0).tolist()
    for s in left:
        m, theta, phi = s.mode, thetas[s.step], phis[s.step]
        mu1, mu2 = mu[m], mu[m + 1]
        phis[s.step] = mu1 - mu2
        mu[m], mu[m + 1] = mu2 - phi - theta, mu2 - theta
        if exact[s.step]:  # only steps with an exact cell pay for np.where
            bar, cross = theta == np.pi, theta == 0.0
            phis[s.step] = np.where(bar | cross, 0.0, phis[s.step])
            mu[m] = np.where(bar, mu1 - phi - np.pi, np.where(cross, mu2 - phi, mu[m]))
            mu[m + 1] = np.where(bar, mu2 + np.pi, np.where(cross, mu1, mu[m + 1]))

    # phi and the output phases get the two wraps from_phases gives a wrapped
    # vector: np.mod is not idempotent for tiny negative phases
    cell_phi = wrap_phase(wrap_phase(np.stack(phis, axis=1)[:, cell_step]))
    out = wrap_phase(wrap_phase(np.stack(mu, axis=1)))
    return step_theta[:, cell_step], cell_phi, out


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
        if not np.isfinite(target).all():
            raise ValidationError("matrix entries must be finite")
        defect = float(np.max(np.abs(target @ target.conj().T - np.eye(len(target)))))
        if not defect <= DECOMPOSE_INPUT_TOL:
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
    theta, phi, out = decompose_stack(target[None])
    settings = MeshSettings.from_phases(n, theta[0], phi[0], output_phases=out[0])
    residual = float(np.max(np.abs(mesh_unitary(settings).elements - target)))
    return DecompositionReport(
        settings=settings, residual=residual, nulling_sequence=_schedule(n)[0]
    )


def haar_random(n, seed):
    """Haar-distributed n x n unitary: QR of a complex Gaussian matrix with
    the R diagonal phases folded back into Q. Deterministic per seed."""
    if n < 1:
        raise ValidationError("mode count must be >= 1")
    rng = seeded_rng(seed)
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
    if n < 1:
        raise ValidationError("a permutation needs >= 1 mode")
    if sorted(perm) != list(range(n)):
        raise ValidationError(f"not a bijection on 0..{n - 1}: {perm}")
    u = np.zeros((n, n), dtype=complex)
    for i, p in enumerate(perm):
        u[p, i] = 1.0
    return Unitary(n, u)


def permutation_ensemble(n, count, seed):
    """Seeded list of `count` distinct permutations, uniform without
    replacement (rejection sampling keeps the marginal uniform)."""
    if n < 1:
        raise ValidationError("mode count must be >= 1")
    if count < 1:
        raise ValidationError("count must be >= 1")
    total = math.factorial(n)
    if count > total:
        raise ValidationError(f"count {count} exceeds {n}! = {total}")
    rng = seeded_rng(seed, _PERMUTATION_STREAM)
    seen = set()
    out: List[Tuple[int, ...]] = []
    while len(out) < count:
        p = tuple(int(x) for x in rng.permutation(n))
        if p not in seen:
            seen.add(p)
            out.append(p)
    return out
