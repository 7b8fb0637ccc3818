"""Mesh topology and transfer-matrix conventions for square interferometer meshes.

An N-mode processor is a rectangular checkerboard of N(N-1)/2 two-mode unit
cells, each a tunable beam splitter (internal phase theta) followed by an
external phase shifter (phi), plus a diagonal phase screen on the N outputs.
The unit cell acts on its mode pair (m, m+1) as

    T(theta, phi) = exp(i theta / 2) * [[exp(i phi) sin(theta/2),  cos(theta/2)],
                                        [exp(i phi) cos(theta/2), -sin(theta/2)]]

so the same-mode power reflectivity is R = sin(theta/2)^2, theta = pi is the
bar state and theta = 0 the cross state. All phases are stored normalized to
[0, 2*pi). Every type in this module is an immutable value and every
operation is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .util import (
    StructureError,
    ValidationError,
    as_int,
    wrap_phase,
)

UNITARITY_TOL = 1e-10
SINGULAR_VALUE_TOL = 1e-9


class CellAddress(NamedTuple):
    """Position of a unit cell: Clements column and upper mode index."""

    column: int
    row: int


@dataclass(frozen=True)
class CellSetting:
    """Phases of one unit cell, normalized to [0, 2*pi)."""

    theta: float
    phi: float

    def __post_init__(self):
        object.__setattr__(self, "theta", float(wrap_phase(self.theta)))
        object.__setattr__(self, "phi", float(wrap_phase(self.phi)))


@dataclass(frozen=True, eq=False)
class Unitary:
    """Dense n x n unitary matrix (tolerance 1e-10, max-abs elementwise)."""

    n: int
    elements: np.ndarray

    def __post_init__(self):
        arr = np.array(self.elements, dtype=complex)
        if arr.shape != (self.n, self.n):
            raise ValidationError(
                f"expected a {self.n}x{self.n} matrix, got shape {arr.shape}"
            )
        if not np.isfinite(arr).all():
            raise ValidationError("matrix entries must be finite")
        defect = np.max(np.abs(arr @ arr.conj().T - np.eye(self.n)))
        if not defect <= UNITARITY_TOL:
            raise ValidationError(
                f"matrix is not unitary: max-abs defect {defect:.3e}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "elements", arr)


@dataclass(frozen=True, eq=False)
class TransferMatrix:
    """Possibly lossy n x n transfer matrix (largest singular value <= 1)."""

    n: int
    elements: np.ndarray

    def __post_init__(self):
        arr = np.array(self.elements, dtype=complex)
        if arr.shape != (self.n, self.n):
            raise ValidationError(
                f"expected a {self.n}x{self.n} matrix, got shape {arr.shape}"
            )
        defect = gain_defect(arr[None])
        if defect is not None:
            raise ValidationError(defect[1])
        arr.setflags(write=False)
        object.__setattr__(self, "elements", arr)


def gain_defect(stack):
    """(index, reason) of the first matrix of a (k, n, n) stack that has a
    non-finite entry or a largest singular value above 1, else None."""
    finite = np.isfinite(stack).all(axis=(1, 2))
    if not finite.all():
        return int(np.argmin(finite)), "matrix entries must be finite"
    # the SVD behind the norm fails on non-finite entries, so it runs second
    top = np.linalg.norm(stack, 2, axis=(1, 2))
    above = np.flatnonzero(~(top <= 1.0 + SINGULAR_VALUE_TOL))
    if above.size:
        i = int(above[0])
        return i, f"transfer matrix has gain: largest singular value {top[i]:.12f}"
    return None


def rows_in_column(n, column):
    """Upper mode indices of the cells in one column (checkerboard layout)."""
    return range(column % 2, n - 1, 2)


@lru_cache(maxsize=None)
def cell_addresses(n):
    """All N(N-1)/2 cell addresses for an n-mode mesh, sorted by (col, row).

    This order indexes every per-cell phase vector and transfer stack.
    """
    if n < 1:
        raise ValidationError("mode count must be >= 1")
    return tuple(
        CellAddress(column, row)
        for column in range(n)
        for row in rows_in_column(n, column)
    )


@lru_cache(maxsize=None)
def cell_index(n):
    """Read-only map from cell address to its position in cell_addresses(n)."""
    return MappingProxyType({addr: i for i, addr in enumerate(cell_addresses(n))})


@lru_cache(maxsize=None)
def _column_bounds(n):
    """(start, stop) of each column's cells within cell_addresses(n)."""
    bounds = []
    start = 0
    for column in range(n):
        stop = start + len(rows_in_column(n, column))
        bounds.append((start, stop))
        start = stop
    return tuple(bounds)


def _phase_vector(values, count, label):
    arr = np.array(values, dtype=float)
    if arr.shape != (count,):
        raise StructureError(
            f"{label} must have length {count}, got shape {arr.shape}"
        )
    return arr


@dataclass(frozen=True, eq=False, init=False)
class MeshSettings:
    """Compiled program: per-cell theta and phi plus N output phases.

    The phases live in read-only vectors ordered as cell_addresses(n). Build
    from a {CellAddress: CellSetting} mapping, or from the vectors with
    MeshSettings.from_phases. `cells` gives the mapping view back.
    """

    n: int
    theta: np.ndarray
    phi: np.ndarray
    output_phases: np.ndarray

    def __init__(self, n, cells, output_phases=None):
        got = set(cells)
        expected = cell_index(n).keys()
        if got != expected:
            missing = sorted(expected - got)[:3]
            extra = sorted(got - expected)[:3]
            raise StructureError(
                f"settings for n={n} need {len(expected)} cells, got "
                f"{len(got)} (missing {missing}, unexpected {extra})"
            )
        addrs = cell_addresses(n)
        self._set(
            n,
            [cells[addr].theta for addr in addrs],
            [cells[addr].phi for addr in addrs],
            output_phases,
        )

    @classmethod
    def from_phases(cls, n, theta, phi, output_phases=None):
        """Settings from theta and phi vectors in cell_addresses(n) order."""
        self = cls.__new__(cls)
        self._set(
            n,
            wrap_phase(np.asarray(theta, dtype=float)),
            wrap_phase(np.asarray(phi, dtype=float)),
            output_phases,
        )
        return self

    def _set(self, n, theta, phi, output_phases):
        count = len(cell_addresses(n))
        if output_phases is None:
            output_phases = np.zeros(n)
        vectors = {
            "theta": _phase_vector(theta, count, "theta"),
            "phi": _phase_vector(phi, count, "phi"),
            "output_phases": _phase_vector(
                wrap_phase(np.asarray(output_phases, dtype=float)), n, "output_phases"
            ),
        }
        object.__setattr__(self, "n", n)
        for name, arr in vectors.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @cached_property
    def cells(self):
        """Read-only {CellAddress: CellSetting} view of the phase vectors."""
        return MappingProxyType(
            {
                addr: CellSetting(theta, phi)
                for addr, theta, phi in zip(
                    cell_addresses(self.n), self.theta.tolist(), self.phi.tolist()
                )
            }
        )


def bar_settings(n):
    """Settings with every cell in the bar state and zero output phases."""
    count = len(cell_addresses(n))
    return MeshSettings.from_phases(n, np.full(count, np.pi), np.zeros(count))


def cell_transfers(theta, phi):
    """2x2 transfer matrix T(theta, phi) of the pinned convention for every
    (theta, phi) pair at once: shape theta.shape + (2, 2)."""
    theta = np.asarray(theta, dtype=float)
    half = 0.5 * theta
    s = np.sin(half)
    c = np.cos(half)
    ephi = np.exp(1j * np.asarray(phi, dtype=float))
    out = np.empty(theta.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = ephi * s
    out[..., 0, 1] = c
    out[..., 1, 0] = ephi * c
    out[..., 1, 1] = -s
    return np.exp(0.5j * theta)[..., None, None] * out


def mesh_unitary(settings):
    """Compose all cells in column order, then the output phase screen.

    The earliest column acts first on the input state, so the returned matrix
    is  diag(exp(i * output_phases)) . T_last ... T_first.
    """
    transfers = cell_transfers(settings.theta, settings.phi)
    out = lossy_products(transfers[None], settings.output_phases[None], 0.0, 0.0, 0.0)
    return Unitary(settings.n, out[0])


def lossy_products(transfers, output_phases, facet_db, prop_db, path_cm):
    """Transfer matrices of k programs at once: the cell columns, first to
    last, then the output phase screen, with facet coupling loss at both ends
    and an equal share of the path's propagation loss after each column.

    `transfers` is a (k, cells, 2, 2) stack in cell_addresses(n) order and
    `output_phases` (k, n); the loss figures are dB per facet, dB per cm and
    cm. The cells of a column act on disjoint mode pairs, so a column is one
    elementwise update of its row pairs: top' = t00 top + t01 bottom and
    bottom' = t10 top + t11 bottom. Returns the unchecked (k, n, n) products.
    """
    k, n = output_phases.shape
    # NaN fails every comparison, so these bounds reject it too
    if not (0 <= facet_db < np.inf and 0 <= prop_db < np.inf and 0 <= path_cm < np.inf):
        raise ValidationError("loss figures must be finite and >= 0")

    facet_amp = 10.0 ** (-facet_db / 20.0)
    # an (n,) array power: numpy's SIMD power rounds unlike a scalar one
    col_amp = 10.0 ** (-(prop_db * np.full(n, path_cm) / n) / 20.0)

    out = np.tile(np.eye(n, dtype=complex) * facet_amp, (k, 1, 1))
    for column, (start, stop) in enumerate(_column_bounds(n)):
        if stop > start:
            t = transfers[:, start:stop, :, :, None]
            top = out[:, column % 2 : n - 1 : 2, :]
            bottom = out[:, column % 2 + 1 : n : 2, :]
            # both new rows are built from the old ones before either is written
            top[...], bottom[...] = (
                t[..., 0, 0, :] * top + t[..., 0, 1, :] * bottom,
                t[..., 1, 0, :] * top + t[..., 1, 1, :] * bottom,
            )
        out *= col_amp[:, None]
    out = np.exp(1j * output_phases)[..., None] * out
    out *= facet_amp
    return out


def apply_loss(settings, profile):
    """Lossy transfer matrix of one program (see lossy_products).

    With all loss parameters zero the result equals mesh_unitary exactly.
    """
    transfers = cell_transfers(settings.theta, settings.phi)
    out = lossy_products(
        transfers[None], settings.output_phases[None],
        profile.coupling_loss_db_per_facet, profile.propagation_loss_db_per_cm,
        profile.path_length_cm,
    )
    return TransferMatrix(settings.n, out[0])


def settings_to_json_dict(settings):
    """Stable JSON document form, cell list sorted by (col, row)."""
    return {
        "n": settings.n,
        "cells": [
            {
                "col": addr.column,
                "row": addr.row,
                "theta": theta,
                "phi": phi,
            }
            for addr, theta, phi in zip(
                cell_addresses(settings.n),
                settings.theta.tolist(),
                settings.phi.tolist(),
            )
        ],
        "output_phases": [float(p) for p in settings.output_phases],
    }


def settings_from_json_dict(doc):
    try:
        n = as_int(doc["n"])
        cells = {
            CellAddress(as_int(c["col"]), as_int(c["row"])): CellSetting(
                float(c["theta"]), float(c["phi"])
            )
            for c in doc["cells"]
        }
        phases = np.asarray(doc["output_phases"], dtype=float)
    except (KeyError, TypeError, ValueError) as err:
        raise StructureError(f"malformed settings document: {err}") from err
    return MeshSettings(n=n, cells=cells, output_phases=phases)
