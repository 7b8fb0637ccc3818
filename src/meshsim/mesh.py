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
    dumps_canonical,
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
def cell_address_set(n):
    """cell_addresses(n) as a frozenset, for membership tests."""
    return frozenset(cell_addresses(n))


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
        expected = cell_address_set(n)
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


def cell_transfer(setting):
    """2x2 transfer matrix of one unit cell in the pinned convention."""
    half = 0.5 * setting.theta
    s = np.sin(half)
    c = np.cos(half)
    pre = np.exp(0.5j * setting.theta)
    ephi = np.exp(1j * setting.phi)
    return pre * np.array([[ephi * s, c], [ephi * c, -s]], dtype=complex)


def cell_transfers(theta, phi):
    """cell_transfer of every (theta, phi) pair at once: shape (k, 2, 2)."""
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


def propagate(transfers, out, col_start=0, col_stop=None, col_amp=None):
    """Left-multiply `out` in place by the cell columns [col_start, col_stop).

    `transfers` stacks one 2x2 matrix per cell in cell_addresses(n) order.
    The cells of a column act on disjoint mode pairs, so each column is one
    elementwise update of its row pairs: top' = t00 top + t01 bottom and
    bottom' = t10 top + t11 bottom. A leading batch axis on both, (k, cells,
    2, 2) transfers and a (k, n, n) `out`, runs k programs through the same
    arithmetic. With `col_amp`, every row is scaled by its per-mode
    amplitude after each column.
    """
    n = out.shape[-1]
    bounds = _column_bounds(n)
    for column in range(col_start, n if col_stop is None else col_stop):
        start, stop = bounds[column]
        if stop > start:
            t = transfers[..., start:stop, :, :, None]
            top = out[..., column % 2 : n - 1 : 2, :]
            bottom = out[..., column % 2 + 1 : n : 2, :]
            # both new rows are built from the old ones before either is written
            top[...], bottom[...] = (
                t[..., 0, 0, :] * top + t[..., 0, 1, :] * bottom,
                t[..., 1, 0, :] * top + t[..., 1, 1, :] * bottom,
            )
        if col_amp is not None:
            out *= col_amp[:, None]
    return out


def partial_mesh_product(settings, col_start, col_stop):
    """Product of the cell columns in [col_start, col_stop), no phase screen.

    Exposed so column-splitting composition can be checked directly.
    """
    transfers = cell_transfers(settings.theta, settings.phi)
    out = np.eye(settings.n, dtype=complex)
    return propagate(transfers, out, col_start, col_stop)


def mesh_unitary(settings):
    """Compose all cells in column order, then the output phase screen.

    The earliest column acts first on the input state, so the returned matrix
    is  diag(exp(i * output_phases)) . T_last ... T_first.
    """
    out = np.eye(settings.n, dtype=complex)
    propagate(cell_transfers(settings.theta, settings.phi), out)
    out = np.exp(1j * settings.output_phases)[:, None] * out
    return Unitary(settings.n, out)


def lossy_products(transfers, output_phases, profile):
    """Lossy transfer matrices of k programs at once: facet coupling loss at
    both ends plus uniform per-column propagation loss derived from each
    mode's path length, around the cells and the output phase screen.

    `transfers` is a (k, cells, 2, 2) cell stack, `output_phases` (k, n).
    Returns the unchecked (k, n, n) products. `profile` needs
    coupling_loss_db_per_facet, propagation_loss_db_per_cm and
    path_length_cm (scalar or per-mode) attributes.
    """
    k, n = output_phases.shape
    facet_db = float(profile.coupling_loss_db_per_facet)
    prop_db = float(profile.propagation_loss_db_per_cm)
    paths = np.broadcast_to(
        np.asarray(profile.path_length_cm, dtype=float), (n,)
    )
    if facet_db < 0 or prop_db < 0 or np.any(paths < 0):
        raise ValidationError("loss parameters must be non-negative")

    facet_amp = 10.0 ** (-facet_db / 20.0)
    # each of the n columns carries an equal share of the mode's path
    col_amp = 10.0 ** (-(prop_db * paths / n) / 20.0)

    out = np.tile(np.eye(n, dtype=complex) * facet_amp, (k, 1, 1))
    propagate(transfers, out, col_amp=col_amp)
    out = np.exp(1j * output_phases)[..., None] * out
    out *= facet_amp
    return out


def apply_loss(settings, profile):
    """Lossy transfer matrix of one program (see lossy_products).

    With all loss parameters zero the result equals mesh_unitary exactly.
    """
    transfers = cell_transfers(settings.theta, settings.phi)
    out = lossy_products(transfers[None], settings.output_phases[None], profile)
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
        n = int(doc["n"])
        cells = {
            CellAddress(int(c["col"]), int(c["row"])): CellSetting(
                float(c["theta"]), float(c["phi"])
            )
            for c in doc["cells"]
        }
        phases = np.asarray(doc["output_phases"], dtype=float)
    except (KeyError, TypeError) as err:
        raise StructureError(f"malformed settings document: {err}") from err
    return MeshSettings(n=n, cells=cells, output_phases=phases)


def settings_to_json(settings):
    return dumps_canonical(settings_to_json_dict(settings))


def settings_from_json(text):
    import json

    return settings_from_json_dict(json.loads(text))
