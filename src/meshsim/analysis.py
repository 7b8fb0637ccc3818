"""Metrics and scaling studies: amplitude fidelity, ensemble statistics,
error matrices, and the cross-platform useful-processor-size model."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from importlib import resources
from typing import Sequence

import numpy as np

from .util import ValidationError, as_real, as_reals

COLUMN_NORM_TOL = 1e-6
# number of identical unit cells that can be concatenated before transmission
# drops to 1/e, per dB of loss: 10*log10(e)
E_FOLD_DB = 10.0 * np.log10(np.e)
# histogram range and bin width of ensemble_statistics
BIN_LO, BIN_HI, BIN_WIDTH = 0.90, 1.00, 0.0025

# the two reference processors, smaller first
BUILTIN_PROCESSORS = (
    {
        "name": "12-mode processor",
        "modes": 12,
        "heaters": 132,
        "insertion_loss_db": 5.0,
        "coupling_loss_db_per_facet": 2.1,
        "propagation_loss_db_per_cm": 0.1,
    },
    {
        "name": "20-mode processor",
        "modes": 20,
        "heaters": 380,
        "insertion_loss_db": 2.9,
        "coupling_loss_db_per_facet": 0.9,
        "propagation_loss_db_per_cm": 0.07,
    },
)


@dataclass(frozen=True, eq=False)
class AmplitudeMatrix:
    """Elementwise magnitudes of a measured transformation, columns unit-norm,
    each entry finite and >= 0 (util.as_reals: "amplitude magnitudes ...")."""

    n: int
    magnitudes: np.ndarray

    def __post_init__(self):
        arr = as_reals(self.magnitudes, "amplitude magnitudes", (self.n, self.n), lo=0)
        norms = np.linalg.norm(arr, axis=0)
        if not np.max(np.abs(norms - 1.0)) <= COLUMN_NORM_TOL:
            raise ValidationError(
                "columns must be unit-norm after normalization; "
                f"worst deviation {np.max(np.abs(norms - 1.0)):.3e}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "magnitudes", arr)


def _magnitude_pair(target, measured):
    """|target| and the measured magnitudes, of a Unitary and an
    AmplitudeMatrix or of raw matrices or stacks, checked by util.as_reals
    for finite entries and matching shapes."""
    tmag = np.abs(as_reals(getattr(target, "elements", target), "target", dtype=complex))
    if tmag.ndim < 2 or not tmag.shape[-1]:
        raise ValidationError(f"target must be n x n with n >= 1, got shape {tmag.shape}")
    mmag = getattr(measured, "magnitudes", measured)
    return tmag, as_reals(mmag, "measured magnitudes", tmag.shape)


def amplitude_fidelity(target, measured):
    """F = (1/N) Tr(|Udag| . M) for target unitary U and measured magnitudes M,
    or the (k,) F of (k, n, n) stacks of both.

    Both factors have unit-norm columns, so F = 1 exactly when M equals |U|.
    """
    tmag, mmag = _magnitude_pair(target, measured)
    # Tr(|Udag| M) with |Udag| = |U|^T reduces to the elementwise sum
    return np.sum(tmag * mmag, axis=(-2, -1)) / tmag.shape[-1]


def error_matrix(target, measured):
    """Signed elementwise difference |target| - measured, of one matrix or a
    stack."""
    tmag, mmag = _magnitude_pair(target, measured)
    return tmag - mmag


@dataclass(frozen=True)
class EnsembleStats:
    mean: float
    std: float
    bin_edges: tuple
    counts: tuple
    underflow: int
    overflow: int

    def to_dict(self):
        return {
            "mean": self.mean,
            "std": self.std,
            "bin_edges": list(self.bin_edges),
            "counts": list(self.counts),
            "underflow": self.underflow,
            "overflow": self.overflow,
        }


def ensemble_statistics(values):
    """Mean, sample standard deviation, and a fixed-bin histogram.

    The bins are BIN_WIDTH (0.25%) wide over [BIN_LO, BIN_HI] = [90%, 100%];
    out-of-range values are tallied as underflow/overflow. Values are
    sorted before reduction so the result does not depend on input order.
    A value util.as_reals rejects raises ("ensemble values ...").
    """
    values = np.sort(as_reals(list(values), "ensemble values", (None,)))
    if values.size == 0:
        raise ValidationError("ensemble_statistics needs at least one value")
    nbins = int(round((BIN_HI - BIN_LO) / BIN_WIDTH))
    edges = np.linspace(BIN_LO, BIN_HI, nbins + 1)
    inside = values[(values >= BIN_LO) & (values <= BIN_HI)]
    counts, _ = np.histogram(inside, bins=edges)
    mean = float(np.mean(values))
    std = float(np.std(values, ddof=1)) if values.size > 1 else 0.0
    return EnsembleStats(
        mean=mean,
        std=std,
        bin_edges=tuple(float(e) for e in edges),
        counts=tuple(int(c) for c in counts),
        underflow=int(np.sum(values < BIN_LO)),
        overflow=int(np.sum(values > BIN_HI)),
    )


def useful_processor_size(loss_per_unit_cell_db):
    """Unit cells that fit in series before transmission drops below 1/e."""
    loss = as_real(loss_per_unit_cell_db, "loss per unit cell", above=0)
    cells = float(E_FOLD_DB) / loss  # overflows to inf, without numpy's warning
    if np.isinf(cells):
        raise ValidationError(f"loss per unit cell {loss!r} dB is too small to count cells")
    return int(np.floor(cells))


@dataclass(frozen=True)
class PlatformEntry:
    """One row of the platform comparison dataset."""

    name: str
    platform: str
    modes: int
    loss_per_unit_cell_db: float
    insertion_loss_db: float
    citation: str
    approximate: bool = True

    def __post_init__(self):
        name = self.name
        loss = as_real(self.loss_per_unit_cell_db, f"{name}: loss per unit cell", above=0)
        insertion = as_real(self.insertion_loss_db, f"{name}: insertion loss", 0)
        object.__setattr__(self, "loss_per_unit_cell_db", loss)
        object.__setattr__(self, "insertion_loss_db", insertion)


def load_platform_dataset():
    """Bundled platform CSV as PlatformEntry rows."""
    text = resources.files("meshsim").joinpath("data/platforms.csv").read_text()
    entries = []
    for row in csv.DictReader(io.StringIO(text)):
        entries.append(
            PlatformEntry(
                name=row["name"],
                platform=row["platform"],
                modes=int(row["modes"]),
                loss_per_unit_cell_db=float(row["loss_per_unit_cell_db"]),
                insertion_loss_db=float(row["insertion_loss_db"]),
                citation=row["citation"],
                approximate=row.get("approximate", "yes").strip().lower()
                in ("yes", "true", "1"),
            )
        )
    return entries


def platform_report(entries: Sequence[PlatformEntry] = ()):
    """Loss table plus useful-size ranking; always contains the two built-in
    processor rows, extra entries are ranked by useful processor size."""
    ranked = sorted(
        (
            {
                "name": e.name,
                "platform": e.platform,
                "modes": e.modes,
                "loss_per_unit_cell_db": e.loss_per_unit_cell_db,
                "insertion_loss_db": e.insertion_loss_db,
                "citation": e.citation,
                "approximate": e.approximate,
                "useful_processor_size": useful_processor_size(
                    e.loss_per_unit_cell_db
                ),
            }
            for e in entries
        ),
        key=lambda row: (-row["useful_processor_size"], row["name"]),
    )
    return {
        "processors": [dict(row) for row in BUILTIN_PROCESSORS],
        "platforms": ranked,
        "best_platform": ranked[0]["platform"] if ranked else None,
    }
