"""Thermo-optic hardware layer: heater models, calibration fringe fits,
crosstalk-aware drive solving, and noisy lossy mesh transfers.

Every heater follows phi = phi0 + alpha * v^2 / R (dissipated power times a
thermo-optic coefficient), and neighboring heaters leak a fraction of their
power into each other's phase. The realized mesh adds static splitting-ratio
disorder and per-run phase-setting jitter on top of the programmed settings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional

import numpy as np

from . import analysis
from .mesh import (
    MeshSettings,
    TransferMatrix,
    apply_loss,
    bar_settings,
    cell_addresses,
    gain_defect,
    lossy_products,
)
from .util import (
    FIT_ITERATIONS,
    TWO_PI,
    FitDegeneracyError,
    InfeasibleError,
    MeshsimError,
    UnknownHeaterError,
    ValidationError,
    as_int,
    as_real,
    as_reals,
    atomic_write_text,
    column_sums,
    dumps_canonical,
    seeded_rng,
    variable_projection,
    wrap_phase,
    wrap_signed,
)

HEATER_KINDS = ("theta", "phi")

DEFAULT_ALPHA_RAD_PER_W = 3.0 * np.pi
DEFAULT_RESISTANCE_OHM = 100.0
DEFAULT_V_MAX_V = 10.0

# calibrated-profile disorder and drift magnitudes, frozen after end-to-end
# fidelity characterization at n=20. Internal (theta) phases are pinned by
# the fringe-visibility calibration and drift little; external (phi) phases
# lack an interferometric reference and carry most of the setting error.
CALIBRATED_SPLITTER_SIGMA_RAD = 0.01
CALIBRATED_THETA_SIGMA_RAD = 0.035
CALIBRATED_PHI_SIGMA_RAD = 0.136
CALIBRATED_PARTNER_CROSSTALK = 0.06
CALIBRATED_NEIGHBOR_CROSSTALK = 0.02
CALIBRATED_COUPLING_LOSS_DB = 0.9
CALIBRATED_PROP_LOSS_DB_PER_CM = 0.07
CALIBRATED_PATH_LENGTH_CM = 15.7

_PROFILE_STREAM = 11
_STATIC_STREAM = 101
_JITTER_STREAM = 202
_SWEEP_STREAM = 303

SOLVE_MAX_SWEEPS = 500

# programs a campaign holds at once: the fidelity campaigns draw, compile,
# solve, realize and score CHUNK targets at a time, and the routed scans are
# realized CHUNK at a time. No bit depends on it, only time and memory do
# (README, "Fidelity campaigns"): 32 cost fidelity-haar 10% of its items/s,
# and 190 raised hom-map's peak RSS by 12%.
CHUNK = 64


def heater_id(column, row, kind):
    if kind not in HEATER_KINDS:
        raise ValidationError(f"unknown heater kind {kind!r}")
    return f"c{as_int(column):02d}r{as_int(row):02d}.{kind}"


@lru_cache(maxsize=None, typed=True)
def heater_order(n):
    """Canonical heater ids: cells sorted by (col, row), theta before phi."""
    if as_int(n) < 2:
        raise ValidationError(f"a device needs n >= 2 modes, got {n}")
    return tuple(
        heater_id(addr.column, addr.row, kind)
        for addr in cell_addresses(n)
        for kind in HEATER_KINDS
    )


@lru_cache(maxsize=None)
def heater_index(n):
    """Read-only map from heater id to its position in heater_order(n)."""
    return MappingProxyType({h: i for i, h in enumerate(heater_order(n))})


class HeaterModel(NamedTuple):
    """One heater of a profile, phi = phi0 + alpha * v^2 / R, as a plain
    read-only view (see HardwareProfile.heaters)."""

    phi0_rad: float
    alpha_rad_per_w: float
    resistance_ohm: float
    v_max_v: float


@dataclass(frozen=True)
class CrosstalkMatrix:
    """Dense power-to-phase coupling; row i is the phase response of heater i
    to the powers of every heater, so the diagonal holds the direct alphas."""

    matrix: np.ndarray

    def __post_init__(self):
        m = as_reals(self.matrix, "crosstalk matrix", (None, None))
        if m.shape[0] != m.shape[1]:
            raise ValidationError("crosstalk matrix must be square")
        diag = np.diag(m)
        if np.any(diag <= 0):
            raise ValidationError("direct coefficients must be > 0")
        off = m - np.diag(diag)
        worst = np.max(np.abs(off), axis=1)
        if np.any(worst >= diag):
            raise ValidationError(
                "each off-diagonal coupling must stay below the direct term"
            )
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def size(self):
        return self.matrix.shape[0]

    def offdiagonal(self):
        return self.matrix - np.diag(np.diag(self.matrix))


# the profile's scalar figures, each finite and >= 0, and their error's name
_PROFILE_SCALARS = {
    "coupling_loss_db_per_facet": "loss figures",
    "propagation_loss_db_per_cm": "loss figures",
    "path_length_cm": "loss figures",
    "splitter_error_sigma_rad": "noise sigmas",
    "theta_noise_sigma_rad": "noise sigmas",
    "phi_noise_sigma_rad": "noise sigmas",
}


@dataclass(frozen=True)
class HardwareProfile:
    """Full device description used by the simulator and the compiler chain.

    phi0_rad, resistance_ohm and v_max_v are read-only arrays in
    heater_order(n); each heater's alpha is its entry on the crosstalk
    diagonal. The static splitting-ratio errors and their coupler_terms
    are drawn from the disorder seed at construction. Build a changed
    device with dataclasses.replace.
    """

    name: str
    n: int
    phi0_rad: np.ndarray
    resistance_ohm: np.ndarray
    v_max_v: np.ndarray
    crosstalk: CrosstalkMatrix
    coupling_loss_db_per_facet: float = 0.0
    propagation_loss_db_per_cm: float = 0.0
    path_length_cm: float = 0.0
    splitter_error_sigma_rad: float = 0.0
    theta_noise_sigma_rad: float = 0.0
    phi_noise_sigma_rad: float = 0.0
    disorder_seed: int = 0
    coupler_terms: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        order = heater_order(self.n)
        if self.crosstalk.size != len(order):
            raise ValidationError(
                f"crosstalk is {self.crosstalk.size}x{self.crosstalk.size}, "
                f"expected {len(order)}"
            )
        for name, positive in (
            ("phi0_rad", False), ("resistance_ohm", True), ("v_max_v", True)
        ):
            # entries are checked below, where the error names the heater
            values = as_reals(getattr(self, name), name, finite=False)
            if values.shape != (len(order),):
                raise ValidationError(
                    f"{name} must hold {len(order)} heaters for n={self.n}, "
                    f"got shape {values.shape}"
                )
            bad = ~np.isfinite(values) | (positive & ~(values > 0))
            if bad.any():
                raise ValidationError(
                    f"heater {order[np.argmax(bad)]}: {name} must be finite"
                    + (" and > 0" if positive else "")
                )
            values.setflags(write=False)
            object.__setattr__(self, name, values)
        for name, what in _PROFILE_SCALARS.items():
            object.__setattr__(self, name, as_real(getattr(self, name), what, 0))
        rng = seeded_rng(self.disorder_seed, _STATIC_STREAM)
        eps = rng.normal(0.0, self.splitter_error_sigma_rad, (len(order) // 2, 2))
        # cos/sin of the inner (1) and outer (2) coupling angles pi/4 + eps,
        # as the products c1 c2, s1 s2, c1 s2, s1 c2 the cell kernel takes
        (c1, c2), (s1, s2) = np.cos(np.pi / 4 + eps.T), np.sin(np.pi / 4 + eps.T)
        terms = np.array([c1 * c2, s1 * s2, c1 * s2, s1 * c2])
        terms.setflags(write=False)
        object.__setattr__(self, "coupler_terms", terms)

    @property
    def heater_ids(self):
        return heater_order(self.n)

    @property
    def alpha_rad_per_w(self):
        """Direct power-to-phase coefficients: the crosstalk diagonal."""
        return self.crosstalk.matrix.diagonal()

    @cached_property
    def heaters(self):
        """Read-only map from heater id to its HeaterModel, built on first
        access."""
        columns = zip(
            self.phi0_rad.tolist(),
            self.alpha_rad_per_w.tolist(),
            self.resistance_ohm.tolist(),
            self.v_max_v.tolist(),
        )
        return MappingProxyType({
            hid: HeaterModel(*values) for hid, values in zip(self.heater_ids, columns)
        })


def ideal_profile(n):
    """Noise-free, loss-free profile with uniform heaters and no crosstalk."""
    count = len(heater_order(n))
    return HardwareProfile(
        name="ideal",
        n=n,
        phi0_rad=np.zeros(count),
        resistance_ohm=np.full(count, DEFAULT_RESISTANCE_OHM),
        v_max_v=np.full(count, DEFAULT_V_MAX_V),
        crosstalk=CrosstalkMatrix(np.diag(np.full(count, DEFAULT_ALPHA_RAD_PER_W))),
    )


def _calibrated_coupling(n, alpha):
    """diag(alpha) plus thermal crosstalk: row i couples heater i to the
    other heater of its cell by CALIBRATED_PARTNER_CROSSTALK * alpha[i] and
    to both heaters of each diagonally adjacent cell by
    CALIBRATED_NEIGHBOR_CROSSTALK * alpha[i]. Heater 2c + k is kind k of
    cell c of cell_addresses(n)."""
    cells = cell_addresses(n)
    column = np.array([addr.column for addr in cells])
    row = np.array([addr.row for addr in cells])
    # cell indices on a grid padded by one on every side, -1 off the mesh
    grid = np.full((n + 2, n + 2), -1)
    grid[column + 1, row + 1] = np.arange(len(cells))
    heaters = np.arange(2 * len(cells))
    cell = heaters // 2
    matrix = np.diag(alpha)
    matrix[heaters, heaters ^ 1] = CALIBRATED_PARTNER_CROSSTALK * alpha
    for dc in (-1, 1):
        for dr in (-1, 1):
            neighbor = grid[column[cell] + 1 + dc, row[cell] + 1 + dr]
            on = neighbor >= 0
            for kind in range(len(HEATER_KINDS)):
                matrix[heaters[on], 2 * neighbor[on] + kind] = (
                    CALIBRATED_NEIGHBOR_CROSSTALK * alpha[on]
                )
    return matrix


def calibrated_profile(n, disorder_seed=0):
    """Device-like profile: spread phi0 offsets, per-heater alphas, thermal
    crosstalk between cell partners and diagonally adjacent cells, and the
    measured loss and noise figures of the 20-mode reference unit."""
    count = len(heater_order(n))
    rng = seeded_rng(disorder_seed, _PROFILE_STREAM)
    phi0 = rng.uniform(0.2, 6.08, count)
    alpha = DEFAULT_ALPHA_RAD_PER_W * (1.0 + rng.uniform(0.0, 0.04, count))
    return HardwareProfile(
        name=f"calibrated-{disorder_seed}",
        n=n,
        phi0_rad=phi0,
        resistance_ohm=np.full(count, DEFAULT_RESISTANCE_OHM),
        v_max_v=np.full(count, DEFAULT_V_MAX_V),
        crosstalk=CrosstalkMatrix(_calibrated_coupling(n, alpha)),
        coupling_loss_db_per_facet=CALIBRATED_COUPLING_LOSS_DB,
        propagation_loss_db_per_cm=CALIBRATED_PROP_LOSS_DB_PER_CM,
        path_length_cm=CALIBRATED_PATH_LENGTH_CM,
        splitter_error_sigma_rad=CALIBRATED_SPLITTER_SIGMA_RAD,
        theta_noise_sigma_rad=CALIBRATED_THETA_SIGMA_RAD,
        phi_noise_sigma_rad=CALIBRATED_PHI_SIGMA_RAD,
        disorder_seed=disorder_seed,
    )


# ---------------------------------------------------------------------------
# calibration: single-heater fringe sweeps and their fits


@dataclass(frozen=True)
class SweepRecord:
    heater_id: str
    voltages_v: np.ndarray
    signal: np.ndarray


def _sweeps(profile, index, points, seed, detector_noise_sigma):
    """Voltages v (k, points) and monitor-port fringes of the heaters `index`
    (k,), each swept over `points` evenly spaced voltages from 0 to its
    v_max: scale * (0.5 + 0.5 * cos(phi(v))) with the scale set by the
    profile's static insertion loss, plus each heater's own stream of
    Gaussian detector noise."""
    if as_int(points) < 2:
        raise ValidationError(f"a sweep needs >= 2 voltage points, got {points}")
    v = np.linspace(0.0, profile.v_max_v[index], points, axis=1)
    detector_noise_sigma = as_real(detector_noise_sigma, "detector noise sigma", 0)
    il_db = 2 * profile.coupling_loss_db_per_facet + (
        profile.propagation_loss_db_per_cm * profile.path_length_cm
    )
    scale = 10.0 ** (-il_db / 10.0)
    phase = profile.phi0_rad[index, None] + (
        profile.alpha_rad_per_w[index, None] * v**2 / profile.resistance_ohm[index, None]
    )
    signal = scale * (0.5 + 0.5 * np.cos(phase))
    if detector_noise_sigma > 0:
        signal = signal + np.stack([
            seeded_rng(seed, _SWEEP_STREAM, i).normal(0.0, detector_noise_sigma, v.shape[1])
            for i in index
        ])
    return v, signal


def simulate_calibration_sweep(
    profile, hid, points=64, seed=0, detector_noise_sigma=0.0
):
    """Monitor-port fringe while one heater is swept over `points` evenly
    spaced voltages from 0 to its v_max and all others idle.

    The detected signal is scale * (0.5 + 0.5 * cos(phi(v))) with the scale
    set by the profile's static insertion loss, plus optional Gaussian
    detector noise.
    """
    i = heater_index(profile.n).get(hid)
    if i is None:
        raise UnknownHeaterError(f"profile has no heater {hid!r}")
    v, signal = _sweeps(profile, [i], points, seed, detector_noise_sigma)
    return SweepRecord(heater_id=hid, voltages_v=v[0], signal=signal[0])


@dataclass(frozen=True)
class CalibrationEntry:
    heater_id: str
    phi0_rad: float
    alpha_rad_per_w: float
    residual: float


# the undamped step, relative to alpha, below which a heater has converged
# (about two ulp): a slow polish (README, "Calibration fit") stops over
# 1e-12 short of its optimum at the dip fit's 1e-13
_FIT_STEP_TOL = 4.4e-16
# the alpha grid, relative to the FFT seed; its size is measured (README)
_ALPHA_GRID = np.linspace(0.75, 1.25, 15)


def _fringe_seeds(power, signal, low, high):
    """alpha of the strongest fringe of each (k, m) sweep, from one rfft of
    the sweeps resampled onto uniform power grids from `low` to `high` (power
    is quadratic in the swept voltage)."""
    m = 8 * power.shape[1]
    spacing = (high - low) / (m - 1)
    # np.linspace(low, high, m) row by row, in one pass, resampled in place
    resampled = np.arange(m) * spacing[:, None] + low[:, None]
    resampled[:, -1] = high
    for i, p in enumerate(resampled):
        p[:] = np.interp(p, power[i], signal[i])
    resampled -= column_sums(resampled.T)[:, None] / m
    bins = np.abs(np.fft.rfft(resampled, axis=1)[:, 1:]).argmax(1) + 1
    return TWO_PI * bins / (m * spacing)


def _fringe_screen(p, y, alpha0, step, points):
    """Position, in steps, of the best point of every heater's alpha grid
    alpha0 + j step, j < points, refined between the grid points.

    p, y are (m, k) powers and signals. At a fixed alpha the model
    A + B cos(alpha p) + C sin(alpha p) is linear; with A eliminated, the
    fit explains E = b^T M^-1 b of the centred signal's sum of squares, so
    the point of least SSR is the one of largest E. The screen only seeds
    the polish, so E comes from the normal equations, and the grid is
    walked one point at a time, cos and sin rotated by one step per point,
    since one cos costs about 60 multiplications.
    """
    m, k = p.shape
    # cos, sin, cos^2, cos sin, y cos, y sin at the current grid point
    terms = np.empty((m, 6, k))
    trig = terms[:, :2]
    phase = p * alpha0
    np.cos(phase, out=trig[:, 0])
    np.sin(phase, out=trig[:, 1])
    phase = p * step
    rc, rs = np.cos(phase)[:, None], np.sin(phase)
    sums = np.empty((6, points, k))
    for j in range(points):
        if j:
            turned = trig * rc
            turned[:, 0] -= trig[:, 1] * rs
            turned[:, 1] += trig[:, 0] * rs
            trig[...] = turned
        np.multiply(trig[:, :1], trig, out=terms[:, 2:4])
        np.multiply(y[:, None], trig, out=terms[:, 4:6])
        sums[:, j] = column_sums(terms)
    sc, ss, scc, scs, syc, sys = sums
    # cos^2 + sin^2 = 1 to rounding, which the screen can ignore
    mcc, mcs, mss = scc - sc * sc / m, scs - sc * ss / m, m - scc - ss * ss / m
    sy = column_sums(y)
    bc, bs = syc - sc * sy / m, sys - ss * sy / m
    with np.errstate(all="ignore"):
        explained = (mss * bc * bc - 2.0 * mcs * bc * bs + mcc * bs * bs) / (
            mcc * mss - mcs * mcs
        )
        explained = np.where(np.isfinite(explained), explained, -np.inf)
        best = np.argmax(explained, axis=0)
        # the vertex of the parabola through an inner best point and its
        # two neighbours, kept within half a step of the best point
        cols = np.arange(best.size)
        low, mid = explained[np.maximum(best - 1, 0), cols], explained[best, cols]
        high = explained[np.minimum(best + 1, points - 1), cols]
        shift = 0.5 * (low - high) / (low - 2.0 * mid + high)
        inside = (best > 0) & (best < points - 1) & (np.abs(shift) <= 0.5)
        shift = np.where(inside, shift, 0.0)
    return best + shift


def _fringe_model(p, alpha):
    """The fringe basis (cos, sin)(alpha p), its derivatives in alpha and
    alpha as the scale of a step, for util.variable_projection."""
    phase = p * alpha
    c, s = np.cos(phase), np.sin(phase)
    return [c, s], [[-p * s], [p * c]], alpha


# why a heater's fit fails, in the order a single fit checks: three input
# checks, then the vanishing fringe, the polish and the swept span
_FIT_FAILURES = (
    "non-finite sweep data",
    "degenerate voltage grid",
    "constant signal",
    "vanishing fringe",
    f"fit did not converge in {FIT_ITERATIONS} iterations",
    "swept span {:.3f} rad covers less than one fringe period",
)


def fit_phase_responses(power, signal, heater_ids):
    """Recover (phi0, alpha) of every heater from a (k, m) stack of fringe
    sweeps: signal against power p = v^2 / R.

    Model: signal = A + B * cos(alpha * p + phi0). An FFT of each sweep
    seeds alpha, a 15-point grid over 0.75-1.25 times the seed refines it,
    and a Gauss-Newton polish on alpha alone, with (A, B, C) projected out,
    converges to the least-squares optimum. Every operation acts on each
    heater alone, so a heater's fit is the same bits in any stack. Raises
    FitDegeneracyError for the first heater, in stack order, whose data
    cannot pin the parameters down (too few samples or distinct powers,
    non-finite data, a flat fringe, a swept span under one period) or whose
    polish does not converge. Returns the (phi0, alpha, rms residual)
    arrays in stack order.
    """
    # non-finite samples fail their heater's fit below, so it is named
    power = as_reals(power, "power", finite=False)
    signal = as_reals(signal, "signal", finite=False)
    if power.ndim != 2 or signal.shape != power.shape or len(heater_ids) != len(power):
        raise ValidationError("power and signal must be (k, m) stacks for k heaters")
    k, m = power.shape
    if k and m < 8:
        raise FitDegeneracyError(f"{heater_ids[0]}: need >= 8 samples, got {m}")
    # the model does not depend on the sample order, but the FFT seed's
    # np.interp needs ascending powers; a stable sort keeps an ascending sweep
    order = np.argsort(power, axis=1, kind="stable")
    power = np.take_along_axis(power, order, 1)
    signal = np.take_along_axis(signal, order, 1)
    failed = np.zeros((len(_FIT_FAILURES), k), bool)
    with np.errstate(all="ignore"):
        failed[0] = ~(np.isfinite(power).all(1) & np.isfinite(signal).all(1))
        # fewer than 4 distinct powers fit the 4-parameter model at any alpha
        failed[1] = 1 + (power[:, 1:] != power[:, :-1]).sum(1) < 4
        failed[2] = signal.max(1) - signal.min(1) < 1e-12
    # the heaters before the first bad sweep are fitted, and a failure
    # among them is raised first, as a heater-order loop would
    fitted = int(np.argmax(failed.any(0))) if failed.any() else k
    power, signal = power[:fitted], signal[:fitted]
    low, high = power[:, 0], power[:, -1]
    span = high - low
    seed = _fringe_seeds(power, signal, low, high)
    p, y = power.T.copy(), signal.T.copy()
    grid_step = _ALPHA_GRID[1] - _ALPHA_GRID[0]
    best = _fringe_screen(p, y, seed * _ALPHA_GRID[0], seed * grid_step, _ALPHA_GRID.size)
    # alpha = 0 is a degenerate fringe, which no step may cross
    (alpha,), (_, b, c), ssr, converged = variable_projection(
        _fringe_model, p, y, seed[None] * (_ALPHA_GRID[0] + best * grid_step), 0.0, np.inf,
        offset=True, tol=_FIT_STEP_TOL,
    )
    turns = alpha * span
    failed[3, :fitted] = np.hypot(b, c) < 1e-9
    failed[4, :fitted] = ~converged
    failed[5, :fitted] = turns < TWO_PI
    if failed.any():
        i = int(np.argmax(failed.any(0)))
        why = _FIT_FAILURES[int(np.argmax(failed[:, i]))]
        # only the span message takes a value, and only a fitted heater has one
        raise FitDegeneracyError(f"{heater_ids[i]}: " + why.format(*turns[i : i + 1]))
    # a scalar atan2 per heater: np.arctan2 rounds differently by SIMD path
    phi0 = [math.atan2(-ci, bi) for bi, ci in zip(b.tolist(), c.tolist())]
    return wrap_phase(np.array(phi0)), alpha, np.sqrt(ssr / m)


def fit_phase_response(sweep, resistance_ohm):
    """fit_phase_responses of one sweep: the same fit, bit for bit, as a
    CalibrationEntry."""
    resistance_ohm = as_real(resistance_ohm, f"{sweep.heater_id}: resistance", above=0)
    v = as_reals(sweep.voltages_v, f"{sweep.heater_id}: voltages", finite=False)
    signal = as_reals(sweep.signal, f"{sweep.heater_id}: signal", finite=False)
    if v.shape != signal.shape:
        raise FitDegeneracyError(
            f"{sweep.heater_id}: {v.size} voltages for {signal.size} signal samples"
        )
    power = v.reshape(1, -1) ** 2 / resistance_ohm
    fit = fit_phase_responses(power, signal.reshape(1, -1), [sweep.heater_id])
    return CalibrationEntry(sweep.heater_id, *(float(x[0]) for x in fit))


@dataclass(frozen=True)
class CalibrationRecord:
    """Fitted (phi0, alpha) for every heater of one device.

    Immutable, entries included (they are kept as a read-only copy):
    solve_voltages keeps the inverted drive system of the last profile it
    was solved against on the record.
    """

    entries: Mapping[str, CalibrationEntry]
    _drive_memo: Optional[tuple] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        object.__setattr__(self, "entries", MappingProxyType(dict(self.entries)))

    @classmethod
    def exact_from_profile(cls, profile):
        entries = {
            hid: CalibrationEntry(
                heater_id=hid, phi0_rad=phi0, alpha_rad_per_w=alpha, residual=0.0
            )
            for hid, phi0, alpha in zip(
                profile.heater_ids,
                wrap_phase(profile.phi0_rad).tolist(),
                profile.alpha_rad_per_w.tolist(),
            )
        }
        return cls(entries=entries)

    def arrays(self, order):
        """(phi0, alpha, residual) arrays in the given heater order."""
        phi0 = np.array([self.entries[h].phi0_rad for h in order])
        alpha = np.array([self.entries[h].alpha_rad_per_w for h in order])
        residual = np.array([self.entries[h].residual for h in order])
        return phi0, alpha, residual


def calibrate_profile(profile, points=64, seed=0, detector_noise_sigma=0.0):
    """Sweep every heater over the grid simulate_calibration_sweep uses, and
    fit all sweeps at once; returns a CalibrationRecord."""
    index = np.arange(len(profile.heater_ids))
    v, signal = _sweeps(profile, index, points, seed, detector_noise_sigma)
    fit = fit_phase_responses(
        v**2 / profile.resistance_ohm[:, None], signal, profile.heater_ids
    )
    entries = map(CalibrationEntry, profile.heater_ids, *(x.tolist() for x in fit))
    return CalibrationRecord(entries={e.heater_id: e for e in entries})


# ---------------------------------------------------------------------------
# drive solving


@dataclass(frozen=True)
class DriveSolution:
    """Solved drive in heater_order; voltages_v is read-only. A stack of
    targets gives one row, iteration count and residual per target."""

    voltages_v: np.ndarray
    powers_w: np.ndarray
    iterations: int | list
    residual_rad: float | list


def heater_targets(settings):
    """Commanded heater phases of a compiled program, canonical order."""
    values = np.empty(2 * settings.theta.size)
    values[0::2] = settings.theta
    values[1::2] = settings.phi
    return values


def settings_from_heater_phases(n, phases, output_phases=None):
    """Inverse of heater_targets: canonical phase vector to MeshSettings;
    util.as_reals checks the vector ("heater phases ...")."""
    phases = as_reals(phases, "heater phases", (2 * len(cell_addresses(n)),))
    return MeshSettings.from_phases(
        n, phases[0::2], phases[1::2], output_phases=output_phases
    )


def _heater_rows(profile, values, what, lo=None):
    """util.as_reals of a (heaters,) vector or a (k, heaters) stack."""
    arr = as_reals(values, what, lo=lo)
    count = len(profile.heater_ids)
    if arr.ndim not in (1, 2) or arr.shape[-1] != count:
        raise ValidationError(f"{what} must have {count} per row, got shape {arr.shape}")
    return arr


def _drive_system(profile, calibration):
    """(phi0, coupling, inverse) for one (profile, calibration): the
    calibrated phi0, the coupling diag(fitted alpha) + the profile's
    crosstalk, and its read-only inverse, built once per pair. Raises
    ValidationError naming the first heater whose phi0 is not finite or
    whose alpha is not finite and > 0.

    They live in a single slot on the record, keyed by the profile's
    identity, so a record solved against another profile is inverted
    again, never served a stale inverse. Concurrent first calls may each
    build them; they build identical values, so the unlocked slot write is
    harmless.
    """
    memo = calibration._drive_memo
    if memo is not None and memo[0] is profile:
        return memo[1]
    if calibration.entries.keys() != set(profile.heater_ids):
        raise ValidationError("the calibration record is for another heater set")
    phi0, alpha, _ = calibration.arrays(profile.heater_ids)
    bad = ~(np.isfinite(phi0) & np.isfinite(alpha) & (alpha > 0))
    if bad.any():
        raise ValidationError(
            f"heater {profile.heater_ids[np.argmax(bad)]}: calibrated phi0 must "
            "be finite and alpha finite and > 0"
        )
    coupling = np.diag(alpha) + profile.crosstalk.offdiagonal()
    inverse = np.linalg.inv(coupling)
    inverse.setflags(write=False)
    system = (phi0, coupling, inverse)
    object.__setattr__(calibration, "_drive_memo", (profile, system))
    return system


def solve_voltages(profile, calibration, target):
    """Drive voltages whose realized phases equal each target modulo 2*pi.

    The phase system is linear in the dissipated powers once each heater's
    2*pi branch is fixed: C p = r with C the crosstalk matrix and r the
    unwrapped residuals. Starting from the principal branch, any heater
    whose solved power comes out negative (its crosstalk background already
    overshoots the residual) is moved up one branch and the system is
    re-solved; backgrounds are bounded well below 2*pi, so each heater moves
    at most once. C is inverted once per (profile, calibration), so each
    round is one matrix-vector product per target, the same bits alone or
    in a (k, heaters) stack. Raises ValidationError ("target phases ...")
    for a target util.as_reals rejects, and InfeasibleError, naming a
    stack's first such row, when a required power exceeds a heater's budget.
    """
    t = _heater_rows(profile, target, "target phases")
    phi0, coupling, inverse = _drive_system(profile, calibration)
    p_max = profile.v_max_v**2 / profile.resistance_ohm

    residual = wrap_phase(t - phi0)
    iterations = np.ones(t.shape[:-1], int)
    for _ in range(SOLVE_MAX_SWEEPS):
        p = (inverse @ residual[..., None])[..., 0]
        below = p < -1e-12
        if not below.any():
            break
        iterations += below.any(-1)
        residual = residual + np.where(below, TWO_PI, 0.0)
    else:
        raise MeshsimError(
            f"drive solve did not settle on branches in {SOLVE_MAX_SWEEPS} rounds"
        )
    p = np.maximum(p, 0.0)
    check = np.abs(wrap_signed(phi0 + (coupling @ p[..., None])[..., 0] - t)).max(-1)
    # written so that a NaN error fails it
    if not np.max(check, initial=0.0) <= 1e-6:
        raise MeshsimError(f"drive solve left a {np.max(check):.3e} rad phase error")

    rows, heaters = np.nonzero(np.atleast_2d(p > p_max * (1 + 1e-12)))
    if rows.size:
        bad = [profile.heater_ids[i] for i in heaters[rows == rows[0]]]
        raise InfeasibleError(
            (f"row {rows[0]}: " if t.ndim == 2 else "")
            + f"{len(bad)} heater(s) need more than the voltage budget allows",
            heater_ids=bad,
        )
    volts = np.sqrt(p * profile.resistance_ohm)
    volts.setflags(write=False)
    return DriveSolution(
        voltages_v=volts,
        powers_w=p,
        iterations=iterations.tolist(),
        residual_rad=check.tolist(),
    )


def realized_heater_phases(profile, powers_w):
    """True phases produced by a (heaters,) power vector or a (k, heaters)
    stack, including crosstalk; powers must be finite and >= 0."""
    p = _heater_rows(profile, powers_w, "powers", lo=0)
    return profile.phi0_rad + (profile.crosstalk.matrix @ p[..., None])[..., 0]


# ---------------------------------------------------------------------------
# realized (noisy, lossy) transfers


def _noisy_transfers(theta, phi, coupler_terms):
    """Physical unit cells -i C2 diag(e^{i theta}, 1) C1 diag(e^{i phi}, 1):
    two imperfect 50:50 couplers around the theta shifter, after the phi
    shifter, in closed form from HardwareProfile.coupler_terms:

        t00 = -i (cc e^{i theta} - ss) e^{i phi}    t01 = sc e^{i theta} + cs
        t10 = (cs e^{i theta} + sc) e^{i phi}       t11 = -i (cc - ss e^{i theta})

    Real elementwise * and + only, so a cell's bits depend on neither the
    stack shape nor the SIMD dispatch. Returns the (..., 2, 2) stack
    mesh.lossy_products takes."""
    cc, ss, cs, sc = coupler_terms
    ct, st = np.cos(theta), np.sin(theta)
    cp, sp = np.cos(phi), np.sin(phi)
    x, y = cc * ct - ss, cc * st
    u, v = cs * ct + sc, cs * st
    parts = np.stack([
        y * cp + x * sp, y * sp - x * cp, sc * ct + cs, sc * st,
        u * cp - v * sp, u * sp + v * cp, -ss * st, ss * ct - cc,
    ], axis=-1)
    return parts.view(complex).reshape(np.shape(theta) + (2, 2))


def realized_transfers(profile, theta, phi, output_phases, seeds, inputs=None):
    """Read-only (k, n, c) block of the transfer matrices the device
    actually implements for k programs, from (k, cells) theta and phi
    stacks in cell_addresses(n) order, (k, n) output phases and one run
    seed per program: the columns of a (k, c) array of input modes, all n
    in order (the full (k, n, n) stack) by default.

    Static splitting-ratio errors are drawn once per profile, phase jitter
    fresh per run seed, and the loss model is mesh.lossy_products; a
    program's column is the same bits in any stack and any input set.
    Raises ValidationError naming the first program whose distinct columns
    are non-finite or have gain (mesh.gain_defect). With an ideal profile
    each matrix equals the programmed mesh to rounding error.
    """
    seeds = list(seeds)
    k, n = len(seeds), profile.n
    count = len(cell_addresses(n))
    # entries are left to gain_defect, whose error names the program
    theta, phi, output_phases = (
        as_reals(value, name, (k, width), finite=False)
        for name, value, width in (
            ("theta", theta, count), ("phi", phi, count), ("output_phases", output_phases, n)
        )
    )
    if inputs is not None:
        inputs = as_reals(inputs, "input modes", (k, None), 0, n - 1, dtype=int)
    # np.reshape, unlike np.stack, also takes the empty list of k = 0
    jitter = np.reshape(
        [seeded_rng(s, _JITTER_STREAM).standard_normal((count, 2)) for s in seeds],
        (k, count, 2),
    )
    jitter *= [profile.theta_noise_sigma_rad, profile.phi_noise_sigma_rad]
    transfers = _noisy_transfers(
        theta + jitter[..., 0], phi + jitter[..., 1], profile.coupler_terms
    )
    out = lossy_products(
        transfers, output_phases, profile.coupling_loss_db_per_facet,
        profile.propagation_loss_db_per_cm, profile.path_length_cm, inputs,
    )
    distinct = out
    if inputs is not None:
        # a repeated mode repeats a column, which is no gain: check one copy
        repeat = np.triu(inputs[:, :, None] == inputs[:, None, :], 1).any(axis=1)
        distinct = np.where(repeat[:, None, :], 0.0, out)
    defect = gain_defect(distinct)
    if defect is not None:
        raise ValidationError(f"program {defect[0]}: {defect[1]}")
    out.setflags(write=False)
    return out


def _stack_of_one(profile, settings):
    """theta, phi and output_phases of one program as stacks of one."""
    if settings.n != profile.n:
        raise ValidationError(
            f"settings are for n={settings.n}, profile for n={profile.n}"
        )
    return settings.theta[None], settings.phi[None], settings.output_phases[None]


def realized_transfer(profile, settings, seed=0):
    """realized_transfers of one program, as a TransferMatrix."""
    stack = realized_transfers(profile, *_stack_of_one(profile, settings), [seed])
    return TransferMatrix(profile.n, stack[0])


def measure_amplitude_matrices(profile, theta, phi, output_phases, seeds):
    """Read-only (k, n, n) amplitude magnitudes of k programs as
    reconstructed from output power fractions (arguments as
    realized_transfers).

    Power is measured one input at a time and normalized per column, so the
    result is insensitive to any loss that acts uniformly along a column.
    """
    z = realized_transfers(profile, theta, phi, output_phases, seeds)
    # not np.abs(z) ** 2: the complex abs changes bits with the SIMD dispatch
    probs = z.real**2 + z.imag**2
    sums = probs.sum(axis=1)
    dark = np.flatnonzero((sums <= 0).any(axis=1))
    if dark.size:
        raise ValidationError(
            f"program {dark[0]}: a column carried no power; cannot normalize"
        )
    out = np.sqrt(probs / sums[:, None, :])
    out.setflags(write=False)
    return out


def measure_amplitude_matrix(profile, settings, seed=0):
    """measure_amplitude_matrices of one program, as an AmplitudeMatrix."""
    stacks = _stack_of_one(profile, settings)
    magnitudes = measure_amplitude_matrices(profile, *stacks, [seed])[0]
    return analysis.AmplitudeMatrix(profile.n, magnitudes)


def insertion_loss_per_mode(profile):
    """Fiber-to-fiber dB loss of each mode with the mesh set to bar."""
    lossy = apply_loss(bar_settings(profile.n), profile)
    amps = np.abs(np.diag(lossy.elements))
    if np.any(amps <= 0):
        raise ValidationError("bar-state transmission vanished on a mode")
    # 0.0 - x turns the -0.0 of a lossless mode into +0.0 and is -x otherwise
    return 0.0 - 20.0 * np.log10(amps)


# ---------------------------------------------------------------------------
# profile serialization


def profile_to_json_dict(profile):
    order = profile.heater_ids
    off = profile.crosstalk.offdiagonal()
    couplings = [
        {"i": order[i], "j": order[j], "rad_per_w": float(off[i, j])}
        for i, j in zip(*np.nonzero(off))
    ]
    return {
        "name": profile.name,
        "n": profile.n,
        "heaters": [
            {
                "id": hid,
                "phi0_rad": phi0,
                "alpha_rad_per_w": alpha,
                "resistance_ohm": resistance,
                "v_max_v": v_max,
            }
            for hid, phi0, alpha, resistance, v_max in zip(
                order,
                profile.phi0_rad.tolist(),
                profile.alpha_rad_per_w.tolist(),
                profile.resistance_ohm.tolist(),
                profile.v_max_v.tolist(),
            )
        ],
        "crosstalk_rad_per_w": couplings,
        "coupling_loss_db_per_facet": profile.coupling_loss_db_per_facet,
        "propagation_loss_db_per_cm": profile.propagation_loss_db_per_cm,
        "path_length_cm": profile.path_length_cm,
        "splitter_error_sigma_rad": profile.splitter_error_sigma_rad,
        "theta_noise_sigma_rad": profile.theta_noise_sigma_rad,
        "phi_noise_sigma_rad": profile.phi_noise_sigma_rad,
        "disorder_seed": profile.disorder_seed,
    }


def profile_to_json(profile):
    return dumps_canonical(profile_to_json_dict(profile))


def profile_from_json_dict(doc):
    """Profile from its JSON document. Raises ValidationError on a missing,
    unknown or repeated heater id, on a repeated or diagonal crosstalk pair
    (the diagonal holds the heater alphas) and on any bad value."""
    try:
        n = as_int(doc["n"])
        order = heater_order(n)
        index = heater_index(n)
        rows = {}
        for h in doc["heaters"]:
            if h["id"] in rows:
                raise ValueError(f"duplicate heater id {h['id']!r}")
            rows[h["id"]] = [as_real(h[key], key) for key in HeaterModel._fields]
        if set(rows) != set(order):
            missing = sorted(set(order) - set(rows))
            extra = sorted(set(rows) - set(order))
            raise ValueError(
                f"heater set mismatch for n={n}: "
                f"missing {missing[:3]}, extra {extra[:3]}"
            )
        phi0, alpha, resistance, v_max = np.array([rows[h] for h in order]).T
        matrix = np.diag(alpha)
        pairs = set()
        for c in doc["crosstalk_rad_per_w"]:
            pair = (index[c["i"]], index[c["j"]])
            if pair[0] == pair[1]:
                raise ValueError(f"crosstalk pair ({c['i']}, {c['j']}) is diagonal")
            if pair in pairs:
                raise ValueError(f"duplicate crosstalk pair ({c['i']}, {c['j']})")
            pairs.add(pair)
            matrix[pair] = as_real(c["rad_per_w"], "rad_per_w")
        return HardwareProfile(
            name=str(doc["name"]),
            n=n,
            phi0_rad=phi0,
            resistance_ohm=resistance,
            v_max_v=v_max,
            crosstalk=CrosstalkMatrix(matrix),
            disorder_seed=doc["disorder_seed"],
            **{name: doc[name] for name in _PROFILE_SCALARS},
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed profile document: {exc}")


def profile_from_json(text):
    import json

    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"profile is not valid JSON: {exc}")
    return profile_from_json_dict(doc)


def write_profile(profile, path):
    atomic_write_text(path, profile_to_json(profile))


def load_profile(path):
    with open(path, "r") as handle:
        return profile_from_json(handle.read())
