"""Thermo-optic hardware layer: heater models, calibration fringe fits,
crosstalk-aware drive solving, and noisy lossy mesh transfers.

Every heater follows phi = phi0 + alpha * v^2 / R (dissipated power times a
thermo-optic coefficient), and neighboring heaters leak a fraction of their
power into each other's phase. The realized mesh adds static splitting-ratio
disorder and per-run phase-setting jitter on top of the programmed settings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Dict, Mapping, NamedTuple, Optional

import numpy as np
from scipy.linalg import lu_factor, lu_solve
from scipy.optimize import OptimizeWarning, curve_fit

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
    TWO_PI,
    FitDegeneracyError,
    InfeasibleError,
    MeshsimError,
    UnknownHeaterError,
    ValidationError,
    atomic_write_text,
    dumps_canonical,
    ignoring_warnings,
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

_STATIC_STREAM = 101
_JITTER_STREAM = 202
_SWEEP_STREAM = 303

SOLVE_MAX_SWEEPS = 500

# noisy transfers are realized this many programs at a time; the matrices do
# not depend on it, only the memory per chunk does
TRANSFER_CHUNK = 32


def heater_id(column, row, kind):
    if kind not in HEATER_KINDS:
        raise ValidationError(f"unknown heater kind {kind!r}")
    return f"c{column:02d}r{row:02d}.{kind}"


@lru_cache(maxsize=None)
def heater_order(n):
    """Canonical heater ids: cells sorted by (col, row), theta before phi."""
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
        m = np.array(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError("crosstalk matrix must be square")
        if not np.isfinite(m).all():
            raise ValidationError("crosstalk entries must be finite")
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


@dataclass(frozen=True)
class HardwareProfile:
    """Full device description used by the simulator and the compiler chain.

    phi0_rad, resistance_ohm and v_max_v are read-only arrays in
    heater_order(n); each heater's alpha is its entry on the crosstalk
    diagonal. The static splitting-ratio errors are drawn from the
    disorder seed at construction. Build a changed device with
    dataclasses.replace.
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
    splitter_errors: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        order = heater_order(self.n)
        if self.crosstalk.size != len(order):
            raise ValidationError(
                f"crosstalk is {self.crosstalk.size}x{self.crosstalk.size}, "
                f"expected {len(order)}"
            )
        for name, lower in (
            ("phi0_rad", -np.inf), ("resistance_ohm", 0.0), ("v_max_v", 0.0)
        ):
            values = np.array(getattr(self, name), dtype=float)
            if values.shape != (len(order),):
                raise ValidationError(
                    f"{name} must hold {len(order)} heaters for n={self.n}, "
                    f"got shape {values.shape}"
                )
            # NaN fails the comparison, so it is caught here too
            bad = ~((values > lower) & (values < np.inf))
            if bad.any():
                raise ValidationError(
                    f"heater {order[np.argmax(bad)]}: {name} must be finite"
                    + ("" if lower == -np.inf else " and > 0")
                )
            values.setflags(write=False)
            object.__setattr__(self, name, values)
        # NaN fails every comparison, so these bounds reject it too
        if not (
            0 <= self.coupling_loss_db_per_facet < np.inf
            and 0 <= self.propagation_loss_db_per_cm < np.inf
            and 0 <= self.path_length_cm < np.inf
        ):
            raise ValidationError("loss figures must be finite and >= 0")
        if not (
            0 <= self.splitter_error_sigma_rad < np.inf
            and 0 <= self.theta_noise_sigma_rad < np.inf
            and 0 <= self.phi_noise_sigma_rad < np.inf
        ):
            raise ValidationError("noise sigmas must be finite and >= 0")
        rng = np.random.default_rng(
            np.random.SeedSequence([int(self.disorder_seed), _STATIC_STREAM])
        )
        eps = rng.normal(0.0, self.splitter_error_sigma_rad, (len(order) // 2, 2))
        eps.setflags(write=False)
        object.__setattr__(self, "splitter_errors", eps)

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
    rng = np.random.default_rng(np.random.SeedSequence([disorder_seed, 11]))
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


def simulate_calibration_sweep(
    profile,
    hid,
    voltages_v=None,
    points=64,
    seed=0,
    detector_noise_sigma=0.0,
):
    """Monitor-port fringe while one heater is swept and all others idle.

    The detected signal is scale * (0.5 + 0.5 * cos(phi(v))) with the scale
    set by the profile's static insertion loss, plus optional Gaussian
    detector noise.
    """
    i = heater_index(profile.n).get(hid)
    if i is None:
        raise UnknownHeaterError(f"profile has no heater {hid!r}")
    v_max = profile.v_max_v[i]
    if voltages_v is None:
        voltages_v = np.linspace(0.0, v_max, points)
    v = np.asarray(voltages_v, dtype=float)
    if v.ndim != 1 or v.size < 2:
        raise ValidationError("voltage grid must be a 1-d array of >= 2 points")
    if np.any(v < 0) or np.any(v > v_max * (1 + 1e-12)):
        raise ValidationError("voltage grid exceeds the heater's budget")

    il_db = 2 * profile.coupling_loss_db_per_facet + (
        profile.propagation_loss_db_per_cm * profile.path_length_cm
    )
    scale = 10.0 ** (-il_db / 10.0)
    phase = profile.phi0_rad[i] + (
        profile.alpha_rad_per_w[i] * v**2 / profile.resistance_ohm[i]
    )
    signal = scale * (0.5 + 0.5 * np.cos(phase))
    if detector_noise_sigma > 0:
        rng = np.random.default_rng(
            np.random.SeedSequence([int(seed), _SWEEP_STREAM, i])
        )
        signal = signal + rng.normal(0.0, detector_noise_sigma, v.size)
    return SweepRecord(heater_id=hid, voltages_v=v, signal=signal)


@dataclass(frozen=True)
class CalibrationEntry:
    heater_id: str
    phi0_rad: float
    alpha_rad_per_w: float
    residual: float


def _fringe_lstsq(power, signal, alpha):
    basis = np.column_stack(
        [np.ones_like(power), np.cos(alpha * power), np.sin(alpha * power)]
    )
    coef, _, _, _ = np.linalg.lstsq(basis, signal, rcond=None)
    resid = signal - basis @ coef
    return coef, float(np.sqrt(np.mean(resid**2)))


def _fringe_screen(power, signal, alphas):
    """rms residual of the linear fringe fit at every alpha in one pass.

    For a fixed alpha the model A + B cos(alpha p) + C sin(alpha p) is
    linear, so all alphas are fitted at once through their stacked 3x3
    normal equations. Each rms is measured directly from signal - fit, so
    the coefficients' error enters only at second order, and the result
    agrees with _fringe_lstsq to about cond(basis) * m * eps * rms(signal).
    On sweeps spanning 3/4 of a fringe or more cond(basis) stays below 3;
    on 3,840 simulated sweeps (8-200 points, detector noise up to 0.05) the
    two agreed within 2.3e-16 * rms(signal).
    """
    phase = alphas[:, None] * power
    basis = np.stack([np.ones_like(phase), np.cos(phase), np.sin(phase)], 1)
    gram = basis @ basis.transpose(0, 2, 1)
    coef = np.linalg.solve(gram, (basis @ signal)[:, :, None])
    resid = signal - (basis * coef).sum(axis=1)
    return np.sqrt(np.mean(resid**2, axis=1))


def fit_phase_response(sweep, resistance_ohm):
    """Recover (phi0, alpha) from one fringe sweep.

    Model: signal = A + B * cos(alpha * p + phi0) with p = v^2 / R. A coarse
    FFT stage locates the fringe frequency, a grid of linear least-squares
    fits refines it, and a full nonlinear polish finishes. Raises
    FitDegeneracyError when the data cannot pin the parameters down (too few
    samples or distinct powers, non-finite data, a flat fringe, or a swept
    span under one period).
    """
    v = np.asarray(sweep.voltages_v, dtype=float)
    signal = np.asarray(sweep.signal, dtype=float)
    if v.shape != signal.shape:
        raise FitDegeneracyError(
            f"{sweep.heater_id}: {v.size} voltages for {signal.size} signal samples"
        )
    if v.size < 8:
        raise FitDegeneracyError(
            f"{sweep.heater_id}: need >= 8 samples, got {v.size}"
        )
    if not (np.isfinite(v).all() and np.isfinite(signal).all()):
        raise FitDegeneracyError(f"{sweep.heater_id}: non-finite sweep data")
    power = v**2 / float(resistance_ohm)
    span = float(np.ptp(power))
    # fewer than 4 distinct powers fit the 4-parameter model at any alpha
    if np.unique(power).size < 4:
        raise FitDegeneracyError(f"{sweep.heater_id}: degenerate voltage grid")
    if float(np.ptp(signal)) < 1e-12:
        raise FitDegeneracyError(f"{sweep.heater_id}: constant signal")

    # power is quadratic in the swept voltage, so resample onto a uniform
    # power grid before asking the FFT for the fringe frequency
    m = 8 * v.size
    p_uniform = np.linspace(power.min(), power.max(), m)
    resampled = np.interp(p_uniform, power, signal)
    spectrum = np.abs(np.fft.rfft(resampled - resampled.mean()))
    k = int(np.argmax(spectrum[1:])) + 1
    alpha_init = TWO_PI * k / (m * (span / (m - 1)))

    # screen the alpha grid in one pass, then refit exactly, in grid order,
    # every alpha screened within the window of the best. The exact winner
    # is missed only if the screen errs by more than half the window, over
    # 3000 times the screen's error bound at m = 200, so the winner and its
    # coefficients are those of a per-alpha loop over the grid
    alphas = alpha_init * np.linspace(0.75, 1.25, 101)
    screened = _fringe_screen(power, signal, alphas)
    window = 1e-9 * float(np.sqrt(np.mean(signal**2)))
    best = None
    for alpha in alphas[screened <= screened.min() + window]:
        coef, rms = _fringe_lstsq(power, signal, alpha)
        if best is None or rms < best[2]:
            best = (alpha, coef, rms)
    alpha0, (a0, c1, c2), _ = best

    def model(p, a, x, y, al):
        return a + x * np.cos(al * p) + y * np.sin(al * p)

    try:
        # only the parameters are used, so an indeterminate covariance is moot
        with ignoring_warnings(OptimizeWarning):
            params, _ = curve_fit(
                model,
                power,
                signal,
                p0=(a0, c1, c2, alpha0),
                maxfev=20000,
                xtol=1e-15,
                ftol=1e-15,
                gtol=1e-15,
            )
    except RuntimeError as exc:
        raise FitDegeneracyError(f"{sweep.heater_id}: fit failed: {exc}")
    a, c1, c2, alpha = (float(x) for x in params)
    if alpha < 0:
        alpha, c2 = -alpha, -c2
    amplitude = float(np.hypot(c1, c2))
    if amplitude < 1e-9:
        raise FitDegeneracyError(f"{sweep.heater_id}: vanishing fringe")
    if alpha * span < TWO_PI:
        raise FitDegeneracyError(
            f"{sweep.heater_id}: swept span {alpha * span:.3f} rad "
            "covers less than one fringe period"
        )
    phi0 = wrap_phase(float(np.arctan2(-c2, c1)))
    fitted = model(power, a, c1, c2, alpha)
    rms = float(np.sqrt(np.mean((fitted - signal) ** 2)))
    return CalibrationEntry(
        heater_id=sweep.heater_id,
        phi0_rad=phi0,
        alpha_rad_per_w=alpha,
        residual=rms,
    )


@dataclass(frozen=True)
class CalibrationRecord:
    """Fitted (phi0, alpha) for every heater of one device.

    Treated as immutable, entries included: solve_voltages keeps the factored
    drive system of the last profile it was solved against on the record.
    """

    entries: Dict[str, CalibrationEntry]
    _drive_memo: Optional[tuple] = field(
        default=None, init=False, repr=False, compare=False
    )

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

    @property
    def max_residual(self):
        return max(e.residual for e in self.entries.values())

    def arrays(self, order):
        phi0 = np.array([self.entries[h].phi0_rad for h in order])
        alpha = np.array([self.entries[h].alpha_rad_per_w for h in order])
        return phi0, alpha


def calibrate_profile(profile, points=64, seed=0, detector_noise_sigma=0.0):
    """Sweep and fit every heater; returns a CalibrationRecord."""
    entries = {}
    for hid, resistance in zip(profile.heater_ids, profile.resistance_ohm.tolist()):
        sweep = simulate_calibration_sweep(
            profile,
            hid,
            points=points,
            seed=seed,
            detector_noise_sigma=detector_noise_sigma,
        )
        entries[hid] = fit_phase_response(sweep, resistance)
    return CalibrationRecord(entries=entries)


# ---------------------------------------------------------------------------
# drive solving


@dataclass(frozen=True)
class DriveSolution:
    """Solved drive in heater_order; voltages_v is read-only."""

    voltages_v: np.ndarray
    powers_w: np.ndarray
    iterations: int
    residual_rad: float


def heater_targets(settings):
    """Commanded heater phases of a compiled program, canonical order."""
    values = np.empty(2 * settings.theta.size)
    values[0::2] = settings.theta
    values[1::2] = settings.phi
    return values


def settings_from_heater_phases(n, phases, output_phases=None):
    """Inverse of heater_targets: canonical phase vector to MeshSettings."""
    phases = np.asarray(phases, dtype=float)
    count = 2 * len(cell_addresses(n))
    if phases.shape != (count,):
        raise ValidationError(
            f"expected {count} heater phases, got {phases.shape}"
        )
    return MeshSettings.from_phases(
        n, phases[0::2], phases[1::2], output_phases=output_phases
    )


def _target_vector(profile, target):
    order = profile.heater_ids
    if isinstance(target, Mapping):
        missing = [h for h in order if h not in target]
        if missing:
            raise ValidationError(f"target is missing heaters {missing[:3]}")
        arr = np.array([float(target[h]) for h in order])
    else:
        arr = np.asarray(target, dtype=float)
        if arr.shape != (len(order),):
            raise ValidationError(
                f"target must have {len(order)} phases, got shape {arr.shape}"
            )
    if not np.all(np.isfinite(arr)):
        raise ValidationError("target phases must be finite")
    return arr


def _drive_system(profile, calibration):
    """(phi0, coupling, lu_factor(coupling)) for one (profile, calibration):
    the calibrated phi0, the coupling diag(fitted alpha) + the profile's
    crosstalk, and its LU factor, built once per pair.

    They live in a single slot on the record, keyed by the profile's
    identity, so a record solved against another profile is refactored,
    never served a stale factor. Concurrent first calls may each build
    them; they build identical values, so the unlocked slot write is
    harmless.
    """
    memo = calibration._drive_memo
    if memo is not None and memo[0] is profile:
        return memo[1]
    phi0, alpha = calibration.arrays(profile.heater_ids)
    coupling = np.diag(alpha) + profile.crosstalk.offdiagonal()
    system = (phi0, coupling, lu_factor(coupling))
    object.__setattr__(calibration, "_drive_memo", (profile, system))
    return system


def solve_voltages(profile, calibration, target):
    """Drive voltages whose realized phases equal the target modulo 2*pi.

    The phase system is linear in the dissipated powers once each heater's
    2*pi branch is fixed: C p = r with C the crosstalk matrix and r the
    unwrapped residuals. Starting from the principal branch, any heater
    whose solved power comes out negative (its crosstalk background already
    overshoots the residual) is moved up one branch and the system is
    re-solved; backgrounds are bounded well below 2*pi, so each heater moves
    at most once. C is LU-factored once per (profile, calibration), so each
    round is one pair of triangular back-substitutions. Raises
    InfeasibleError when a required power exceeds a heater's budget.
    """
    order = profile.heater_ids
    t = _target_vector(profile, target)
    phi0, coupling, (lu, piv) = _drive_system(profile, calibration)
    p_max = profile.v_max_v**2 / profile.resistance_ohm

    residual = wrap_phase(t - phi0)
    for iterations in range(1, SOLVE_MAX_SWEEPS + 1):
        # scipy's getrs wrapper shifts the pivots to 1-based in place for the
        # call, so threads sharing the cached factor each need their own copy
        p = lu_solve((lu, piv.copy()), residual)
        below = p < -1e-12
        if not np.any(below):
            break
        residual = residual + np.where(below, TWO_PI, 0.0)
    else:
        raise MeshsimError(
            f"drive solve did not settle on branches in {SOLVE_MAX_SWEEPS} rounds"
        )
    p = np.maximum(p, 0.0)
    check = float(np.max(np.abs(wrap_signed(phi0 + coupling @ p - t))))
    if check > 1e-6:
        raise MeshsimError(f"drive solve left a {check:.3e} rad phase error")

    over = p > p_max * (1 + 1e-12)
    if np.any(over):
        bad = [order[i] for i in np.nonzero(over)[0]]
        raise InfeasibleError(
            f"{len(bad)} heater(s) need more than the voltage budget allows",
            heater_ids=bad,
        )
    volts = np.sqrt(p * profile.resistance_ohm)
    volts.setflags(write=False)
    return DriveSolution(
        voltages_v=volts,
        powers_w=p,
        iterations=iterations,
        residual_rad=float(check),
    )


def realized_heater_phases(profile, powers_w):
    """True phases produced by a power vector, including crosstalk."""
    p = np.asarray(powers_w, dtype=float)
    return profile.phi0_rad + profile.crosstalk.matrix @ p


# ---------------------------------------------------------------------------
# realized (noisy, lossy) transfers


def _couplers(kappa):
    """Stacked 2x2 directional couplers, one per coupling angle."""
    out = np.empty(kappa.shape + (2, 2), dtype=complex)
    out[:, 0, 0] = out[:, 1, 1] = np.cos(kappa)
    out[:, 0, 1] = out[:, 1, 0] = 1j * np.sin(kappa)
    return out


def _phase_shifters(phase):
    """Stacked diag(exp(i * phase), 1) shifters on the upper mode."""
    out = np.zeros(phase.shape + (2, 2), dtype=complex)
    out[:, 0, 0] = np.exp(1j * phase)
    out[:, 1, 1] = 1.0
    return out


def _noisy_transfers(theta, phi, eps):
    """Physical unit cells: two imperfect 50:50 couplers (splitting errors
    eps[:, 0] inner, eps[:, 1] outer) around the theta shifter, preceded by
    the phi shifter. Returns the (k, 2, 2) stack mesh.propagate takes."""
    inner = _couplers(np.pi / 4 + eps[:, 0])
    outer = _couplers(np.pi / 4 + eps[:, 1])
    return np.exp(-0.5j * np.pi) * (
        outer @ _phase_shifters(theta) @ inner @ _phase_shifters(phi)
    )


def realized_transfer_chunks(profile, theta, phi, output_phases, seeds):
    """Transfer matrices the device actually implements for k programs,
    yielded TRANSFER_CHUNK programs at a time, from (k, cells) theta and
    phi stacks in cell_addresses(n) order, (k, n) output phases and one run
    seed per program.

    Static splitting-ratio errors are drawn once per profile, phase jitter
    fresh per run seed, and the loss model is mesh.lossy_products. Each
    chunk is a read-only (chunk, n, n) stack, in program order, so a caller
    that reduces every chunk never holds all k matrices; the chunk size
    changes no bit. Raises ValidationError naming the first program whose
    matrix is non-finite or has gain. With an ideal profile each matrix
    equals the programmed mesh to rounding error.
    """
    seeds = list(seeds)
    k, n = len(seeds), profile.n
    count = len(cell_addresses(n))
    stacks = []
    for name, value, width in (
        ("theta", theta, count), ("phi", phi, count), ("output_phases", output_phases, n)
    ):
        arr = np.asarray(value, dtype=float)
        if arr.shape != (k, width):
            raise ValidationError(
                f"{name} must have shape {(k, width)} for n={n}, got {arr.shape}"
            )
        stacks.append(arr)
    for start in range(0, k, TRANSFER_CHUNK):
        chunk = slice(start, start + TRANSFER_CHUNK)
        out = _realize_chunk(profile, *(a[chunk] for a in stacks), seeds[chunk])
        defect = gain_defect(out)
        if defect is not None:
            raise ValidationError(f"program {start + defect[0]}: {defect[1]}")
        out.setflags(write=False)
        yield out


def realized_transfers(profile, theta, phi, output_phases, seeds):
    """All k matrices of realized_transfer_chunks (same arguments) as one
    read-only (k, n, n) stack."""
    seeds = list(seeds)
    out = np.empty((len(seeds), profile.n, profile.n), dtype=complex)
    start = 0
    for chunk in realized_transfer_chunks(profile, theta, phi, output_phases, seeds):
        out[start : start + len(chunk)] = chunk
        start += len(chunk)
    out.setflags(write=False)
    return out


def _realize_chunk(profile, theta, phi, output_phases, seeds):
    """Unchecked realized transfers of one chunk of programs."""
    k, count = theta.shape
    jitter = np.stack([
        np.random.default_rng(
            np.random.SeedSequence([int(seed), _JITTER_STREAM])
        ).standard_normal((count, 2))
        for seed in seeds
    ])
    jitter[..., 0] *= profile.theta_noise_sigma_rad
    jitter[..., 1] *= profile.phi_noise_sigma_rad
    # one flat pass over every cell of the chunk: a broadcast (cells, 2, 2)
    # against (k, cells, 2, 2) product runs slower than the flat stack
    transfers = _noisy_transfers(
        (theta + jitter[..., 0]).ravel(),
        (phi + jitter[..., 1]).ravel(),
        np.tile(profile.splitter_errors, (k, 1)),
    )
    return lossy_products(transfers.reshape(k, count, 2, 2), output_phases, profile)


def _stack_of_one(profile, settings):
    """theta, phi and output_phases of one program as stacks of one."""
    if settings.n != profile.n:
        raise ValidationError(
            f"settings are for n={settings.n}, profile for n={profile.n}"
        )
    return settings.theta[None], settings.phi[None], settings.output_phases[None]


def realized_transfer(profile, settings, seed=0):
    """realized_transfers of one program, as a TransferMatrix, whose
    constructor runs the finite and no-gain checks."""
    stack = _realize_chunk(profile, *_stack_of_one(profile, settings), [seed])
    return TransferMatrix(profile.n, stack[0])


def measure_amplitude_matrices(profile, theta, phi, output_phases, seeds):
    """Amplitude magnitudes of k programs as reconstructed from output power
    fractions, one AmplitudeMatrix each (arguments as realized_transfers).

    Power is measured one input at a time and normalized per column, so the
    result is insensitive to any loss that acts uniformly along a column.
    """
    probs = np.abs(realized_transfers(profile, theta, phi, output_phases, seeds)) ** 2
    sums = probs.sum(axis=1)
    dark = np.flatnonzero((sums <= 0).any(axis=1))
    if dark.size:
        raise ValidationError(
            f"program {dark[0]}: a column carried no power; cannot normalize"
        )
    amplitudes = np.sqrt(probs / sums[:, None, :])
    return [analysis.AmplitudeMatrix(profile.n, a) for a in amplitudes]


def measure_amplitude_matrix(profile, settings, seed=0):
    """measure_amplitude_matrices of one program."""
    stacks = _stack_of_one(profile, settings)
    return measure_amplitude_matrices(profile, *stacks, [seed])[0]


def insertion_loss_per_mode(profile):
    """Fiber-to-fiber dB loss of each mode with the mesh set to bar."""
    lossy = apply_loss(bar_settings(profile.n), profile)
    amps = np.abs(np.diag(lossy.elements))
    if np.any(amps <= 0):
        raise ValidationError("bar-state transmission vanished on a mode")
    return -20.0 * np.log10(amps)


# ---------------------------------------------------------------------------
# profile serialization


def profile_to_json_dict(profile):
    order = profile.heater_ids
    index = heater_index(profile.n)
    off = profile.crosstalk.offdiagonal()
    couplings = [
        {"i": order[i], "j": order[j], "rad_per_w": float(off[i, j])}
        for i, j in zip(*np.nonzero(off))
    ]
    couplings.sort(key=lambda c: (index[c["i"]], index[c["j"]]))
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
        n = int(doc["n"])
        order = heater_order(n)
        index = heater_index(n)
        rows = {}
        for h in doc["heaters"]:
            if h["id"] in rows:
                raise ValueError(f"duplicate heater id {h['id']!r}")
            rows[h["id"]] = [float(h[key]) for key in HeaterModel._fields]
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
            matrix[pair] = float(c["rad_per_w"])
        return HardwareProfile(
            name=str(doc["name"]),
            n=n,
            phi0_rad=phi0,
            resistance_ohm=resistance,
            v_max_v=v_max,
            crosstalk=CrosstalkMatrix(matrix),
            coupling_loss_db_per_facet=float(doc["coupling_loss_db_per_facet"]),
            propagation_loss_db_per_cm=float(doc["propagation_loss_db_per_cm"]),
            path_length_cm=float(doc["path_length_cm"]),
            splitter_error_sigma_rad=float(doc["splitter_error_sigma_rad"]),
            theta_noise_sigma_rad=float(doc["theta_noise_sigma_rad"]),
            phi_noise_sigma_rad=float(doc["phi_noise_sigma_rad"]),
            disorder_seed=int(doc["disorder_seed"]),
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
