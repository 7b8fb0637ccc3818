"""Two-photon interference on a programmed mesh.

Routes a photon pair to any single cell so it acts as a two-port splitter,
simulates Hong-Ou-Mandel delay scans through the lossy hardware model, fits
the Gaussian dip, and sweeps an on-chip delay line built from one arm of a
mesh-wide interferometer.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Tuple

import mpmath
import numpy as np

from . import analysis, hardware, mesh
from .util import (
    TWO_PI,
    MeshsimError,
    ValidationError,
    child_seed,
    column_sums,
    wrap_phase,
)

BAR = "bar"
CROSS = "cross"
HALF = "half"
CELL_STATES = (BAR, CROSS, HALF)

_THETA_BY_STATE = {BAR: math.pi, CROSS: 0.0, HALF: math.pi / 2.0}

DEFAULT_CENTER_WAVELENGTH_NM = 1562.0
DEFAULT_BANDWIDTH_FWHM_NM = 12.0
DEFAULT_SCHMIDT_NUMBER = 1.1

# Fraction of samples (largest |delay|) averaged into the raw-count baseline.
BASELINE_FRACTION = 0.2
MIN_FIT_SAMPLES = 10

_COUNT_STREAM = 404


@dataclass(frozen=True)
class PhotonPairSource:
    """Degenerate photon-pair source with a Gaussian joint spectrum.

    The mutual overlap at zero delay is the purity ceiling 1/K set by the
    effective Schmidt mode number K; it bounds every fitted visibility.
    """

    center_wavelength_nm: float = DEFAULT_CENTER_WAVELENGTH_NM
    bandwidth_fwhm_nm: float = DEFAULT_BANDWIDTH_FWHM_NM
    mutual_overlap_at_zero_delay: float = 1.0 / DEFAULT_SCHMIDT_NUMBER

    def __post_init__(self):
        if not self.center_wavelength_nm > 0:
            raise ValidationError("center wavelength must be positive")
        if not self.bandwidth_fwhm_nm > 0:
            raise ValidationError("source bandwidth must be positive")
        if not 0.0 <= self.mutual_overlap_at_zero_delay <= 1.0:
            raise ValidationError("mutual overlap must lie in [0, 1]")

    @property
    def coherence_sigma_um(self):
        """Gaussian sigma of the dip envelope, in micrometers of path delay."""
        lam_um = self.center_wavelength_nm * 1e-3
        dlam_um = self.bandwidth_fwhm_nm * 1e-3
        return math.sqrt(2.0 * math.log(2.0)) / math.pi * lam_um * lam_um / dlam_um

    def overlap_at(self, delay_um, arm_delay_um=0.0):
        """Pairwise overlap x(tau) for a path-delay mismatch in micrometers."""
        sig = self.coherence_sigma_um
        tau = np.asarray(delay_um, dtype=float) - arm_delay_um
        return self.mutual_overlap_at_zero_delay * np.exp(-0.5 * (tau / sig) ** 2)


def _matrix_of(u):
    if isinstance(u, (mesh.Unitary, mesh.TransferMatrix)):
        return u.elements
    arr = np.asarray(u, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {arr.shape}")
    return arr


def _mode_pair(pair, n, label):
    a, b = (int(pair[0]), int(pair[1]))
    if a == b:
        raise ValidationError(f"{label} modes must be distinct, got {pair}")
    for m in (a, b):
        if not 0 <= m < n:
            raise ValidationError(f"{label} mode {m} out of range for n={n}")
    return a, b


def _overlap_value(x):
    x = float(x)
    if not 0.0 <= x <= 1.0:
        raise ValidationError(f"overlap must lie in [0, 1], got {x}")
    return x


def _pair_terms(m, input_pair, output_pair):
    """(|q1|^2 + |q2|^2, 2 Re(q1 q2*)) for inputs (a, b), outputs (c, d).

    The coincidence at pairwise overlap x is the first plus x times the second.
    """
    a, b = input_pair
    c, d = output_pair
    q1 = m[c, a] * m[d, b]
    q2 = m[c, b] * m[d, a]
    return abs(q1) ** 2 + abs(q2) ** 2, 2.0 * (q1 * q2.conjugate()).real


def two_photon_coincidence(u, input_pair, output_pair, overlap):
    """Coincidence probability for one photon at each output of a pair.

    One photon enters each input mode; `overlap` is the pairwise
    indistinguishability x, interpolating between classical transmission
    statistics (x = 0) and full bosonic interference (x = 1). `u` may be
    sub-unitary (lossy), in which case probabilities no longer sum to one.
    """
    m = _matrix_of(u)
    a, b = _mode_pair(input_pair, m.shape[0], "input")
    c, d = _mode_pair(output_pair, m.shape[0], "output")
    x = _overlap_value(overlap)
    classical, interference = _pair_terms(m, (a, b), (c, d))
    return float(classical + x * interference)


def two_photon_output_distribution(u, input_pair, overlap):
    """Probabilities over unordered output pairs, doubles included.

    Sums to one when `u` is unitary, for any overlap.
    """
    m = _matrix_of(u)
    n = m.shape[0]
    a, b = _mode_pair(input_pair, n, "input")
    x = _overlap_value(overlap)
    probs = {}
    for c in range(n):
        amp = m[c, a] * m[c, b]
        probs[(c, c)] = float((1.0 + x) * abs(amp) ** 2)
        for d in range(c + 1, n):
            classical, interference = _pair_terms(m, (a, b), (c, d))
            probs[(c, d)] = float(classical + x * interference)
    return probs


@dataclass(frozen=True, eq=False)
class RoutingPlan:
    """Bar/cross program isolating one cell as a two-port splitter.

    `cell_states` covers every cell of the mesh; exactly one cell (the
    target) is in the half state.
    """

    n: int
    target: mesh.CellAddress
    input_pair: Tuple[int, int]
    output_pair: Tuple[int, int]
    cell_states: Dict[mesh.CellAddress, str]


def _validate_plan_shape(plan):
    if plan.cell_states.keys() != mesh.cell_index(plan.n).keys():
        raise ValidationError(
            f"plan must assign a state to every cell of an n={plan.n} mesh"
        )
    halves = [addr for addr, state in plan.cell_states.items() if state == HALF]
    for state in plan.cell_states.values():
        if state not in CELL_STATES:
            raise ValidationError(f"unknown cell state {state!r}")
    if halves != [plan.target]:
        raise ValidationError(
            f"plan needs exactly one half cell at the target, found {halves}"
        )
    _mode_pair(plan.input_pair, plan.n, "input")
    _mode_pair(plan.output_pair, plan.n, "output")


def route_to_tbs(n, target):
    """Deterministic routing plan driving the target cell as a 50:50 TBS.

    Each photon enters on a dedicated lane two modes apart, crosses once in
    the column before the target, and the two outputs fan back out through
    one cross each. Lanes touch disjoint cells, so the photons meet only at
    the target.
    """
    target = mesh.CellAddress(int(target[0]), int(target[1]))
    if target not in mesh.cell_index(n):
        raise ValidationError(f"no cell at {tuple(target)} in an n={n} mesh")
    column, row = target
    states = dict.fromkeys(mesh.cell_addresses(n), BAR)
    states[target] = HALF
    if column == 0:
        in_a, in_b = row, row + 1
    else:
        if row == 0:
            in_a = 0
        else:
            in_a = row - 1
            states[mesh.CellAddress(column - 1, row - 1)] = CROSS
        if row == n - 2:
            in_b = n - 1
        else:
            in_b = row + 2
            states[mesh.CellAddress(column - 1, row + 1)] = CROSS
    if column == n - 1:
        out_a, out_b = row, row + 1
    else:
        if row == 0:
            out_a = 0
        else:
            out_a = row - 1
            states[mesh.CellAddress(column + 1, row - 1)] = CROSS
        if row == n - 2:
            out_b = n - 1
        else:
            out_b = row + 2
            states[mesh.CellAddress(column + 1, row + 1)] = CROSS
    return RoutingPlan(
        n=n,
        target=target,
        input_pair=(in_a, in_b),
        output_pair=(out_a, out_b),
        cell_states=states,
    )


def _cell_touching(n, column, mode):
    """Cell in `column` with `mode` on one of its ports, or None at a gap."""
    row = mode if column % 2 == mode % 2 else mode - 1
    if row < 0 or row > n - 2:
        return None
    return mesh.CellAddress(column, row)


def _trace(plan, mode, col_start, col_stop):
    """Walk one photon through bar/cross cells; half cells are an error."""
    used = {}
    for column in range(col_start, col_stop):
        addr = _cell_touching(plan.n, column, mode)
        if addr is None:
            continue
        state = plan.cell_states[addr]
        used[addr] = "upper" if mode == addr.row else "lower"
        if state == HALF:
            raise MeshsimError(
                f"trace entered the splitting cell {tuple(addr)} away from "
                "the planned meeting point"
            )
        if state == CROSS:
            mode = addr.row + 1 if mode == addr.row else addr.row
    return mode, used


def _check_shared(shared, plan, strict, what):
    for addr in sorted(shared):
        if strict:
            raise MeshsimError(f"{what} paths share cell {tuple(addr)}")
        if plan.cell_states[addr] != BAR:
            raise MeshsimError(
                f"{what} paths share the non-bar cell {tuple(addr)}"
            )


def verify_routing(plan, strict=True):
    """Trace both photons and prove the paths are isolated.

    Raises on any violation. With strict=True the input (and output) paths
    may not touch a common cell at all; with strict=False shared cells are
    tolerated when they are in the bar state, which a co-propagating
    boundary pair needs. Returns the cells used by each traced path.
    """
    _validate_plan_shape(plan)
    column, row = plan.target
    in_a, in_b = plan.input_pair
    mode_a, used_a = _trace(plan, in_a, 0, column)
    mode_b, used_b = _trace(plan, in_b, 0, column)
    if {mode_a, mode_b} != {row, row + 1}:
        raise MeshsimError(
            f"photons arrive on modes {sorted((mode_a, mode_b))}, not the "
            f"target ports {(row, row + 1)}"
        )
    _check_shared(used_a.keys() & used_b.keys(), plan, strict, "input")
    out_upper, used_u = _trace(plan, row, column + 1, plan.n)
    out_lower, used_l = _trace(plan, row + 1, column + 1, plan.n)
    if {out_upper, out_lower} != set(plan.output_pair):
        raise MeshsimError(
            f"target outputs reach modes {sorted((out_upper, out_lower))}, "
            f"not the planned pair {tuple(sorted(plan.output_pair))}"
        )
    _check_shared(used_u.keys() & used_l.keys(), plan, strict, "output")
    return {
        "input_cells": (used_a, used_b),
        "output_cells": (used_u, used_l),
    }


def _plan_theta(plan):
    """Pinned, wrapped theta of every cell of a routing plan, in
    cell_addresses order."""
    _validate_plan_shape(plan)
    return wrap_phase(np.array([
        _THETA_BY_STATE[plan.cell_states[addr]]
        for addr in mesh.cell_addresses(plan.n)
    ]))


@lru_cache(maxsize=None)
def _routes(n):
    """Read-only (cells, cells) pinned thetas and (input, output) mode pairs
    of the route_to_tbs plan of every cell, in cell_addresses order, planned
    once per n. Only these are kept: the 190 plans with their per-cell state
    dicts would cost about 2 MB at n=20."""
    cells = mesh.cell_addresses(n)
    theta = np.empty((len(cells), len(cells)))
    pairs = []
    for plan_theta, addr in zip(theta, cells):
        plan = route_to_tbs(n, addr)
        plan_theta[:] = _plan_theta(plan)
        pairs.append((plan.input_pair, plan.output_pair))
    theta.setflags(write=False)
    return theta, tuple(pairs)


def plan_to_settings(plan):
    """Mesh program for a routing plan: pinned thetas, all phis zero."""
    theta = _plan_theta(plan)
    return mesh.MeshSettings.from_phases(plan.n, theta, np.zeros(theta.size))


def default_delay_grid(center_um=0.0):
    """Scan grid: a dense core across the dip plus far off-dip wings.

    The core stays within two dip widths of the center so the baseline
    re-estimate uses only the wings, which sit beyond five coherence sigmas
    of the default source and pin the baseline without biasing the fit.
    """
    core = np.linspace(-140.0, 140.0, 29)
    wing = np.linspace(450.0, 800.0, 15)
    return center_um + np.sort(np.concatenate([-wing, core, wing]))


@dataclass(frozen=True)
class GaussianDipFit:
    """Fitted inverted-Gaussian dip on a flat baseline."""

    visibility: float
    center_um: float
    width_um: float
    baseline: float
    visibility_sigma: float
    uncertain: bool

    def to_dict(self):
        sigma = self.visibility_sigma
        return {
            "visibility": self.visibility,
            "center_um": self.center_um,
            "width_um": self.width_um,
            "baseline": self.baseline,
            "visibility_sigma": sigma if math.isfinite(sigma) else None,
            "uncertain": self.uncertain,
        }


def _flat_fit(delays, values):
    span = float(np.ptp(delays))
    return GaussianDipFit(
        visibility=0.0,
        center_um=float(np.mean(delays)),
        width_um=span / 4.0 if span > 0 else 1.0,
        baseline=float(np.mean(values)),
        visibility_sigma=float("inf"),
        uncertain=True,
    )


# Levenberg-Marquardt on (center, width): iterations per pass, the starting
# damping, the damping past which no step can lower the SSR, and the
# Gauss-Newton step, relative to the width, below which a scan has converged.
_FIT_ITERATIONS = 100
_FIT_DAMPING = 1e-3
_FIT_MAX_DAMPING = 1e16
_FIT_STEP_TOL = 1e-13
# decimals of the reported visibility
_V_DECIMALS = 12
# scans fitted together. The fit's temporaries grow with the chunk; all
# 190 scans of an n=20 map at once raised the peak RSS of a process running
# hom-map campaigns by about 2 MB over 40 campaigns, and 64 did not.
_FIT_CHUNK = 64

# rows of the state array _project returns, one column per scan
_GAMMA, _SSR, _GC, _GW, _MCC, _MCW, _MWW = range(7)
_SGG, _SGC, _SGW, _SCC, _SCW, _SWW, _SIZE = range(7, 14)


def _project(t, z, center, width, offset):
    """Variable projection of scans z (m, k) onto the dip g = exp(-u^2/2),
    u = (t - center) / width, at a fixed (center, width) per column.

    The linear part is z ~ alpha + gamma g, alpha free when `offset` (pass
    one: alpha is the baseline and gamma = -baseline V) and alpha = 0
    otherwise (pass two, z = values - baseline). Returns the (14, k) state:
    gamma, the SSR, G = H^T r for the residual r and
    H = (dg/dcenter, dg/dwidth), Kaufman's normal matrix M = H^T P H with P
    the projector off the linear basis, the raw sums g^T g, g^T H and
    H^T H, and the size in widths of the Gauss-Newton step M^-1 G / gamma.
    """
    m = len(t)
    u = (t - center) / width
    g = np.exp(-0.5 * u * u)
    hc = g * u / width
    hw = hc * u
    terms = np.empty((m, 11) + center.shape)
    for row, (a, b) in enumerate((
        (g, g), (g, hc), (g, hw), (hc, hc), (hc, hw), (hw, hw), (g, z)
    )):
        np.multiply(a, b, out=terms[:, row])
    terms[:, 7], terms[:, 8], terms[:, 9], terms[:, 10] = g, hc, hw, z
    sums = column_sums(terms)
    sgg, sgc, sgw, scc, scw, sww, sgz, sg, sc, sw, sz = sums
    if offset:
        # projecting off the constant first centres every column
        sgg, sgc, sgw, scc, scw, sww, sgz = sums[:7] - np.stack(
            [sg * sg, sg * sc, sg * sw, sc * sc, sc * sw, sw * sw, sg * sz]
        ) / m
    gamma = sgz / sgg
    alpha = (sz - gamma * sg) / m if offset else 0.0
    r = z - alpha - gamma * g
    ssr, gc, gw = column_sums(np.stack([r * r, hc * r, hw * r], 1))
    mcc, mcw, mww = scc - sgc * sgc / sgg, scw - sgc * sgw / sgg, sww - sgw * sgw / sgg
    size = np.maximum(
        np.abs(mww * gc - mcw * gw), np.abs(mcc * gw - mcw * gc)
    ) / np.abs((mcc * mww - mcw * mcw) * gamma * width)
    return np.stack([gamma, ssr, gc, gw, mcc, mcw, mww, *sums[:6], size])


def _lm_fit(t, z, center, width, offset):
    """Damped Gauss-Newton on (center, width) of every column of z, the
    linear part projected out (Golub & Pereyra 1973, Kaufman's Jacobian).

    A step is rejected if it makes any term non-finite, moves the center
    off the scanned delays or raises the SSR by more than the SSR's
    rounding error; within that rounding error the SSR cannot rank two
    points, so there the step must also shrink the undamped step. Each
    scan stops on its own once its undamped step is below _FIT_STEP_TOL
    widths or no damping gives a better point, and all stop after
    _FIT_ITERATIONS. Every operation acts on each column alone.
    Returns the final (center, width, state).
    """
    center, width = center.copy(), width.copy()
    state = _project(t, z, center, width, offset)
    # each residual carries a rounding error of about eps |z|
    rounding = 4.0 * np.finfo(float).eps * np.sqrt(column_sums(z * z))
    damping = np.full(center.shape, _FIT_DAMPING)
    live = np.arange(center.size)
    # a center far off the scan fits noise with the flank of a huge dip
    first, last = t.min(), t.max()
    for _ in range(_FIT_ITERATIONS):
        s, lam = state[:, live], damping[live]
        going = (s[_SIZE] > _FIT_STEP_TOL) & (lam <= _FIT_MAX_DAMPING)
        if not going.all():
            live, s, lam = live[going], s[:, going], lam[going]
        if live.size == 0:
            break
        # the diagonal of M scaled by 1 + damping
        gamma, gc, gw, mcc, mcw, mww = s[[_GAMMA, _GC, _GW, _MCC, _MCW, _MWW]]
        mcc, mww = mcc * (1.0 + lam), mww * (1.0 + lam)
        det = (mcc * mww - mcw * mcw) * gamma
        c, w = center[live], width[live]
        c_try = c + (mww * gc - mcw * gw) / det
        w_try = w + (mcc * gw - mcw * gc) / det
        trial = _project(t, z[:, live], c_try, w_try, offset)
        band = rounding[live] * np.sqrt(s[_SSR])
        inside = (first <= c_try) & (c_try <= last)
        better = np.isfinite(trial[:_SIZE]).all(0) & inside & (
            (trial[_SSR] < s[_SSR] - band)
            | (trial[_SSR] <= s[_SSR] + band) & (trial[_SIZE] < s[_SIZE])
        )
        center[live] = np.where(better, c_try, c)
        width[live] = np.where(better, w_try, w)
        state[:, live] = np.where(better, trial, s)
        damping[live] = np.where(better, lam / 10.0, lam * 10.0)
    return center, width, state


def fit_gaussian_dips(delays_um, values):
    """Two-pass Gaussian dip fits of a (k, m) stack of scans on one grid.

    Pass one fits baseline, visibility, center and width; the baseline is
    then re-estimated from the samples more than two fitted widths away
    from the center and pass two refits the remaining three with the
    baseline held fixed, which keeps count noise on the dip from tilting
    the visibility. Both passes are linear in the baseline and visibility,
    so those are projected out and only (center, width) iterate, for
    _FIT_CHUNK scans at once. Every operation acts on each scan alone, so
    a scan's fit is the same bits in any stack. Flat scans return zero
    visibility flagged uncertain. Raises when a scan has no sample off the
    dip, because its baseline is then undefined. Returns one GaussianDipFit
    per scan.
    """
    d = np.asarray(delays_um, dtype=float)
    v = np.ascontiguousarray(values, dtype=float)
    if d.ndim != 1 or v.ndim != 2 or v.shape[1] != d.size:
        raise ValidationError("values must be a (k, m) stack on m delays")
    if d.size < MIN_FIT_SAMPLES:
        raise ValidationError(f"dip fit needs >= {MIN_FIT_SAMPLES} samples")
    if not (np.all(np.isfinite(d)) and np.all(np.isfinite(v))):
        raise ValidationError("dip fit input must be finite")
    span = float(np.ptp(d))
    if span <= 0:
        raise ValidationError("delay samples must not be all equal")
    flat = np.ptp(v, axis=1) <= 1e-12 * np.maximum(1.0, np.max(np.abs(v), axis=1))
    fits = [_flat_fit(d, row) if is_flat else None for row, is_flat in zip(v, flat)]
    dips = np.flatnonzero(~flat)
    for start in range(0, dips.size, _FIT_CHUNK):
        chunk = dips[start : start + _FIT_CHUNK]
        for index, fit in zip(chunk, _fit_dips(d, v[chunk].T.copy())):
            fits[index] = fit
    return fits


def _fit_dips(d, y):
    """The two-pass fits of fit_gaussian_dips for the scans y (m, k) on the
    delays d, none of them flat."""
    m, span, t = d.size, float(np.ptp(d)), d[:, None]
    with np.errstate(all="ignore"):
        # the starting guesses
        low = np.argmin(y, axis=0)
        upper = y >= np.median(y, axis=0)
        b0 = column_sums(np.where(upper, y, 0.0)) / upper.sum(0)
        b0 = np.where(b0 > 0, b0, np.maximum(y.max(0), 1e-9))
        below = y <= b0 - 0.5 * (b0 - y.min(0))
        spread = np.where(below, t, -np.inf).max(0) - np.where(below, t, np.inf).min(0)
        width = np.where(below.sum(0) >= 2, spread / 2.355, span / 8.0)
        width = np.maximum(width, span / m)
        center = d[low]

        center, width, _ = _lm_fit(t, y, center, width, offset=True)
        width = np.abs(width)
        off = np.abs(t - center) > 2.0 * width
        count = off.sum(0)
        baseline = column_sums(np.where(off, y, 0.0)) / count
        if np.any(count == 0):
            raise ValidationError(
                "baseline undefined: no samples beyond two widths from the dip"
            )
        if np.any(baseline <= 0):
            raise ValidationError("off-dip baseline must be positive")
        center, width, s = _lm_fit(t, y - baseline, center, width, offset=False)

        # the fit resolves V to a few ulp, so scans that differ only by
        # rounding (every cell of an ideal mesh) fit a few ulp apart; the
        # map's exact ANOVA would report that spread as structure
        visibility = np.round(np.clip(-s[_GAMMA] / baseline, 0.0, 1.0), _V_DECIMALS)
        # the least-squares covariance s^2 (J^T J)^-1 of V, with the
        # Jacobian J = (-baseline g, gamma H) over (V, center, width) and
        # s^2 = SSR / (m - 3)
        gamma, b = s[_GAMMA], baseline
        hh = gamma * gamma * s[[_SCC, _SCW, _SWW]]
        vc, vw = -b * gamma * s[_SGC], -b * gamma * s[_SGW]
        coupled = (vc * vc * hh[2] - 2.0 * vc * vw * hh[1] + vw * vw * hh[0]) / (
            hh[0] * hh[2] - hh[1] * hh[1]
        )
        sigma = np.sqrt(s[_SSR] / (m - 3) / (b * b * s[_SGG] - coupled))
        # a degenerate covariance falls back to the relative rms residual;
        # with any residual left it also marks the fit uncertain (a dip
        # narrower than the gap it sits in fits noise as a perfect V = 1)
        degenerate = ~(np.isfinite(sigma) & (sigma > 0))
        sigma = np.where(degenerate, np.sqrt(s[_SSR] / m) / b, sigma)
        degenerate &= s[_SSR] > 0
    return [
        GaussianDipFit(
            visibility=float(visibility[j]),
            center_um=float(center[j]),
            width_um=float(abs(width[j])),
            baseline=float(baseline[j]),
            visibility_sigma=float(sigma[j]),
            uncertain=bool(degenerate[j] or visibility[j] < 3.0 * sigma[j]),
        )
        for j in range(len(center))
    ]


def fit_gaussian_dip(delays_um, values):
    """fit_gaussian_dips of one scan: the same two-pass fit, bit for bit.

    Raises when no sample lies off the dip, because the baseline is then
    undefined.
    """
    d = np.asarray(delays_um, dtype=float)
    v = np.asarray(values, dtype=float)
    if d.ndim != 1 or d.shape != v.shape:
        raise ValidationError("delays and values must be matching 1-d arrays")
    return fit_gaussian_dips(d, v[None])[0]


@dataclass(frozen=True, eq=False)
class HomScan:
    """One coincidence-vs-delay scan, normalized to its off-dip baseline."""

    delays_um: np.ndarray
    coincidences: np.ndarray
    fit: GaussianDipFit
    input_pair: Tuple[int, int]
    output_pair: Tuple[int, int]


def _scan_grid(delays_um, arm_delay_um):
    """Read-only delay samples of a scan (the default grid centered on the
    arm delay when None) and the indices of the BASELINE_FRACTION of them
    farthest from zero delay, which set the raw-count baseline."""
    if delays_um is None:
        delays_um = default_delay_grid(arm_delay_um)
    d = np.array(delays_um, dtype=float)
    if d.ndim != 1 or d.size < MIN_FIT_SAMPLES:
        raise ValidationError(f"scan needs >= {MIN_FIT_SAMPLES} delay samples")
    if not np.all(np.isfinite(d)):
        raise ValidationError("delay samples must be finite")
    d.setflags(write=False)
    k = max(1, int(round(BASELINE_FRACTION * d.size)))
    return d, np.argsort(np.abs(d))[-k:]


def _check_scan_inputs(profile, n, count_noise_sigma):
    if profile.n != n:
        raise ValidationError(f"profile is for n={profile.n}, plan for n={n}")
    if count_noise_sigma < 0:
        raise ValidationError("count noise sigma must be >= 0")


def _realize_routes(profile, theta, seeds):
    """Realized transfers of routed programs, one run seed each, yielded a
    hardware chunk at a time: (k, cells) pinned thetas as _plan_theta gives
    them, zero phis and output phases, as plan_to_settings programs them."""
    return hardware.realized_transfer_chunks(
        profile, theta, np.zeros_like(theta), np.zeros((len(theta), profile.n)), seeds
    )


def _normalized_counts(terms, envelope, far, seed, count_noise_sigma):
    """Coincidences of one scan from the two pair terms of its realized
    transfer (as _pair_terms gives them), given the source envelope x(tau)
    over the delays, normalized by the mean of the baseline samples `far`."""
    p_classical, p_interference = terms
    counts = p_classical + envelope * p_interference
    if count_noise_sigma > 0:
        rng = np.random.default_rng(
            np.random.SeedSequence([int(seed), _COUNT_STREAM])
        )
        counts = counts * (1.0 + count_noise_sigma * rng.standard_normal(counts.size))
        counts = np.maximum(counts, 0.0)
    base = float(np.mean(counts[far]))
    if base <= 0:
        raise MeshsimError("scan has no off-dip coincidences to normalize by")
    return counts / base


def hom_scan(
    plan,
    source,
    profile,
    delays_um=None,
    *,
    seed=0,
    arm_delay_um=0.0,
    count_noise_sigma=0.0,
):
    """Simulate a Hong-Ou-Mandel delay scan through one routing plan.

    The mesh transfer is realized once per scan (hardware noise is static
    over a scan); the delay only moves the pairwise overlap x(tau), whose
    envelope is centered on `arm_delay_um`. Raw coincidences are normalized
    by the mean of the 20% of samples farthest from zero delay.
    """
    _check_scan_inputs(profile, plan.n, count_noise_sigma)
    d, far = _scan_grid(delays_um, arm_delay_um)
    transfer = next(_realize_routes(profile, _plan_theta(plan)[None], [seed]))[0]
    normalized = _normalized_counts(
        _pair_terms(transfer, plan.input_pair, plan.output_pair),
        source.overlap_at(d, arm_delay_um), far, seed, count_noise_sigma,
    )
    fit = fit_gaussian_dip(d, normalized)
    normalized.setflags(write=False)
    return HomScan(
        delays_um=d,
        coincidences=normalized,
        fit=fit,
        input_pair=tuple(plan.input_pair),
        output_pair=tuple(plan.output_pair),
    )


# Decimal digits carried by the incomplete-beta evaluation in _anova_p.
_ANOVA_DPS = 50


def _anova_p(groups):
    """One-way ANOVA p-value, correctly rounded to a double.

    The sums of squares are exact rationals of the float inputs, and the
    F tail P(F' > F) = I_x(d_within/2, d_between/2) with
    x = SS_within / (SS_within + SS_between) is evaluated at _ANOVA_DPS
    digits and rounded once, so the result does not depend on the numpy,
    scipy or BLAS build. Degenerate inputs give 1.0 (fewer than two
    non-empty groups, no within-group degrees of freedom, all values
    equal, or a non-finite value) or 0.0 (no within-group spread around
    unequal group means).
    """
    groups = [np.asarray(g, dtype=float) for g in groups if len(g) > 0]
    total = sum(g.size for g in groups)
    d_between = len(groups) - 1
    d_within = total - len(groups)
    if d_between < 1 or d_within < 1:
        return 1.0
    if not all(np.isfinite(g).all() for g in groups):
        return 1.0
    # Every float is an integer over a power of two, so scaling by the
    # largest denominator makes all values integers. The common scale
    # cancels in x, and integer sums are exact and far faster than Fractions.
    ratios = [[v.as_integer_ratio() for v in g.tolist()] for g in groups]
    scale = max(den for g in ratios for _, den in g)
    ints = [[num * (scale // den) for num, den in g] for g in ratios]
    sum_squares = sum(k * k for g in ints for k in g)
    between = sum(Fraction(sum(g) ** 2, len(g)) for g in ints)
    ss_within = sum_squares - between
    ss_between = between - Fraction(sum(map(sum, ints)) ** 2, total)
    if ss_within == 0:
        return 1.0 if ss_between == 0 else 0.0
    x = ss_within / (ss_within + ss_between)
    # A private context: mpmath functions adjust their context's precision
    # while they run, so a shared one is not safe across threads.
    ctx = mpmath.MPContext()
    ctx.dps = _ANOVA_DPS
    p = ctx.betainc(
        ctx.mpf(d_within) / 2,
        ctx.mpf(d_between) / 2,
        0,
        ctx.mpf(x.numerator) / x.denominator,
        regularized=True,
    )
    return float(p)


@dataclass(frozen=True, eq=False)
class VisibilityMap:
    """Fitted HOM visibility for every cell of the mesh."""

    cells: Tuple[mesh.CellAddress, ...]
    visibilities: np.ndarray
    stats: analysis.EnsembleStats
    row_anova_p: float
    column_anova_p: float


def hom_visibility_map(n, source, profile, *, seed=0, count_noise_sigma=0.0):
    """Scan every cell as a routed TBS and map the fitted visibilities.

    Per-cell seeds derive from (seed, cell index), so the transfer chunk
    cannot change the map. Every scan is the hom_scan of its routing plan:
    the routes are planned once per n, the delay grid, source envelope and
    baseline samples once per map; each realized chunk of transfers is
    reduced to its scans' two pair terms, the count model runs per scan,
    and one fit_gaussian_dips call fits all scans. Row and column one-way
    ANOVA p-values probe for systematic structure along either mesh axis.
    """
    _check_scan_inputs(profile, n, count_noise_sigma)
    cells = mesh.cell_addresses(n)
    row_of = np.array([addr.row for addr in cells])
    column_of = np.array([addr.column for addr in cells])
    d, far = _scan_grid(None, 0.0)
    envelope = source.overlap_at(d, 0.0)
    seeds = [child_seed(seed, index) for index in range(len(cells))]
    theta, pairs = _routes(n)
    terms = []
    for transfers in _realize_routes(profile, theta, seeds):
        start = len(terms)
        terms += [_pair_terms(m, *pair) for m, pair in zip(transfers, pairs[start:])]
    scans = [
        _normalized_counts(term, envelope, far, item_seed, count_noise_sigma)
        for term, item_seed in zip(terms, seeds)
    ]
    visibilities = np.array([fit.visibility for fit in fit_gaussian_dips(d, scans)])
    stats = analysis.ensemble_statistics(visibilities)
    visibilities.setflags(write=False)
    return VisibilityMap(
        cells=cells,
        visibilities=visibilities,
        stats=stats,
        row_anova_p=_anova_p([visibilities[row_of == r] for r in range(n - 1)]),
        column_anova_p=_anova_p([visibilities[column_of == c] for c in range(n)]),
    )


def diagonal_interferometer_plan(n):
    """Two-arm interferometer spanning the mesh diagonal.

    Photon a holds the top mode then crosses down two rows behind photon b,
    which descends the main diagonal; they recombine at the deepest cell
    reachable by both, (n-1, n-3). The only shared cell is (0, 0), crossed
    in the bar state, so the plan verifies in non-strict mode.
    """
    if n < 3:
        raise ValidationError("diagonal interferometer needs n >= 3")
    states = dict.fromkeys(mesh.cell_addresses(n), BAR)
    for c in range(1, n - 2):
        states[mesh.CellAddress(c, c)] = CROSS
    for c in range(2, n - 1):
        states[mesh.CellAddress(c, c - 2)] = CROSS
    target = mesh.CellAddress(n - 1, n - 3)
    states[target] = HALF
    return RoutingPlan(
        n=n,
        target=target,
        input_pair=(0, 1),
        output_pair=(n - 3, n - 2),
        cell_states=states,
    )


def diagonal_arm_heaters(n):
    """Heaters on photon b's exclusive diagonal cells, (1,1) .. (n-2,n-2)."""
    ids = []
    for c in range(1, n - 1):
        for kind in hardware.HEATER_KINDS:
            ids.append(hardware.heater_id(c, c, kind))
    return tuple(ids)


@dataclass(frozen=True, eq=False)
class DelaySweep:
    """Fitted dip centers versus the drive applied to one diagonal arm."""

    drive_levels_rad: np.ndarray
    centers_um: np.ndarray
    total_shift_um: float
    per_heater_shift_um: float
    heater_count: int
    driven_heater_ids: Tuple[str, ...]
    input_pair: Tuple[int, int]
    output_pair: Tuple[int, int]


def diagonal_delay_sweep(n, profile, heater_drive_levels_rad, source=None, *, seed=0):
    """Sweep an on-chip delay built from every heater on one diagonal arm.

    Driving a heater by psi stretches the optical path under it by
    psi * lambda / 2pi, so the dip envelope of the big diagonal
    interferometer moves by that amount per heater while the control layer
    holds the interferometric phases at the plan settings. Each drive level
    yields one HOM scan on a grid centered at the expected delay; the
    fitted centers trace the delay line.
    """
    if source is None:
        source = PhotonPairSource()
    if n < 3:
        raise ValidationError("delay sweep needs n >= 3")
    if profile.n != n:
        raise ValidationError(f"profile is for n={profile.n}, not n={n}")
    levels = np.asarray(heater_drive_levels_rad, dtype=float)
    if levels.ndim != 1 or levels.size == 0:
        raise ValidationError("drive levels must be a non-empty 1-d array")
    if not np.all(np.isfinite(levels)):
        raise ValidationError("drive levels must be finite")
    if np.any(levels < 0):
        raise ValidationError("drive levels must be >= 0")

    plan = diagonal_interferometer_plan(n)
    verify_routing(plan, strict=False)
    driven = diagonal_arm_heaters(n)
    arm = [hardware.heater_index(n)[hid] for hid in driven]
    spans = (
        profile.alpha_rad_per_w[arm] * profile.v_max_v[arm] ** 2
        / profile.resistance_ohm[arm]
    )
    max_span = float(spans.min())
    top = float(np.max(levels))
    if top > max_span + 1e-9:
        raise ValidationError(
            f"drive level {top:.6g} rad exceeds the smallest arm heater span "
            f"{max_span:.6g} rad"
        )

    lam_um = source.center_wavelength_nm * 1e-3
    count = len(driven)
    centers = []
    for index, level in enumerate(levels):
        arm_delay = count * float(level) * lam_um / TWO_PI
        scan = hom_scan(
            plan,
            source,
            profile,
            seed=child_seed(seed, index),
            arm_delay_um=arm_delay,
        )
        centers.append(scan.fit.center_um)

    centers = np.asarray(centers, dtype=float)
    total = float(centers[-1] - centers[0])
    levels = levels.copy()
    levels.setflags(write=False)
    centers.setflags(write=False)
    return DelaySweep(
        drive_levels_rad=levels,
        centers_um=centers,
        total_shift_um=total,
        per_heater_shift_um=total / count,
        heater_count=count,
        driven_heater_ids=driven,
        input_pair=plan.input_pair,
        output_pair=plan.output_pair,
    )
