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
from typing import Tuple

import mpmath
import numpy as np

from . import analysis, hardware, mesh
from .util import (
    TWO_PI,
    MeshsimError,
    ValidationError,
    as_int,
    as_real,
    as_reals,
    child_seed,
    column_sums,
    product_sums,
    seeded_rng,
    variable_projection,
)

# pinned theta of a routing cell in the bar, cross and 50:50 (half) state
BAR = math.pi
CROSS = 0.0
HALF = math.pi / 2.0

DEFAULT_CENTER_WAVELENGTH_NM = 1562.0
DEFAULT_BANDWIDTH_FWHM_NM = 12.0
DEFAULT_SCHMIDT_NUMBER = 1.1

# the source's center wavelength in micrometers, and the Gaussian sigma of
# its dip envelope in micrometers of path delay
_LAM_UM = DEFAULT_CENTER_WAVELENGTH_NM * 1e-3
COHERENCE_SIGMA_UM = (
    math.sqrt(2.0 * math.log(2.0)) / math.pi * _LAM_UM * _LAM_UM
    / (DEFAULT_BANDWIDTH_FWHM_NM * 1e-3)
)

# Fraction of samples (largest |delay|) averaged into the raw-count baseline.
BASELINE_FRACTION = 0.2
MIN_FIT_SAMPLES = 10

_COUNT_STREAM = 404


@dataclass(frozen=True)
class PhotonPairSource:
    """Degenerate photon-pair source with a Gaussian joint spectrum of the
    fixed DEFAULT_CENTER_WAVELENGTH_NM and DEFAULT_BANDWIDTH_FWHM_NM.

    The mutual overlap at zero delay is the purity ceiling 1/K set by the
    effective Schmidt mode number K; it bounds every fitted visibility.
    """

    mutual_overlap_at_zero_delay: float = 1.0 / DEFAULT_SCHMIDT_NUMBER

    def __post_init__(self):
        x = as_real(self.mutual_overlap_at_zero_delay, "overlap", 0, 1)
        object.__setattr__(self, "mutual_overlap_at_zero_delay", x)

    def overlap_at(self, delay_um, arm_delay_um=0.0):
        """Pairwise overlap x(tau) for path-delay mismatches ("delays") in um."""
        arm_delay_um = as_real(arm_delay_um, "arm delay")
        z = (as_reals(delay_um, "delays") - arm_delay_um) / COHERENCE_SIGMA_UM
        return self.mutual_overlap_at_zero_delay * np.exp(-0.5 * z**2)


def _matrix_of(u):
    """The elements of a Unitary, a TransferMatrix or a raw square matrix."""
    arr = as_reals(getattr(u, "elements", u), "matrix", (None, None), dtype=complex)
    if arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"matrix must be square, got shape {arr.shape}")
    return arr


def _mode_pair(pair, n, label):
    try:
        a, b = (int(pair[0]), int(pair[1]))
        # a whole-valued float such as 1.0 names a mode; a bool does not
        whole = (a, b) == tuple(pair) and not any(
            isinstance(m, (bool, np.bool_)) for m in pair
        )
    except (ArithmeticError, LookupError, TypeError, ValueError):
        whole = False
    if not whole:
        raise ValidationError(f"{label} modes must be a pair of integers, got {pair}")
    if a == b:
        raise ValidationError(f"{label} modes must be distinct, got {pair}")
    for m in (a, b):
        if not 0 <= m < n:
            raise ValidationError(f"{label} mode {m} out of range for n={n}")
    return a, b


def _pair_terms(m, pairs):
    """(|q1|^2 + |q2|^2, 2 Re(q1 q2*)) of each matrix of a (k, n, c) stack
    for its input columns (a, b) and output rows (c, d), one ((a, b), (c, d))
    per matrix.

    The coincidence at pairwise overlap x is the first plus x times the
    second. Real arithmetic and libm's pow of np.hypot give the bits of
    scalar complex * and abs(q) ** 2; array complex *, np.abs and x * x do not.
    """
    (a, b), (c, d) = np.moveaxis(np.asarray(pairs), 0, -1)
    i = np.arange(len(m))

    def product(row, col, row2, col2):
        x, y = m[i, row, col], m[i, row2, col2]
        return x.real * y.real - x.imag * y.imag, x.real * y.imag + x.imag * y.real

    (r1, i1), (r2, i2) = product(c, a, d, b), product(c, b, d, a)
    classical = np.float_power(np.hypot(r1, i1), 2) + np.float_power(np.hypot(r2, i2), 2)
    return classical, 2.0 * (r1 * r2 + i1 * i2)


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
    x = as_real(overlap, "overlap", 0, 1)
    classical, interference = _pair_terms(m[None], [((a, b), (c, d))])
    return float(classical[0] + x * interference[0])


def two_photon_output_distribution(u, input_pair, overlap):
    """Probabilities over unordered output pairs, doubles included.

    Sums to one when `u` is unitary, for any overlap.
    """
    m = _matrix_of(u)
    n = m.shape[0]
    a, b = _mode_pair(input_pair, n, "input")
    x = as_real(overlap, "overlap", 0, 1)
    outputs = [(c, d) for c in range(n) for d in range(c + 1, n)]
    classical, interference = _pair_terms(
        np.broadcast_to(m, (len(outputs), n, n)), [((a, b), pair) for pair in outputs]
    )
    probs = dict(zip(outputs, (classical + x * interference).tolist()))
    for c in range(n):
        amp = m[c, a] * m[c, b]
        probs[(c, c)] = float((1.0 + x) * abs(amp) ** 2)
    return dict(sorted(probs.items()))


@dataclass(frozen=True, eq=False)
class RoutingPlan:
    """Bar/cross program isolating one cell as a two-port splitter.

    `theta` is the read-only pinned theta of every cell, in cell_addresses
    order: BAR, CROSS or HALF, with exactly one HALF cell, the target.
    """

    n: int
    target: mesh.CellAddress
    input_pair: Tuple[int, int]
    output_pair: Tuple[int, int]
    theta: np.ndarray

    def __post_init__(self):
        index = mesh.cell_index(self.n)
        theta = as_reals(self.theta, "plan thetas", (len(index),))
        if not np.isin(theta, (BAR, CROSS, HALF)).all():
            raise ValidationError("plan thetas must each be BAR, CROSS or HALF")
        if np.flatnonzero(theta == HALF).tolist() != [index.get(tuple(self.target))]:
            raise ValidationError("plan needs exactly one half cell, at the target")
        theta.setflags(write=False)
        object.__setattr__(self, "theta", theta)
        for side in ("input", "output"):
            pair = _mode_pair(getattr(self, f"{side}_pair"), self.n, side)
            object.__setattr__(self, f"{side}_pair", pair)


def _plan(n, target, input_pair, output_pair, crosses):
    """RoutingPlan with the target HALF, the cells `crosses` CROSS and every
    other cell BAR."""
    index = mesh.cell_index(n)
    theta = np.full(len(index), BAR)
    theta[[index[addr] for addr in crosses]] = CROSS
    theta[index[target]] = HALF
    return RoutingPlan(n, target, input_pair, output_pair, theta)


def route_to_tbs(n, target):
    """Deterministic routing plan driving the target cell as a 50:50 TBS.

    Each photon enters on a dedicated lane two modes apart, crosses once in
    the column before the target, and the two outputs fan back out through
    one cross each. Lanes touch disjoint cells, so the photons meet only at
    the target.
    """
    target = mesh.CellAddress(as_int(target[0]), as_int(target[1]))
    if target not in mesh.cell_index(n):
        raise ValidationError(f"no cell at {tuple(target)} in an n={n} mesh")
    column, row = target
    pairs, crosses = [], []
    # the column before the target routes the inputs, the one after the outputs
    for side in (column - 1, column + 1):
        upper, lower = row, row + 1
        if 0 <= side < n:
            if row > 0:
                upper = row - 1
                crosses.append(mesh.CellAddress(side, row - 1))
            if row < n - 2:
                lower = row + 2
                crosses.append(mesh.CellAddress(side, row + 1))
        pairs.append((upper, lower))
    return _plan(n, target, pairs[0], pairs[1], crosses)


def _cell_touching(n, column, mode):
    """Cell in `column` with `mode` on one of its ports, or None at a gap."""
    row = mode if column % 2 == mode % 2 else mode - 1
    if row < 0 or row > n - 2:
        return None
    return mesh.CellAddress(column, row)


def _trace(plan, mode, col_start, col_stop):
    """Walk one photon through bar/cross cells; half cells are an error.
    Returns its exit mode and the set of cells it touched."""
    index = mesh.cell_index(plan.n)
    used = set()
    for column in range(col_start, col_stop):
        addr = _cell_touching(plan.n, column, mode)
        if addr is None:
            continue
        used.add(addr)
        theta = plan.theta[index[addr]]
        if theta == HALF:
            raise MeshsimError(
                f"trace entered the splitting cell {tuple(addr)} away from "
                "the planned meeting point"
            )
        if theta == CROSS:
            mode = addr.row + 1 if mode == addr.row else addr.row
    return mode, used


def _check_shared(shared, plan, strict, what):
    index = mesh.cell_index(plan.n)
    for addr in sorted(shared):
        if strict:
            raise MeshsimError(f"{what} paths share cell {tuple(addr)}")
        if plan.theta[index[addr]] != BAR:
            raise MeshsimError(
                f"{what} paths share the non-bar cell {tuple(addr)}"
            )


def verify_routing(plan, strict=True):
    """Trace both photons and prove the paths are isolated.

    Raises on any violation. With strict=True the input (and output) paths
    may not touch a common cell at all; with strict=False shared cells are
    tolerated when they are in the bar state, which a co-propagating
    boundary pair needs.
    """
    column, row = plan.target
    in_a, in_b = plan.input_pair
    mode_a, used_a = _trace(plan, in_a, 0, column)
    mode_b, used_b = _trace(plan, in_b, 0, column)
    if {mode_a, mode_b} != {row, row + 1}:
        raise MeshsimError(
            f"photons arrive on modes {sorted((mode_a, mode_b))}, not the "
            f"target ports {(row, row + 1)}"
        )
    _check_shared(used_a & used_b, plan, strict, "input")
    out_upper, used_u = _trace(plan, row, column + 1, plan.n)
    out_lower, used_l = _trace(plan, row + 1, column + 1, plan.n)
    if {out_upper, out_lower} != set(plan.output_pair):
        raise MeshsimError(
            f"target outputs reach modes {sorted((out_upper, out_lower))}, "
            f"not the planned pair {tuple(sorted(plan.output_pair))}"
        )
    _check_shared(used_u & used_l, plan, strict, "output")


@lru_cache(maxsize=None)
def _routes(n):
    """Read-only (cells, cells) stack of the route_to_tbs plan thetas of
    every cell and (cells, 2, 2) stack of their (input, output) mode pairs,
    in cell_addresses order, planned once per n."""
    plans = [route_to_tbs(n, addr) for addr in mesh.cell_addresses(n)]
    theta = np.array([plan.theta for plan in plans])
    pairs = np.array([(plan.input_pair, plan.output_pair) for plan in plans])
    theta.setflags(write=False)
    pairs.setflags(write=False)
    return theta, pairs


def plan_to_settings(plan):
    """Mesh program for a routing plan: pinned thetas, all phis zero."""
    return mesh.MeshSettings.from_phases(plan.n, plan.theta, np.zeros(plan.theta.size))


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


# the undamped step, in widths, below which a scan has converged; the
# fringe fit's two ulp would end every measured scan on the same optimum
# with one more step per pass in the median (README, "Dip fit")
_FIT_STEP_TOL = 1e-13
# decimals of the reported visibility
_V_DECIMALS = 12


def _dip_model(t, center, width):
    """The dip g = exp(-u^2/2), u = (t - center) / width, its derivatives
    in (center, width) and the width as the scale of a step, for
    util.variable_projection."""
    u = (t - center) / width
    g = np.exp(-0.5 * u * u)
    hc = g * u / width
    return [g], [[hc, hc * u]], width


def fit_gaussian_dips(delays_um, values):
    """Two-pass Gaussian dip fits of a (k, m) stack of scans on one grid of
    m delays, or on a (k, m) grid of one row per scan.

    Pass one fits baseline, visibility, center and width; the baseline is
    then re-estimated from the samples more than two fitted widths away
    from the center and pass two refits the remaining three with the
    baseline held fixed, which keeps count noise on the dip from tilting
    the visibility. Both passes are linear in the baseline and visibility,
    so those are projected out and only (center, width) iterate, for all
    scans in one pass. Every operation acts on each scan alone, so a scan's
    fit is the same bits in any stack. util.as_reals checks the
    "delays" and "values"; a scan with no sample off the dip raises, as its
    baseline is then undefined. Returns the
    GaussianDipFit fields as arrays in stack order: (visibility, center_um,
    width_um, baseline, visibility_sigma, uncertain). A flat scan's row is
    zero visibility at the mean delay, a quarter of the span wide, on the
    scan's mean, with an infinite sigma and flagged uncertain.
    """
    d = as_reals(delays_um, "delays")
    v = as_reals(values, "values", (None, None))
    if d.shape not in (v.shape, v.shape[1:]):
        raise ValidationError(f"delays must have shape {v.shape[1:]} or {v.shape}, got {d.shape}")
    if v.shape[1] < MIN_FIT_SAMPLES:
        raise ValidationError(f"dip fit needs >= {MIN_FIT_SAMPLES} samples")
    span = np.ptp(d, axis=-1)
    if np.any(span <= 0):
        raise ValidationError("delay samples must not be all equal")
    flat = np.ptp(v, axis=1) <= 1e-12 * np.maximum(1.0, np.max(np.abs(v), axis=1))
    k = len(v)
    # every row starts as a flat scan's; the dip fits overwrite theirs
    fits = (
        np.zeros(k), np.full(k, np.mean(d, axis=-1)), np.full(k, span / 4.0),
        np.mean(v, axis=1), np.full(k, np.inf), np.ones(k, dtype=bool),
    )
    dips = np.flatnonzero(~flat)
    if dips.size:
        t = np.broadcast_to(d, v.shape)[dips].T.copy()
        for column, part in zip(fits, _fit_dips(t, v[dips].T.copy())):
            column[dips] = part
    return fits


def _fit_dips(t, y):
    """The two-pass fits of fit_gaussian_dips for the scans y (m, k) on the
    delays t (m, k), none of them flat, as its six arrays."""
    m, span = len(t), np.ptp(t, axis=0)
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
        center = np.take_along_axis(t, low[None], 0)[0]

        # a center off the scanned delays would fit noise with the flank
        # of a huge dip
        lo = np.stack([t.min(0), np.full(t.shape[1], -np.inf)])
        hi = np.stack([t.max(0), np.full(t.shape[1], np.inf)])
        (center, width), _, _, first = variable_projection(
            _dip_model, t, y, (center, width), lo, hi, offset=True, tol=_FIT_STEP_TOL
        )
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
        (center, width), (gamma,), ssr, second = variable_projection(
            _dip_model, t, y - baseline, (center, width), lo, hi, offset=False,
            tol=_FIT_STEP_TOL,
        )

        # the fit resolves V to a few ulp, so scans that differ only by
        # rounding (every cell of an ideal mesh) fit a few ulp apart; the
        # map's exact ANOVA would report that spread as structure
        visibility = np.round(np.clip(-gamma / baseline, 0.0, 1.0), _V_DECIMALS)
        # the least-squares covariance s^2 (J^T J)^-1 of V, with the
        # Jacobian J = (-baseline g, gamma H) over (V, center, width) and
        # s^2 = SSR / (m - 3)
        (g,), ((hc, hw),), _ = _dip_model(t, center, width)
        sgg, sgc, sgw, scc, scw, sww = product_sums(
            [(g, g), (g, hc), (g, hw), (hc, hc), (hc, hw), (hw, hw)], t
        )
        b = baseline
        hh = gamma * gamma * np.stack([scc, scw, sww])
        vc, vw = -b * gamma * sgc, -b * gamma * sgw
        coupled = (vc * vc * hh[2] - 2.0 * vc * vw * hh[1] + vw * vw * hh[0]) / (
            hh[0] * hh[2] - hh[1] * hh[1]
        )
        sigma = np.sqrt(ssr / (m - 3) / (b * b * sgg - coupled))
        # a degenerate covariance falls back to the relative rms residual;
        # with any residual left it also marks the fit uncertain (a dip
        # narrower than the gap it sits in fits noise as a perfect V = 1)
        degenerate = ~(np.isfinite(sigma) & (sigma > 0))
        sigma = np.where(degenerate, np.sqrt(ssr / m) / b, sigma)
        degenerate &= ssr > 0
    # a pass stopped at the iteration cap has not reached an optimum
    stalled = ~(first & second)
    uncertain = degenerate | stalled | (visibility < 3.0 * sigma)
    return visibility, center, np.abs(width), baseline, sigma, uncertain


def fit_gaussian_dip(delays_um, values):
    """fit_gaussian_dips of one scan: the same two-pass fit, bit for bit.

    Raises when no sample lies off the dip, because the baseline is then
    undefined.
    """
    d = as_reals(delays_um, "delays", (None,))
    v = as_reals(values, "values", d.shape)
    fits = fit_gaussian_dips(d, v[None])
    return GaussianDipFit(*(column[0].item() for column in fits))


@dataclass(frozen=True, eq=False)
class HomScan:
    """One coincidence-vs-delay scan, normalized to its off-dip baseline."""

    delays_um: np.ndarray
    coincidences: np.ndarray
    fit: GaussianDipFit
    input_pair: Tuple[int, int]
    output_pair: Tuple[int, int]


def _scan_grid(delays_um, arm_delay_um):
    """Read-only delay samples of a scan: the default grid centered on the
    arm delay when None."""
    if delays_um is None:
        delays_um = default_delay_grid(arm_delay_um)
    d = as_reals(delays_um, "delay samples", (None,))
    if d.size < MIN_FIT_SAMPLES:
        raise ValidationError(f"scan needs >= {MIN_FIT_SAMPLES} delay samples")
    d.setflags(write=False)
    return d


def _routed_scans(profile, theta, pairs, seeds, delays, envelope, count_noise_sigma):
    """Normalized (k, m) coincidences of k routed scans, one per row of the
    (k, cells) thetas, realized with zero phis and output phases as
    plan_to_settings programs them and one run seed each. The scans are
    realized hardware.CHUNK at a time, each as the two columns of its input
    pair, and each chunk is reduced to its pair terms at the (k, 2, 2) mode
    pairs. Scan i sees the source envelope x(tau) over its delays (`delays`
    and `envelope` are one row, or one row per scan) and is normalized by
    the mean of its BASELINE_FRACTION of samples farthest from zero delay."""
    count_noise_sigma = as_real(count_noise_sigma, "count noise sigma", 0)
    pairs, seeds, terms = np.asarray(pairs), list(seeds), []
    # the realized columns are the inputs (a, b), so the terms read columns (0, 1)
    columns = pairs.copy()
    columns[:, 0] = (0, 1)
    stacks = (theta, np.zeros_like(theta), np.zeros((len(theta), profile.n)))
    for start in range(0, len(seeds), hardware.CHUNK):
        rows = slice(start, start + hardware.CHUNK)
        transfers = hardware.realized_transfers(
            profile, *(a[rows] for a in stacks), seeds[rows], pairs[rows, 0]
        )
        terms.append(_pair_terms(transfers, columns[rows]))
    classical, interference = np.concatenate(terms, axis=1)[..., None]
    counts = classical + envelope * interference
    k, m = counts.shape
    if count_noise_sigma > 0:
        noise = np.stack([seeded_rng(s, _COUNT_STREAM).standard_normal(m) for s in seeds])
        counts = np.maximum(counts * (1.0 + count_noise_sigma * noise), 0.0)
    size = max(1, int(round(BASELINE_FRACTION * m)))
    far = np.broadcast_to(np.argsort(np.abs(delays), axis=-1)[..., -size:], (k, size))
    base = np.mean(np.take_along_axis(counts, far, axis=1), axis=1)
    if np.any(base <= 0):
        raise MeshsimError("scan has no off-dip coincidences to normalize by")
    return counts / base[:, None]


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
    arm_delay_um = as_real(arm_delay_um, "arm delay")
    d = _scan_grid(delays_um, arm_delay_um)
    (normalized,) = _routed_scans(
        profile, plan.theta[None], [(plan.input_pair, plan.output_pair)], [seed],
        d, source.overlap_at(d, arm_delay_um), count_noise_sigma,
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
    non-empty groups, no within-group degrees of freedom, or all values
    equal) or 0.0 (no within-group spread around unequal group means). The
    values must be finite (util.as_reals: "ANOVA groups ...").
    """
    groups = [as_reals(g, "ANOVA groups", (None,)) for g in groups if len(g) > 0]
    total = sum(g.size for g in groups)
    d_between = len(groups) - 1
    d_within = total - len(groups)
    if d_between < 1 or d_within < 1:
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

    Per-cell seeds derive from (seed, cell index), so the chunk size
    cannot change the map. Every scan is the hom_scan of its routing plan:
    the routes are planned once per n, the delay grid and source envelope
    once per map, all scans are realized in one routed call, and one
    fit_gaussian_dips call fits them. Row and column one-way ANOVA
    p-values probe for systematic structure along either mesh axis.
    """
    cells = mesh.cell_addresses(n)
    row_of = np.array([addr.row for addr in cells])
    column_of = np.array([addr.column for addr in cells])
    d = default_delay_grid()
    theta, pairs = _routes(n)
    scans = _routed_scans(
        profile, theta, pairs, [child_seed(seed, index) for index in range(len(cells))],
        d, source.overlap_at(d, 0.0), count_noise_sigma,
    )
    visibilities = fit_gaussian_dips(d, scans)[0]
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
    if as_int(n) < 3:
        raise ValidationError("diagonal interferometer needs n >= 3")
    crosses = [mesh.CellAddress(c, c) for c in range(1, n - 2)]
    crosses += [mesh.CellAddress(c, c - 2) for c in range(2, n - 1)]
    return _plan(n, mesh.CellAddress(n - 1, n - 3), (0, 1), (n - 3, n - 2), crosses)


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
    fitted centers trace the delay line. Each level's scan is the hom_scan
    of the plan with run seed child_seed(seed, level index); all levels are
    realized in one routed call and fitted, each on its own grid, in one
    fit_gaussian_dips call. The levels must be a non-empty vector that
    util.as_reals accepts with lo=0 ("drive levels ...").
    """
    if source is None:
        source = PhotonPairSource()
    if profile.n != n:
        raise ValidationError(f"profile is for n={profile.n}, not n={n}")
    levels = as_reals(heater_drive_levels_rad, "drive levels", (None,), lo=0)
    if levels.size == 0:
        raise ValidationError("drive levels must not be empty")

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

    count = len(driven)
    arm_delays = count * levels[:, None] * _LAM_UM / TWO_PI
    d = default_delay_grid(arm_delays)
    scans = _routed_scans(
        profile,
        np.repeat(plan.theta[None], levels.size, axis=0),
        [(plan.input_pair, plan.output_pair)] * levels.size,
        [child_seed(seed, index) for index in range(levels.size)],
        d, source.overlap_at(d - arm_delays), 0.0,
    )
    centers = fit_gaussian_dips(d, scans)[1]
    total = float(centers[-1] - centers[0])
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
