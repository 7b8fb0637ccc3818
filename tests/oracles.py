"""Independent reference implementations used only by the test suite.

Everything here is deliberately written in the most direct way possible
(full-matrix embeddings, explicit loops, textbook formulas) so the package
code is checked against a second route, not against itself.
"""

from __future__ import annotations

import numpy as np


def cell_matrix(theta, phi):
    """Unit cell T(theta, phi) as the mesh module docstring writes it."""
    s, c = np.sin(theta / 2.0), np.cos(theta / 2.0)
    e = complex(np.cos(phi), np.sin(phi))
    pre = complex(np.cos(theta / 2.0), np.sin(theta / 2.0))
    return pre * np.array([[e * s, c], [e * c, -s]], dtype=complex)


def embed_two_mode(n, m, t):
    """Full n x n matrix acting with 2x2 block t on modes (m, m+1)."""
    full = np.eye(n, dtype=complex)
    full[m, m] = t[0, 0]
    full[m, m + 1] = t[0, 1]
    full[m + 1, m] = t[1, 0]
    full[m + 1, m + 1] = t[1, 1]
    return full


def slow_mesh_product(n, placed_cells, output_phases, cell_matrix_fn):
    """Compose a mesh by full-matrix multiplication, column by column.

    placed_cells: list of ((col, row), theta, phi), any order.
    cell_matrix_fn: maps (theta, phi) to the 2x2 cell matrix.
    """
    by_col = {}
    for (col, row), theta, phi in placed_cells:
        by_col.setdefault(col, []).append((row, theta, phi))
    u = np.eye(n, dtype=complex)
    for col in sorted(by_col):
        for row, theta, phi in sorted(by_col[col]):
            u = embed_two_mode(n, row, cell_matrix_fn(theta, phi)) @ u
    return np.diag(np.exp(1j * np.asarray(output_phases, dtype=float))) @ u


def gram_schmidt_unitary(n, seed):
    """Haar sample via Ginibre plus classical Gram-Schmidt (second route)."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 77]))
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q = np.zeros((n, n), dtype=complex)
    for j in range(n):
        v = z[:, j].copy()
        for k in range(j):
            v = v - (q[:, k].conj() @ v) * q[:, k]
        # re-orthogonalize once for numerical hygiene
        for k in range(j):
            v = v - (q[:, k].conj() @ v) * q[:, k]
        q[:, j] = v / np.linalg.norm(v)
    return q


def fock_two_photon_distribution(u, a, b, x):
    """Two-photon output distribution by explicit Fock-state evolution.

    Input photons in modes a and b (a != b) with pairwise overlap x in [0, 1].
    Returns {(c, d) with c <= d: probability}. The partially distinguishable
    case is the convex mix of the bosonic and fully classical statistics.
    """
    u = np.asarray(u, dtype=complex)
    ua, ub = u[:, a], u[:, b]
    # direct[c, d] = u[c, a] u[d, b]; its transpose is u[c, b] u[d, a]
    direct = np.outer(ua, ub)
    bosonic = np.abs(direct + direct.T) ** 2
    classical = np.abs(direct) ** 2 + np.abs(direct.T) ** 2
    # c == d: both photons leave by mode c
    np.fill_diagonal(bosonic, np.abs(np.sqrt(2.0) * ua * ub) ** 2)
    np.fill_diagonal(classical, (np.abs(ua) * np.abs(ub)) ** 2)
    mixed = (1.0 - x) * classical + x * bosonic
    rows, cols = np.triu_indices(len(u))
    return dict(zip(zip(rows.tolist(), cols.tolist()), mixed[rows, cols].tolist()))


def _coupler(kappa):
    c = np.cos(kappa)
    s = 1j * np.sin(kappa)
    return np.array([[c, s], [s, c]], dtype=complex)


def _noisy_cell(theta, phi, eps, jitter):
    """Physical unit cell: two imperfect 50:50 couplers around the theta
    shifter, preceded by the phi shifter, with per-run phase jitter."""
    inner = _coupler(np.pi / 4 + eps[0])
    outer = _coupler(np.pi / 4 + eps[1])
    p_theta = np.diag([np.exp(1j * (theta + jitter[0])), 1.0])
    p_phi = np.diag([np.exp(1j * (phi + jitter[1])), 1.0])
    return np.exp(-0.5j * np.pi) * (outer @ p_theta @ inner @ p_phi)


def per_cell_realized_transfer(profile, settings, seed):
    """Noisy lossy transfer built one cell at a time, as a 2x2 update of the
    cell's row pair per cell, from the same disorder and jitter draws as
    hardware.realized_transfer. Returns the raw complex matrix."""
    from meshsim.hardware import _JITTER_STREAM, _STATIC_STREAM
    from meshsim.mesh import cell_addresses, rows_in_column

    n = profile.n
    addrs = cell_addresses(n)
    static_rng = np.random.default_rng(
        np.random.SeedSequence([int(profile.disorder_seed), _STATIC_STREAM])
    )
    eps = static_rng.normal(0.0, profile.splitter_error_sigma_rad, (len(addrs), 2))
    jitter_rng = np.random.default_rng(
        np.random.SeedSequence([int(seed), _JITTER_STREAM])
    )
    jitter = jitter_rng.standard_normal((len(addrs), 2))
    jitter[:, 0] *= profile.theta_noise_sigma_rad
    jitter[:, 1] *= profile.phi_noise_sigma_rad
    cell_index = {addr: i for i, addr in enumerate(addrs)}

    facet_amp = 10.0 ** (-profile.coupling_loss_db_per_facet / 20.0)
    paths = np.broadcast_to(np.asarray(profile.path_length_cm, dtype=float), (n,))
    col_amp = 10.0 ** (-(profile.propagation_loss_db_per_cm * paths / n) / 20.0)

    out = np.eye(n, dtype=complex) * facet_amp
    for column in range(n):
        for row in rows_in_column(n, column):
            addr = (column, row)
            i = cell_index[addr]
            cell = settings.cells[addr]
            t = _noisy_cell(cell.theta, cell.phi, eps[i], jitter[i])
            out[row : row + 2, :] = t @ out[row : row + 2, :]
        out *= col_amp[:, None]
    out = np.exp(1j * settings.output_phases)[:, None] * out
    out *= facet_amp
    return out


def per_item_visibility_map(n, source, profile, seed=0, count_noise_sigma=0.0):
    """HOM visibility map scanned one routed cell at a time: per scan the
    routing plan, the default delay grid with its source envelope and
    baseline samples, the per-cell realized transfer, the count model and
    the dip fit, then the row and column groups by list comprehension, as
    quantum.hom_visibility_map defines them. Returns (visibilities,
    row_anova_p, column_anova_p)."""
    from meshsim import quantum
    from meshsim.mesh import cell_addresses
    from meshsim.util import child_seed

    cells = cell_addresses(n)
    visibilities = []
    for index, addr in enumerate(cells):
        scan_seed = child_seed(seed, index)
        plan = quantum.route_to_tbs(n, addr)
        settings = quantum.plan_to_settings(plan)
        m = per_cell_realized_transfer(profile, settings, scan_seed)
        d = quantum.default_delay_grid(0.0)
        a, b = plan.input_pair
        c, e = plan.output_pair
        q1 = m[c, a] * m[e, b]
        q2 = m[c, b] * m[e, a]
        classical = abs(q1) ** 2 + abs(q2) ** 2
        interference = 2.0 * (q1 * q2.conjugate()).real
        counts = classical + source.overlap_at(d, 0.0) * interference
        if count_noise_sigma > 0:
            rng = np.random.default_rng(
                np.random.SeedSequence([scan_seed, quantum._COUNT_STREAM])
            )
            counts = counts * (1.0 + count_noise_sigma * rng.standard_normal(d.size))
            counts = np.maximum(counts, 0.0)
        k = max(1, int(round(quantum.BASELINE_FRACTION * d.size)))
        far = np.argsort(np.abs(d))[-k:]
        normalized = counts / float(np.mean(counts[far]))
        visibilities.append(quantum.fit_gaussian_dip(d, normalized).visibility)
    visibilities = np.array(visibilities, dtype=float)
    rows = [
        visibilities[[i for i, addr in enumerate(cells) if addr.row == row]]
        for row in range(n - 1)
    ]
    columns = [
        visibilities[[i for i, addr in enumerate(cells) if addr.column == col]]
        for col in range(n)
    ]
    return visibilities, quantum._anova_p(rows), quantum._anova_p(columns)


def curve_fit_dip(delays_um, values):
    """Two-pass Gaussian dip fit by scipy's curve_fit, from the same
    starting guesses as quantum.fit_gaussian_dips: all four parameters
    first, then the off-dip baseline (mean of the samples beyond two fitted
    widths) held fixed while visibility, center and width are refitted.
    Returns pass two's (visibility clipped to [0, 1], center, width,
    baseline). Raises RuntimeError when curve_fit does not converge."""
    import warnings

    from scipy.optimize import OptimizeWarning, curve_fit

    def model(t, baseline, visibility, center, width):
        dip = np.exp(-0.5 * ((t - center) / width) ** 2)
        return baseline * (1.0 - visibility * dip)

    d = np.asarray(delays_um, dtype=float)
    v = np.asarray(values, dtype=float)
    span = float(np.ptp(d))
    i0 = int(np.argmin(v))
    b0 = float(np.mean(v[v >= np.median(v)]))
    if b0 <= 0:
        b0 = max(float(np.max(v)), 1e-9)
    v0 = min(max(1.0 - v[i0] / b0, 0.05), 1.0)
    half = b0 - 0.5 * (b0 - v[i0])
    below = d[v <= half]
    w0 = float(np.ptp(below)) / 2.355 if below.size >= 2 else span / 8.0
    w0 = max(w0, span / d.size)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OptimizeWarning)
        popt1, _ = curve_fit(model, d, v, p0=[b0, v0, float(d[i0]), w0], maxfev=20000)
        center1, width1 = float(popt1[2]), abs(float(popt1[3]))
        baseline = float(np.mean(v[np.abs(d - center1) > 2.0 * width1]))
        popt2, _ = curve_fit(
            lambda t, v2, c2, w2: model(t, baseline, v2, c2, w2),
            d,
            v,
            p0=[min(max(float(popt1[1]), 0.0), 1.0), center1, width1],
            maxfev=20000,
        )
    visibility, center, width = (float(x) for x in popt2)
    return min(max(visibility, 0.0), 1.0), center, abs(width), baseline


def dense_branch_solve(profile, calibration, target, max_rounds=500):
    """Drive solve by the textbook loop: rebuild the power-to-phase coupling
    (fitted alphas on the diagonal, the profile's crosstalk off it) and run a
    fresh dense np.linalg.solve on every 2*pi-branch round. Returns
    (powers_w, rounds, residual_rad) as hardware.solve_voltages defines them.
    """
    two_pi = 2.0 * np.pi
    order = profile.heater_ids
    t = np.asarray(target, dtype=float)
    phi0 = np.array([calibration.entries[h].phi0_rad for h in order])
    alpha = np.array([calibration.entries[h].alpha_rad_per_w for h in order])
    residual = np.mod(t - phi0, two_pi)
    for rounds in range(1, max_rounds + 1):
        coupling = np.array(profile.crosstalk.matrix, dtype=float)
        np.fill_diagonal(coupling, alpha)
        p = np.linalg.solve(coupling, residual)
        below = p < -1e-12
        if not np.any(below):
            break
        residual = residual + np.where(below, two_pi, 0.0)
    else:
        raise AssertionError(f"branches did not settle in {max_rounds} rounds")
    p = np.maximum(p, 0.0)
    error = phi0 + coupling @ p - t
    wrapped = np.pi - np.mod(np.pi - error, two_pi)
    return p, rounds, float(np.max(np.abs(wrapped)))


# the curve_fit restarts of grid_fringe_fit: at most this many passes, and
# the relative move of alpha at which it has settled
ORACLE_PASSES = 20
ORACLE_ALPHA_SETTLED = 1e-12


def grid_fringe_fit(sweep, resistance_ohm):
    """Fringe fit with the alpha grid scored one lstsq call per point: the
    FFT seed, a 101-point loop over alpha_init * [0.75, 1.25] keeping the
    first strictly smaller rms, and a curve_fit polish restarted until
    alpha settles. The 101 points are the fine reference that
    hardware.fit_phase_response's coarser screen must reach, not a copy of
    its grid. Returns a CalibrationEntry."""
    from scipy.optimize import curve_fit

    from meshsim.hardware import CalibrationEntry
    from meshsim.util import TWO_PI, FitDegeneracyError, wrap_phase

    v = np.asarray(sweep.voltages_v, dtype=float)
    signal = np.asarray(sweep.signal, dtype=float)
    if v.size < 8:
        raise FitDegeneracyError(
            f"{sweep.heater_id}: need >= 8 samples, got {v.size}"
        )
    power = v**2 / float(resistance_ohm)
    span = float(np.ptp(power))
    if span <= 0:
        raise FitDegeneracyError(f"{sweep.heater_id}: degenerate voltage grid")
    if float(np.ptp(signal)) < 1e-12:
        raise FitDegeneracyError(f"{sweep.heater_id}: constant signal")

    m = 8 * v.size
    p_uniform = np.linspace(power.min(), power.max(), m)
    resampled = np.interp(p_uniform, power, signal)
    spectrum = np.abs(np.fft.rfft(resampled - resampled.mean()))
    k = int(np.argmax(spectrum[1:])) + 1
    alpha_init = TWO_PI * k / (m * (span / (m - 1)))

    def linear_part(alpha):
        basis = np.column_stack(
            [np.ones_like(power), np.cos(alpha * power), np.sin(alpha * power)]
        )
        coef, _, _, _ = np.linalg.lstsq(basis, signal, rcond=None)
        resid = signal - basis @ coef
        return coef, float(np.sqrt(np.mean(resid**2)))

    best = None
    for alpha in alpha_init * np.linspace(0.75, 1.25, 101):
        coef, rms = linear_part(alpha)
        if best is None or rms < best[2]:
            best = (alpha, coef, rms)
    alpha, coef, _ = best

    def model(p, a, x, y, al):
        return a + x * np.cos(al * p) + y * np.sin(al * p)

    # one curve_fit pass can stop short of the optimum (1.25e-7 relative in
    # alpha on a recorded sweep), and a restart from its own parameters does
    # not move; so each restart starts from its alpha with the linear part
    # solved there, until alpha moves by at most ORACLE_ALPHA_SETTLED
    # relative (it can cycle by an ulp) or after ORACLE_PASSES passes
    try:
        for _ in range(ORACLE_PASSES):
            params, _ = curve_fit(
                model,
                power,
                signal,
                p0=(*coef, alpha),
                maxfev=20000,
                xtol=1e-15,
                ftol=1e-15,
                gtol=1e-15,
            )
            moved, alpha = abs(params[3] - alpha), params[3]
            if moved <= ORACLE_ALPHA_SETTLED * abs(alpha):
                break
            coef, _ = linear_part(alpha)
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


def _scalar_null(target, other, nulled_tol):
    at = abs(target)
    ao = abs(other)
    if at <= nulled_tol:
        return np.pi, 0.0
    if ao <= nulled_tol:
        return 0.0, 0.0
    theta = 2.0 * np.arctan2(ao, at)
    phi = float(np.angle(target) - np.angle(other))
    return theta, phi


def scalar_clements_decompose(target):
    """Clements decomposition of one unitary, one scalar nulling step and one
    cell_transfers(theta, wrap_phase(phi)) matrix per entry, then the left cells
    commuted through the diagonal and scheduled column by column, as
    compiler.clements_decompose defines them. Returns (settings,
    nulling_sequence)."""
    from meshsim.compiler import NULLED_TOL, NullingStep
    from meshsim.mesh import CellAddress, MeshSettings, cell_index, cell_transfers
    from meshsim.util import wrap_phase

    target = np.array(target, dtype=complex)
    n = target.shape[0]
    v = target.copy()
    right_ops, left_ops, nulling = [], [], []
    step = 0
    for diag in range(n - 1):
        for j in range(diag + 1):
            if diag % 2 == 0:
                r, c = n - 1 - j, diag - j
                theta, phi = _scalar_null(v[r, c], -v[r, c + 1], NULLED_TOL)
                t_dag = cell_transfers(theta, wrap_phase(phi)).conj().T
                v[:, c : c + 2] = v[:, c : c + 2] @ t_dag
                right_ops.append((c, theta, phi))
                nulling.append(NullingStep(step, r, c, "right", c))
            else:
                r, c = n - 1 - diag + j, j
                theta, phi = _scalar_null(v[r, c], v[r - 1, c], NULLED_TOL)
                t = cell_transfers(theta, wrap_phase(phi))
                v[r - 1 : r + 1, :] = t @ v[r - 1 : r + 1, :]
                left_ops.append((r - 1, theta, phi))
                nulling.append(NullingStep(step, r, c, "left", r - 1))
            v[r, c] = 0.0
            step += 1

    mu = np.angle(np.diagonal(v)).copy()
    absorbed = []
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

    next_free = [0] * n
    index = cell_index(n)
    thetas = np.empty(len(index))
    phis = np.empty(len(index))
    for mode, theta, phi in right_ops + absorbed:
        column = max(next_free[mode], next_free[mode + 1])
        i = index[CellAddress(column, mode)]
        thetas[i] = theta
        phis[i] = wrap_phase(phi)
        next_free[mode] = column + 1
        next_free[mode + 1] = column + 1
    settings = MeshSettings.from_phases(
        n, thetas, phis, output_phases=wrap_phase(mu)
    )
    return settings, tuple(nulling)


def neighbor_crosstalk(n, alpha, partner, neighbor):
    """Calibrated coupling matrix built one heater id at a time: alpha on
    the diagonal, partner * alpha[i] from heater i to the other heater of
    its cell, and neighbor * alpha[i] to both heaters of each diagonally
    adjacent cell."""
    from meshsim.hardware import HEATER_KINDS, heater_id, heater_index
    from meshsim.mesh import cell_addresses

    index = heater_index(n)
    matrix = np.diag(np.asarray(alpha, dtype=float))
    for addr in cell_addresses(n):
        for kind in HEATER_KINDS:
            i = index[heater_id(addr.column, addr.row, kind)]
            other = "phi" if kind == "theta" else "theta"
            matrix[i, index[heater_id(addr.column, addr.row, other)]] = (
                partner * alpha[i]
            )
            for dc in (-1, 1):
                for dr in (-1, 1):
                    for nk in HEATER_KINDS:
                        j = index.get(heater_id(addr.column + dc, addr.row + dr, nk))
                        if j is not None:
                            matrix[i, j] = neighbor * alpha[i]
    return matrix
