import dataclasses
import math
import sys
import threading
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from meshsim import experiments, hardware, mesh, quantum, util
from meshsim.quantum import (
    BAR,
    CROSS,
    HALF,
    PhotonPairSource,
    default_delay_grid,
    diagonal_arm_heaters,
    diagonal_delay_sweep,
    diagonal_interferometer_plan,
    fit_gaussian_dip,
    fit_gaussian_dips,
    hom_scan,
    hom_visibility_map,
    plan_to_settings,
    route_to_tbs,
    two_photon_coincidence,
    two_photon_output_distribution,
    verify_routing,
)
from meshsim.util import TWO_PI, MeshsimError, ValidationError, child_seed

from oracles import (
    cell_matrix,
    curve_fit_dip,
    embed_two_mode,
    fock_two_photon_distribution,
    gram_schmidt_unitary,
    per_item_visibility_map,
)


def loss_only_profile(n):
    return dataclasses.replace(
        hardware.ideal_profile(n),
        name="loss-only",
        coupling_loss_db_per_facet=0.9,
        propagation_loss_db_per_cm=0.07,
        path_length_cm=15.7,
    )


def test_source_fields_and_coherence_length():
    src = PhotonPairSource()
    lam_um = 1562.0 * 1e-3
    dlam_um = 12.0 * 1e-3
    expected = math.sqrt(2.0 * math.log(2.0)) / math.pi * lam_um**2 / dlam_um
    assert abs(quantum.COHERENCE_SIGMA_UM - expected) < 1e-12
    assert abs(quantum.COHERENCE_SIGMA_UM - 76.2006487) < 1e-6
    assert abs(src.mutual_overlap_at_zero_delay - 1.0 / 1.1) < 1e-15


def test_source_validation():
    with pytest.raises(ValidationError):
        PhotonPairSource(mutual_overlap_at_zero_delay=1.2)


@pytest.mark.parametrize("field", ["center_wavelength_nm", "bandwidth_fwhm_nm"])
def test_source_wavelength_and_bandwidth_are_fixed(field):
    with pytest.raises(TypeError):
        PhotonPairSource(**{field: float("inf")})


def test_fifty_fifty_trivials():
    u = mesh.mesh_unitary(plan_to_settings(route_to_tbs(2, (0, 0))))
    assert two_photon_coincidence(u, (0, 1), (0, 1), 1.0) == pytest.approx(0.0, abs=1e-12)
    assert two_photon_coincidence(u, (0, 1), (0, 1), 0.0) == pytest.approx(0.5, abs=1e-12)


def test_two_photon_input_validation():
    u = np.eye(3)
    with pytest.raises(ValidationError):
        two_photon_coincidence(u, (1, 1), (0, 2), 0.5)
    with pytest.raises(ValidationError):
        two_photon_coincidence(u, (0, 1), (2, 2), 0.5)
    with pytest.raises(ValidationError):
        two_photon_coincidence(u, (0, 3), (0, 1), 0.5)
    with pytest.raises(ValidationError):
        two_photon_coincidence(u, (0, 1), (0, 2), 1.5)
    with pytest.raises(ValidationError):
        two_photon_coincidence(u, (0.5, 1), (0, 2), 0.5)
    with pytest.raises(ValidationError):
        two_photon_coincidence(u, (0, 1, 2), (0, 2), 0.5)
    for malformed in ((1,), ("a", 1), None, (np.inf, 1), (0, True)):
        with pytest.raises(ValidationError):
            two_photon_coincidence(u, malformed, (0, 2), 0.5)
        with pytest.raises(ValidationError):
            two_photon_coincidence(u, (0, 2), malformed, 0.5)


def test_two_photon_matches_fock_oracle():
    for n in range(2, 7):
        for k in range(10):
            u = gram_schmidt_unitary(n, seed=1000 * n + k)
            for x in (0.0, 0.37, 1.0):
                dist = two_photon_output_distribution(u, (0, n - 1), x)
                oracle = fock_two_photon_distribution(u, 0, n - 1, x)
                assert dist.keys() == oracle.keys()
                for key, value in oracle.items():
                    assert abs(dist[key] - value) < 1e-12


def test_two_photon_probability_conservation():
    for n in (2, 4, 6):
        u = gram_schmidt_unitary(n, seed=n)
        for x in (0.0, 1.0):
            total = sum(two_photon_output_distribution(u, (0, 1), x).values())
            assert abs(total - 1.0) < 1e-12


def test_pair_terms_equal_scalar_complex_arithmetic_at_n20():
    # the stacked pair terms of the routed transfers of an n=20 map, at the
    # planned and at 40 random sets of mode pairs, are the bits of scalar
    # complex * and abs() ** 2 (x * x in place of pow differs on 1 in 1,000)
    n = 20
    theta, planned = quantum._routes(n)
    transfers = hardware.realized_transfers(
        hardware.calibrated_profile(n, disorder_seed=3), theta, np.zeros_like(theta),
        np.zeros((len(theta), n)), range(len(theta)),
    )
    rng = np.random.default_rng(np.random.SeedSequence([20, 2]))
    for pairs in [planned] + [
        np.array([rng.permutation(n)[:4].reshape(2, 2) for _ in transfers])
        for _ in range(40)
    ]:
        classical, interference = quantum._pair_terms(transfers, pairs)
        expected = []
        for m, ((a, b), (c, d)) in zip(transfers, pairs.tolist()):
            q1 = m[c, a] * m[d, b]
            q2 = m[c, b] * m[d, a]
            expected.append(
                (abs(q1) ** 2 + abs(q2) ** 2, 2.0 * (q1 * q2.conjugate()).real)
            )
        got = zip(classical.tolist(), interference.tolist())
        assert [_row_hex(row) for row in got] == [_row_hex(row) for row in expected]


def test_two_photon_accepts_lossy_transfer():
    profile = loss_only_profile(4)
    settings = plan_to_settings(route_to_tbs(4, (1, 1)))
    transfer = hardware.realized_transfer(profile, settings)
    total = sum(two_photon_output_distribution(transfer, (0, 3), 1.0).values())
    assert total < 1.0


def test_route_trivial_n2():
    plan = route_to_tbs(2, (0, 0))
    assert plan.input_pair == (0, 1)
    assert plan.output_pair == (0, 1)
    assert plan.theta[mesh.cell_index(2)[mesh.CellAddress(0, 0)]] == HALF
    verify_routing(plan, strict=True)


def test_route_first_column_uses_top_inputs():
    plan = route_to_tbs(20, (0, 0))
    assert plan.input_pair == (0, 1)


def test_route_all_cells_verify_strict():
    n = 20
    for addr in mesh.cell_addresses(n):
        plan = route_to_tbs(n, addr)
        halves = [a for a, t in zip(mesh.cell_addresses(n), plan.theta) if t == HALF]
        assert halves == [addr]
        verify_routing(plan, strict=True)


def test_route_rejects_bad_targets():
    with pytest.raises(ValidationError):
        route_to_tbs(20, (0, 1))  # parity mismatch
    with pytest.raises(ValidationError):
        route_to_tbs(20, (5, 19))
    with pytest.raises(ValidationError):
        route_to_tbs(20, (20, 0))
    # neither is truncated to the cell (1, 1)
    for target in ((1.7, 1.2), (True, 1)):
        with pytest.raises(ValidationError, match="integer"):
            route_to_tbs(5, target)


def _expected_modes_by_stage(plan, start_mode):
    """Mode sets before each column and at the output, by trajectory walk.

    Before the target column the photon occupies one mode; from the target
    on, both splitter branches are live.
    """
    n = plan.n
    index = mesh.cell_index(n)
    column_target = plan.target.column
    stages = []
    mode = start_mode
    for column in range(column_target):
        stages.append({mode})
        row = mode if column % 2 == mode % 2 else mode - 1
        if 0 <= row <= n - 2:
            state = plan.theta[index[mesh.CellAddress(column, row)]]
            if state == CROSS:
                mode = row + 1 if mode == row else row
    branches = {plan.target.row, plan.target.row + 1}
    for column in range(column_target, n):
        stages.append(set(branches))
        nxt = set()
        for m in branches:
            row = m if column % 2 == m % 2 else m - 1
            if 0 <= row <= n - 2:
                state = plan.theta[index[mesh.CellAddress(column, row)]]
                if state == CROSS:
                    nxt.add(row + 1 if m == row else row)
                else:
                    nxt.add(m)
            else:
                nxt.add(m)
        branches = nxt
    stages.append(set(branches))
    return stages


@pytest.mark.parametrize("n", [4, 8])
def test_routing_power_isolation_literal(n):
    # inject classical light into each plan input and watch it column by
    # column: power must stay on the traced trajectory modes only
    for addr in mesh.cell_addresses(n):
        plan = route_to_tbs(n, addr)
        settings = plan_to_settings(plan)
        for start in plan.input_pair:
            stages = _expected_modes_by_stage(plan, start)
            amp = np.zeros(n, dtype=complex)
            amp[start] = 1.0
            for column in range(n):
                allowed = stages[column]
                stray = sum(
                    abs(amp[m]) ** 2 for m in range(n) if m not in allowed
                )
                assert stray < 1e-24
                for row in mesh.rows_in_column(n, column):
                    cell = settings.cells[mesh.CellAddress(column, row)]
                    t = embed_two_mode(n, row, cell_matrix(cell.theta, cell.phi))
                    amp = t @ amp
            final = {m for m in range(n) if abs(amp[m]) ** 2 > 1e-24}
            assert final <= set(plan.output_pair)
            assert abs(np.sum(np.abs(amp) ** 2) - 1.0) < 1e-12


def test_verify_routing_detects_tampering():
    plan = route_to_tbs(8, (3, 3))
    broken = plan.theta.copy()
    # disable one of the output crosses
    broken[mesh.cell_index(8)[mesh.CellAddress(4, 2)]] = BAR
    bad = quantum.RoutingPlan(
        n=plan.n,
        target=plan.target,
        input_pair=plan.input_pair,
        output_pair=plan.output_pair,
        theta=broken,
    )
    with pytest.raises(MeshsimError):
        verify_routing(bad, strict=True)


def _plan_with(plan, **changes):
    fields = dict(
        n=plan.n, target=plan.target, input_pair=plan.input_pair,
        output_pair=plan.output_pair, theta=plan.theta,
    )
    return quantum.RoutingPlan(**{**fields, **changes})


def _theta_with(plan, values):
    theta = plan.theta.copy()
    for addr, value in values.items():
        theta[mesh.cell_index(plan.n)[addr]] = value
    return theta


@pytest.mark.parametrize("case", [
    "short theta", "unknown theta", "nan theta", "two halves", "half off target",
    "input out of range", "output out of range", "fractional mode",
    "one mode", "text mode", "no pair", "infinite mode",
])
def test_routing_plan_checks_itself_at_construction(case):
    plan = route_to_tbs(6, (2, 2))
    off = mesh.CellAddress(0, 0)
    changes = {
        "short theta": dict(theta=plan.theta[:-1]),
        "unknown theta": dict(theta=_theta_with(plan, {off: 1.0})),
        "nan theta": dict(theta=_theta_with(plan, {off: np.nan})),
        "two halves": dict(theta=_theta_with(plan, {off: HALF})),
        "half off target": dict(theta=_theta_with(plan, {off: HALF, plan.target: BAR})),
        "input out of range": dict(input_pair=(1, 6)),
        "output out of range": dict(output_pair=(-1, 3)),
        "fractional mode": dict(input_pair=(0.5, 3)),
        "one mode": dict(input_pair=(1,)),
        "text mode": dict(output_pair=("a", 1)),
        "no pair": dict(input_pair=None),
        "infinite mode": dict(output_pair=(np.inf, 1)),
    }[case]
    with pytest.raises(ValidationError):
        _plan_with(plan, **changes)


def test_routing_plan_keeps_a_read_only_theta_copy():
    plan = route_to_tbs(6, (2, 2))
    theta = plan.theta.copy()
    copy = _plan_with(plan, theta=theta)
    theta[0] = CROSS
    assert np.array_equal(copy.theta, plan.theta)
    with pytest.raises(ValueError):
        plan.theta[0] = CROSS
    assert set(plan.theta.tolist()) == {BAR, CROSS, HALF}
    # mode pairs are stored as the validated integer tuples
    floats = _plan_with(plan, input_pair=np.array([1.0, 4.0]))
    assert floats.input_pair == (1, 4) and type(floats.input_pair[0]) is int
    assert (BAR, CROSS, HALF) == (math.pi, 0.0, math.pi / 2.0)


def test_verify_routing_strictness_modes():
    plan = diagonal_interferometer_plan(6)
    with pytest.raises(MeshsimError):
        verify_routing(plan, strict=True)  # shares the first cell
    verify_routing(plan, strict=False)


def test_plan_settings_give_half_splitting():
    plan = route_to_tbs(6, (3, 1))
    u = mesh.mesh_unitary(plan_to_settings(plan)).elements
    a, b = plan.input_pair
    c, d = plan.output_pair
    for pair in [(c, a), (c, b), (d, a), (d, b)]:
        assert abs(abs(u[pair]) ** 2 - 0.5) < 1e-12


def test_default_delay_grid_shape():
    grid = default_delay_grid()
    assert grid.size == 59
    assert np.all(np.diff(grid) > 0)
    assert np.allclose(grid, -grid[::-1])
    shifted = default_delay_grid(84.0)
    assert np.allclose(shifted, grid + 84.0)


def test_fit_recovers_noiseless_dip():
    grid = default_delay_grid()
    truth = 1.0 * (1.0 - 0.98 * np.exp(-0.5 * ((grid - 3.0) / 76.0) ** 2))
    fit = fit_gaussian_dip(grid, truth)
    assert abs(fit.visibility - 0.98) < 1e-6
    assert abs(fit.center_um - 3.0) < 1e-3
    assert abs(fit.width_um - 76.0) < 1e-3
    assert fit.baseline > 0
    assert not fit.uncertain


def test_fit_flat_data_flagged_uncertain():
    grid = default_delay_grid()
    fit = fit_gaussian_dip(grid, np.full(grid.size, 0.7))
    assert fit.visibility == 0.0
    assert fit.uncertain


@pytest.mark.parametrize("seed", [71, 195, 1171])
def test_dip_fit_on_flat_noise_with_degenerate_covariance_is_uncertain(seed):
    # flat noise fitted by a dip narrower than the gap it sits in: the
    # covariance is not finite, and the clipped V = 1 must not pass as certain
    grid = default_delay_grid()
    values = 1 + 0.02 * np.random.default_rng(seed).standard_normal(grid.size)
    fit = fit_gaussian_dip(grid, values)
    assert fit.uncertain


def test_fit_validation_errors():
    grid = default_delay_grid()
    with pytest.raises(ValidationError, match="needs >= 10 samples"):
        fit_gaussian_dip(grid[:5], np.ones(5))
    with pytest.raises(ValidationError, match="all equal"):
        fit_gaussian_dip(np.zeros(12), np.ones(12))
    with pytest.raises(ValidationError, match=rf"^values must have shape \({grid.size},\)"):
        fit_gaussian_dip(grid, np.ones(grid.size - 1))
    bad = np.ones(grid.size)
    bad[3] = np.nan
    with pytest.raises(ValidationError, match="^values must be finite"):
        fit_gaussian_dip(grid, bad)
    # a per-scan grid must have one row of m delays per scan
    stack = np.ones((3, grid.size))
    for delays in (np.stack([grid] * 2), np.stack([grid] * 3)[:, 1:], grid[None]):
        with pytest.raises(ValidationError, match="^delays must have shape"):
            fit_gaussian_dips(delays, stack)
    with pytest.raises(ValidationError, match="all equal"):
        fit_gaussian_dips(np.stack([grid, np.zeros(grid.size), grid]), stack)


def test_fit_baseline_undefined_without_off_dip_points():
    # every sample within two widths of the dip center
    grid = np.linspace(-50.0, 50.0, 21)
    values = 1.0 - 0.9 * np.exp(-0.5 * (grid / 76.0) ** 2)
    with pytest.raises(ValidationError):
        fit_gaussian_dip(grid, values)


def test_fit_count_noise_bias_small():
    grid = default_delay_grid()
    truth = 1.0 - 0.98 * np.exp(-0.5 * (grid / 76.2) ** 2)
    fitted = []
    for trial in range(100):
        rng = np.random.default_rng(np.random.SeedSequence([trial, 77]))
        noisy = truth * (1.0 + 0.05 * rng.standard_normal(grid.size))
        fitted.append(fit_gaussian_dip(grid, noisy).visibility)
    assert abs(float(np.mean(fitted)) - 0.98) < 0.01


def test_dip_fit_warning_suppression_is_thread_safe():
    # one low sample on a flat scan: the fitted dip collapses between the
    # neighbouring samples, so the covariance is degenerate; the fit emits
    # no warning, and every repeat on 8 threads must agree bit for bit
    grid = np.arange(12.0)
    values = np.ones(12)
    values[5] = 0.2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        expected = fit_gaussian_dip(grid, values)
    results, errors = [], []
    deadline = time.monotonic() + 1.5

    def worker():
        try:
            while time.monotonic() < deadline:
                results.append(fit_gaussian_dip(grid, values))
        except Exception as exc:  # collected and reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            filters = list(warnings.filters)
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            # an interleaved suppression block restores a stale filter list
            # and leaves "ignore" behind for the whole process
            leaked = list(warnings.filters) != filters
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert not leaked
    assert results
    assert all(fit == expected for fit in results)


def _row_hex(values):
    return tuple(value.hex() if isinstance(value, float) else value for value in values)


def _fit_hex(fit):
    return _row_hex(dataclasses.astuple(fit))


def _fits_hex(fits):
    """_fit_hex of each scan's row of the fit_gaussian_dips arrays."""
    return [_row_hex(row) for row in zip(*(column.tolist() for column in fits))]


def _at_offset(values, offset):
    """A copy of `values` starting `offset` bytes into a fresh buffer."""
    size = 8 * values.size
    copy = np.zeros(size + 64, dtype=np.uint8)[offset : offset + size].view(np.float64)
    copy = copy.reshape(values.shape)
    copy[:] = values
    return copy


def _map_scans(n, disorder_seed, count_noise_sigma):
    """The normalized scans of an n-mode calibrated hom_visibility_map, in
    cell order, with their delay grid."""
    src = PhotonPairSource(mutual_overlap_at_zero_delay=0.98)
    profile = hardware.calibrated_profile(n, disorder_seed=disorder_seed)
    d = default_delay_grid()
    theta, pairs = quantum._routes(n)
    seeds = [child_seed(disorder_seed, index) for index in range(len(theta))]
    return d, quantum._routed_scans(
        profile, theta, pairs, seeds, d, src.overlap_at(d, 0.0), count_noise_sigma
    )


def _degenerate_scans():
    # the default grid with one half-height sample at its center, and the
    # 12-sample scan with one low sample: both fit a dip narrower than the
    # sample spacing
    grid = default_delay_grid()
    values = np.ones(grid.size)
    values[29] = 0.5
    short = np.ones(12)
    short[5] = 0.2
    return [(grid, values), (np.arange(12.0), short)]


@pytest.mark.parametrize("case", range(4))
def test_dip_fit_is_pure_across_memory_offsets(case):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if case < 2:
            d, values = _degenerate_scans()[case]
        else:
            d, scans = _map_scans(20, 3, (0.0, 0.02)[case - 2])
            values = scans[77]
        expected = _fit_hex(fit_gaussian_dip(d, values))
        for offset in range(0, 64, 8):
            got = fit_gaussian_dip(_at_offset(d, offset), _at_offset(values, offset))
            assert _fit_hex(got) == expected, offset
        stacked = fit_gaussian_dips(d, np.stack([values] * 5))
        assert set(_fits_hex(stacked)) == {expected}


@pytest.mark.parametrize("count_noise_sigma", [0.0, 0.02])
def test_dip_fit_is_batch_invariant_on_map_scans(count_noise_sigma):
    d, scans = _map_scans(20, 3, count_noise_sigma)
    rng = np.random.default_rng(np.random.SeedSequence([5, 1]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        alone = [_fit_hex(fit_gaussian_dip(d, scan)) for scan in scans]
        for size in (1, 7, 190):
            picks = rng.choice(len(scans), size, replace=False)
            batch = fit_gaussian_dips(d, scans[picks])
            assert _fits_hex(batch) == [alone[i] for i in picks]


def test_dip_fit_on_per_scan_grids_equals_each_scans_fit():
    # the delay sweep's stack: n=20 scans on seven grids, each centered on
    # its arm delay, one row flattened, fitted in one call at byte offsets
    n = 20
    profile = hardware.calibrated_profile(n, disorder_seed=1)
    plan = diagonal_interferometer_plan(n)
    lam_um = quantum.DEFAULT_CENTER_WAVELENGTH_NM * 1e-3
    scans = [
        hom_scan(
            plan, PhotonPairSource(), profile, seed=index,
            arm_delay_um=2 * (n - 2) * level * lam_um / TWO_PI,
        )
        for index, level in enumerate([0.0, 0.5, 1.5, 2.5, 4.0, 6.0, 9.4])
    ]
    d = np.array([scan.delays_um for scan in scans])
    values = np.array([scan.coincidences for scan in scans])
    values[3] = 0.8
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        alone = [_fit_hex(fit_gaussian_dip(row, scan)) for row, scan in zip(d, values)]
        for offset in range(0, 64, 8):
            got = fit_gaussian_dips(_at_offset(d, offset), _at_offset(values, offset))
            assert _fits_hex(got) == alone, offset
    # the flattened row took the flat-scan branch: V = 0, uncertain
    assert alone[3][0] == (0.0).hex() and alone[3][5] is True


def test_flat_scans_fill_their_rows_of_a_stack():
    # a flat row is zero visibility at the mean delay, a quarter of the span
    # wide, on the scan's mean, with an infinite sigma and uncertain; the dip
    # between two flat rows fits as it does alone
    d = default_delay_grid()
    flat = np.full(d.size, 0.7)
    dip = 1.0 - 0.9 * np.exp(-0.5 * (d / 50.0) ** 2)
    fits = fit_gaussian_dips(d, np.stack([flat, dip, 2.0 * flat]))
    assert [column.shape for column in fits] == [(3,)] * 6
    assert fits[5].dtype == bool
    center, width = float(np.mean(d)), float(np.ptp(d)) / 4.0
    assert _fits_hex(fits) == [
        _row_hex((0.0, center, width, float(np.mean(flat)), math.inf, True)),
        _fit_hex(fit_gaussian_dip(d, dip)),
        _row_hex((0.0, center, width, float(np.mean(2.0 * flat)), math.inf, True)),
    ]


def test_dip_fit_edge_stacks_warn_nothing():
    # an empty stack, on one grid or on a grid per scan, an all-flat stack
    # and a stack that mixes flat and dip scans; each row is that scan's fit
    # alone, and the all-flat stack fits nothing
    d = default_delay_grid()
    flat = np.full(d.size, 0.7)
    dip = 1.0 - 0.9 * np.exp(-0.5 * (d / 50.0) ** 2)
    mixed = np.stack([flat, dip, 1.1 * dip, 2.0 * flat])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for grid in (d, np.empty((0, d.size))):
            empty = fit_gaussian_dips(grid, np.empty((0, d.size)))
            assert [column.shape for column in empty] == [(0,)] * 6
            assert empty[5].dtype == bool
        alone = [_fit_hex(fit_gaussian_dip(d, scan)) for scan in mixed]
        assert _fits_hex(fit_gaussian_dips(d, mixed)) == alone
        assert _fits_hex(fit_gaussian_dips(d, mixed[[0, 3]])) == [alone[0], alone[3]]


def test_dip_map_takes_one_fit_pass(monkeypatch):
    # the 190 scans of an n=20 map are fitted in one _fit_dips call, and an
    # all-flat stack makes none
    shapes = []
    fit = quantum._fit_dips

    def counted_fit(t, y):
        shapes.append(y.shape)
        return fit(t, y)

    monkeypatch.setattr(quantum, "_fit_dips", counted_fit)
    profile = hardware.calibrated_profile(20, disorder_seed=1)
    hom_visibility_map(20, PhotonPairSource(), profile, seed=1, count_noise_sigma=0.02)
    assert shapes == [(default_delay_grid().size, 190)]
    shapes.clear()
    fit_gaussian_dips(default_delay_grid(), np.ones((3, default_delay_grid().size)))
    assert shapes == []


def test_dip_fit_center_stays_on_the_scan():
    # on flat noise the projected fit could lower the SSR without bound by
    # moving a huge dip far off the scan and fitting the noise with its
    # flank, which clipped the visibility to 1 and passed as certain
    d = default_delay_grid()
    for seed in range(40):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
        values = 1.0 + 0.02 * rng.standard_normal(d.size)
        try:
            fit = fit_gaussian_dip(d, values)
        except ValidationError:
            continue
        assert d[0] <= fit.center_um <= d[-1], seed


def _core_dip_case():
    # the n=20 map scans, each on its own shifted copy of the delay grid,
    # as pass one of the dip fit starts them
    d, scans = _map_scans(20, 3, 0.02)
    shift = np.random.default_rng(np.random.SeedSequence([5, 3])).uniform(-40, 40, len(scans))
    t = (d[None] + shift[:, None]).T.copy()
    k = t.shape[1]
    start = (t[np.argmin(scans, axis=1), np.arange(k)], np.full(k, 40.0))
    lo = np.stack([t.min(0), np.full(k, -np.inf)])
    hi = np.stack([t.max(0), np.full(k, np.inf)])
    return quantum._dip_model, t, scans.T.copy(), start, lo, hi, quantum._FIT_STEP_TOL


def _core_fringe_case():
    # every heater of an n=20 device, each on its own power grid, from 2%
    # off its true alpha
    prof = hardware.calibrated_profile(20, disorder_seed=5)
    v, signal = hardware._sweeps(prof, np.arange(len(prof.heater_ids)), 16, 5, 0.05)
    p = (v**2 / prof.resistance_ohm[:, None]).T.copy()
    start = (1.02 * prof.alpha_rad_per_w,)
    return hardware._fringe_model, p, signal.T.copy(), start, 0.0, np.inf, hardware._FIT_STEP_TOL


@pytest.mark.parametrize("case", [_core_dip_case, _core_fringe_case])
def test_fit_core_fits_a_column_to_the_same_bits_in_any_stack(case):
    # every operation of util.variable_projection acts on each column alone,
    # so a column fits to the same bits alone, in a stack of 7 and in the
    # full n=20 stack, for both models
    model, x, y, start, lo, hi, tol = case()
    k = y.shape[1]

    def fit(cols):
        bounds = [np.broadcast_to(b, (len(start), k))[:, cols] for b in (lo, hi)]
        out = util.variable_projection(
            model, x[:, cols], y[:, cols], [s[cols] for s in start], *bounds,
            offset=True, tol=tol,
        )
        columns = [part.reshape(-1, len(cols)) for part in out]
        return [b"".join(part[:, i].tobytes() for part in columns) for i in range(len(cols))]

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        full = fit(np.arange(k))
        picks = np.random.default_rng(np.random.SeedSequence([5, 4])).choice(k, 7, replace=False)
        assert fit(picks) == [full[i] for i in picks]
        assert [fit(np.array([i]))[0] for i in range(k)] == full


def test_dip_fit_stopped_at_the_cap_is_uncertain(monkeypatch):
    # a pass that stops at the iteration cap has not reached its optimum, so
    # its scan is flagged however plausible its visibility
    d = default_delay_grid()
    values = 1.0 - 0.9 * np.exp(-0.5 * ((d - 7.0) / 55.0) ** 2)
    assert not fit_gaussian_dip(d, values).uncertain
    monkeypatch.setattr(util, "FIT_ITERATIONS", 1)
    stalled = fit_gaussian_dip(d, values)
    assert stalled.uncertain
    assert stalled.visibility == pytest.approx(0.9, abs=0.05)


def _dip_ssr(d, values, visibility, center, width, baseline):
    model = baseline * (1.0 - visibility * np.exp(-0.5 * ((d - center) / width) ** 2))
    return float(np.sum((values - model) ** 2))


@pytest.mark.parametrize("count_noise_sigma", [0.0, 0.02, 0.05])
def test_dip_fit_reaches_the_curve_fit_optimum(count_noise_sigma):
    # pass two of the projected fit ends at least as low as curve_fit's,
    # and on the same visibility
    d, scans = _map_scans(20, 3, count_noise_sigma)
    fits = fit_gaussian_dips(d, scans)
    for scan, fitted in zip(scans, zip(*fits[:4])):
        visibility, center, width, baseline = curve_fit_dip(d, scan)
        ours = _dip_ssr(d, scan, *fitted)
        theirs = _dip_ssr(d, scan, visibility, center, width, baseline)
        assert ours <= theirs * (1.0 + 1e-9)
        assert abs(fitted[0] - visibility) <= 1e-6


@settings(max_examples=60, deadline=None)
@given(
    st.floats(0.05, 1.0),
    st.floats(-100.0, 100.0),
    st.floats(20.0, 150.0),
    st.floats(0.5, 2.0),
)
def test_dip_fit_recovers_noiseless_dip_property(visibility, center, width, baseline):
    # samples within two widths and from nine widths out, where the dip is
    # below rounding, so the off-dip baseline is exact
    d = center + width * np.concatenate([
        np.linspace(-12.0, -9.0, 8),
        np.linspace(-1.9, 1.9, 29),
        np.linspace(9.0, 12.0, 8),
    ])

    def dip(v):
        return baseline * (1.0 - v * np.exp(-0.5 * ((d - center) / width) ** 2))

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = fit_gaussian_dip(d, dip(visibility))
        batch = fit_gaussian_dips(d, np.stack([dip(0.5), dip(visibility), dip(0.9)]))
    assert abs(fit.visibility - visibility) <= 1e-8
    assert abs(fit.center_um - center) <= 1e-8 * width
    assert abs(fit.width_um - width) <= 1e-8 * width
    assert abs(fit.baseline - baseline) <= 1e-8 * baseline
    assert not fit.uncertain
    assert _fits_hex(batch)[1] == _fit_hex(fit)


def test_hom_scan_ideal_dip():
    n = 6
    profile = hardware.ideal_profile(n)
    plan = route_to_tbs(n, (2, 2))
    scan = hom_scan(plan, PhotonPairSource(mutual_overlap_at_zero_delay=1.0), profile)
    assert scan.fit.visibility == pytest.approx(1.0, abs=1e-9)
    assert float(np.min(scan.coincidences)) < 1e-12
    assert abs(scan.fit.center_um) < 1e-4
    assert scan.fit.baseline == pytest.approx(1.0, abs=1e-6)


def test_hom_scan_matches_fock_oracle_on_lossy_transfer():
    n = 6
    profile = hardware.calibrated_profile(n, disorder_seed=4)
    plan = route_to_tbs(n, (1, 3))
    source = PhotonPairSource(mutual_overlap_at_zero_delay=0.95)
    scan = hom_scan(plan, source, profile, seed=11)
    u = hardware.realized_transfer(profile, plan_to_settings(plan), seed=11)
    u = u.elements
    assert np.sum(np.abs(u) ** 2) < n - 0.5  # lossy
    a, b = plan.input_pair
    key = tuple(sorted(plan.output_pair))
    raw = np.array([
        fock_two_photon_distribution(u, a, b, x)[key]
        for x in source.overlap_at(scan.delays_um)
    ])
    # the scan divides its raw coincidences by the mean of the samples
    # farthest from zero delay
    k = max(1, round(quantum.BASELINE_FRACTION * raw.size))
    base = np.mean(raw[np.argsort(np.abs(scan.delays_um))[-k:]])
    assert np.max(np.abs(scan.coincidences * base - raw)) < 1e-12


def test_hom_scan_schmidt_limited_visibility():
    n = 6
    profile = hardware.ideal_profile(n)
    plan = route_to_tbs(n, (2, 2))
    scan = hom_scan(plan, PhotonPairSource(), profile)
    assert abs(scan.fit.visibility - 1.0 / 1.1) < 1e-9
    scan98 = hom_scan(
        plan, PhotonPairSource(mutual_overlap_at_zero_delay=0.98), profile
    )
    assert abs(scan98.fit.visibility - 0.98) < 1e-8
    assert not scan98.fit.uncertain


def test_hom_scan_symmetric_in_delay():
    n = 6
    profile = hardware.ideal_profile(n)
    plan = route_to_tbs(n, (3, 1))
    scan = hom_scan(plan, PhotonPairSource(), profile)
    assert np.allclose(scan.coincidences, scan.coincidences[::-1], atol=1e-14)


def test_hom_scan_uniform_loss_leaves_visibility():
    n = 6
    plan = route_to_tbs(n, (2, 0))
    src = PhotonPairSource(mutual_overlap_at_zero_delay=0.98)
    clean = hom_scan(plan, src, hardware.ideal_profile(n))
    lossy = hom_scan(plan, src, loss_only_profile(n))
    assert abs(clean.fit.visibility - lossy.fit.visibility) < 1e-12
    assert np.allclose(clean.coincidences, lossy.coincidences, atol=1e-12)


def test_hom_scan_visibility_drops_with_splitter_error():
    n = 2
    plan = route_to_tbs(n, (0, 0))
    src = PhotonPairSource(mutual_overlap_at_zero_delay=1.0)
    sigmas = [0.0, 0.05, 0.1, 0.2, 0.4]
    values = []
    for sigma in sigmas:
        profile = dataclasses.replace(
            hardware.ideal_profile(n),
            name=f"eps-{sigma}",
            splitter_error_sigma_rad=sigma,
            disorder_seed=5,
        )
        values.append(hom_scan(plan, src, profile).fit.visibility)
    assert values[0] == pytest.approx(1.0, abs=1e-9)
    assert all(a > b for a, b in zip(values[1:], values[2:]))
    assert values[-1] < values[1]


def test_hom_scan_seeding_and_noise():
    n = 4
    profile = hardware.calibrated_profile(n)
    plan = route_to_tbs(n, (1, 1))
    src = PhotonPairSource()
    a = hom_scan(plan, src, profile, seed=11, count_noise_sigma=0.02)
    b = hom_scan(plan, src, profile, seed=11, count_noise_sigma=0.02)
    c = hom_scan(plan, src, profile, seed=12, count_noise_sigma=0.02)
    assert np.array_equal(a.coincidences, b.coincidences)
    assert not np.array_equal(a.coincidences, c.coincidences)
    with pytest.raises(ValidationError):
        hom_scan(plan, src, profile, count_noise_sigma=-0.1)
    with pytest.raises(ValidationError):
        hom_scan(plan, src, hardware.ideal_profile(6))


@pytest.mark.parametrize("sigma", [np.nan, np.inf, -1.0])
def test_scans_reject_non_finite_or_negative_count_noise(sigma):
    n = 4
    profile = hardware.calibrated_profile(n)
    src = PhotonPairSource()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="count noise sigma"):
            hom_scan(route_to_tbs(n, (1, 1)), src, profile, count_noise_sigma=sigma)
        with pytest.raises(ValidationError, match="count noise sigma"):
            hom_visibility_map(n, src, profile, count_noise_sigma=sigma)


def _campaign(doc):
    return experiments.run_campaign_with_artifacts(experiments.validate_config(doc))


def test_hom_scan_csv_and_json_exports():
    n = 4
    profile = hardware.ideal_profile(n)
    scan = hom_scan(route_to_tbs(n, (1, 1)), PhotonPairSource(), profile)
    report, csv_files = _campaign(
        {"kind": "hom-scan", "n": n, "params": {"target": [1, 1]}}
    )
    lines = csv_files["scan.csv"].strip().splitlines()
    assert lines[0] == "delay_um,normalized_coincidence"
    assert len(lines) == scan.delays_um.size + 1
    assert report["summary"]["fit"]["visibility"] == scan.fit.visibility
    assert report["results"]["input_pair"] == [0, 3]
    assert report["config"]["profile"] == "ideal"


def test_visibility_map_ideal_uniform():
    n = 6
    src = PhotonPairSource(mutual_overlap_at_zero_delay=0.98)
    vmap = hom_visibility_map(n, src, hardware.ideal_profile(n))
    assert vmap.visibilities.shape == (15,)
    assert np.max(np.abs(vmap.visibilities - 0.98)) < 1e-8
    assert vmap.stats.std == pytest.approx(0.0, abs=1e-8)
    assert vmap.row_anova_p == 1.0
    assert vmap.column_anova_p == 1.0


def _two_two_df_tail(groups):
    # With d_between = d_within = 2 the F tail is I_x(1, 1) = x, where
    # x = SS_within / (SS_within + SS_between): exact in rationals.
    groups = [[Fraction(v) for v in g] for g in groups]
    values = [v for g in groups for v in g]
    grand = sum(values) / len(values)
    means = [sum(g) / len(g) for g in groups]
    ss_between = sum(len(g) * (m - grand) ** 2 for g, m in zip(groups, means))
    ss_within = sum((v - m) ** 2 for g, m in zip(groups, means) for v in g)
    return ss_within / (ss_within + ss_between)


@pytest.mark.parametrize("seed", range(6))
def test_anova_p_matches_exact_closed_form(seed):
    rng = np.random.default_rng(seed)
    values = (0.97 + 0.02 * rng.standard_normal(5)).tolist()
    groups = [values[:2], values[2:4], values[4:]]
    expected = float(_two_two_df_tail(groups))  # nearest double
    assert quantum._anova_p(groups) == expected


def test_anova_p_degenerate_cases():
    # fewer than two non-empty groups
    assert quantum._anova_p([[0.9, 0.8, 0.7]]) == 1.0
    assert quantum._anova_p([[], [0.9, 0.8]]) == 1.0
    # no within-group degrees of freedom
    assert quantum._anova_p([[0.9], [0.8], [0.7]]) == 1.0
    # all values equal
    assert quantum._anova_p([[0.98, 0.98], [0.98, 0.98, 0.98]]) == 1.0
    # zero within-group spread around unequal group means
    assert quantum._anova_p([[0.9, 0.9], [0.8, 0.8]]) == 0.0
    # a non-finite value has no p-value
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises((ValueError, OverflowError)):
            quantum._anova_p([[0.9, bad], [0.8, 0.7]])


@pytest.mark.parametrize("disorder_seed", [3, 8])
def test_visibility_map_equals_per_item_reference_at_n20(disorder_seed):
    # the batched map realizes all 190 routed transfers in chunks; the
    # reference scans one cell at a time from the per-cell transfer
    n = 20
    src = PhotonPairSource(mutual_overlap_at_zero_delay=0.98)
    profile = hardware.calibrated_profile(n, disorder_seed=disorder_seed)
    vmap = hom_visibility_map(
        n, src, profile, seed=disorder_seed, count_noise_sigma=0.02
    )
    visibilities, row_p, column_p = per_item_visibility_map(
        n, src, profile, seed=disorder_seed, count_noise_sigma=0.02
    )
    assert np.array_equal(vmap.visibilities, visibilities)
    assert vmap.row_anova_p == row_p
    assert vmap.column_anova_p == column_p


def test_visibility_map_noisy_spread_and_exports():
    n = 6
    src = PhotonPairSource(mutual_overlap_at_zero_delay=0.98)
    profile = hardware.calibrated_profile(n, disorder_seed=4)
    vmap = hom_visibility_map(n, src, profile, seed=9)
    assert float(np.std(vmap.visibilities)) > 0.0
    assert 0.0 <= vmap.row_anova_p <= 1.0
    assert 0.0 <= vmap.column_anova_p <= 1.0
    report, csv_files = _campaign(
        {"kind": "hom-map", "n": n, "seed": 4, "profile": "calibrated",
         "params": {"overlap": 0.98}}
    )
    doc = report["results"]["maps"][0]
    assert len(doc["visibilities"]) == 15
    assert "c02r02" in doc["visibilities"]
    assert doc["metadata"]["profile"] == "calibrated-4"
    grid = csv_files["visibility_grid-00.csv"].strip().splitlines()
    assert grid[0] == "row," + ",".join(f"c{c:02d}" for c in range(n))
    assert len(grid) == n  # header plus n-1 mode-pair rows
    # cell (1, 1) sits in row r01, column c01, with blanks at even columns
    r1 = grid[2].split(",")
    assert r1[0] == "r01"
    assert r1[1] == ""
    assert r1[2] != ""


def test_diagonal_plan_structure():
    n = 8
    plan = diagonal_interferometer_plan(n)
    assert plan.input_pair == (0, 1)
    assert plan.output_pair == (n - 3, n - 2)
    assert plan.target == mesh.CellAddress(n - 1, n - 3)
    verify_routing(plan, strict=False)
    arm = diagonal_arm_heaters(n)
    assert len(arm) == 2 * (n - 2)
    assert arm[0] == "c01r01.theta"
    assert arm[-1] == f"c{n-2:02d}r{n-2:02d}.phi"


def test_delay_sweep_tracks_drive():
    n = 20
    profile = hardware.ideal_profile(n)
    levels = [0.0, math.pi, 2.0 * math.pi, 3.0 * math.pi]
    sweep = diagonal_delay_sweep(n, profile, levels)
    assert sweep.heater_count == 36
    assert abs(sweep.centers_um[0]) < 1e-4
    assert np.all(np.diff(sweep.centers_um) > 0)
    assert sweep.total_shift_um > 60.0
    expected = 1.5 * 1562.0 * 1e-3  # 3 pi within a 2 pi turn of path
    assert abs(sweep.per_heater_shift_um - expected) < 1e-6
    assert len(sweep.driven_heater_ids) == 36
    report, csv_files = _campaign(
        {"kind": "delay-sweep", "n": n, "params": {"levels_rad": levels}}
    )
    csv_lines = csv_files["sweep.csv"].strip().splitlines()
    assert csv_lines[0] == "drive_level_rad,fitted_center_um"
    assert len(csv_lines) == len(levels) + 1
    assert report["results"]["centers_um"] == sweep.centers_um.tolist()
    assert report["summary"]["heater_count"] == 36
    assert len(report["results"]["driven_heater_ids"]) == 36


@pytest.mark.parametrize("n, disorder_seed, seed, levels", [
    (8, 0, 3, [0.0, 0.4, 1.1, 2.0, 9.5]),
    (20, 1, 11, [0.0, 0.5, 1.5, 2.5, 4.0, 9.4]),
])
def test_delay_sweep_equals_its_per_level_scans(n, disorder_seed, seed, levels):
    # the sweep realizes all levels in one call; each level must still be
    # the hom_scan of the diagonal plan at that level, bit for bit
    profile = hardware.calibrated_profile(n, disorder_seed=disorder_seed)
    source = PhotonPairSource()
    sweep = diagonal_delay_sweep(n, profile, levels, source, seed=seed)
    plan = diagonal_interferometer_plan(n)
    lam_um = quantum.DEFAULT_CENTER_WAVELENGTH_NM * 1e-3
    expected = [
        hom_scan(
            plan, source, profile, seed=child_seed(seed, index),
            arm_delay_um=sweep.heater_count * level * lam_um / TWO_PI,
        ).fit.center_um
        for index, level in enumerate(levels)
    ]
    assert [c.hex() for c in sweep.centers_um.tolist()] == [c.hex() for c in expected]


def test_delay_sweep_validation():
    profile = hardware.ideal_profile(20)
    with pytest.raises(ValidationError):
        diagonal_delay_sweep(2, hardware.ideal_profile(2), [0.0])
    with pytest.raises(ValidationError):
        diagonal_delay_sweep(20, profile, [])
    with pytest.raises(ValidationError):
        diagonal_delay_sweep(20, profile, [-0.5])
    with pytest.raises(ValidationError):
        diagonal_delay_sweep(20, profile, [0.0, 4.0 * math.pi])
    with pytest.raises(ValidationError):
        diagonal_delay_sweep(20, hardware.ideal_profile(12), [0.0])
