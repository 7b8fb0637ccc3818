import dataclasses
import json
import re
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.optimize import OptimizeWarning

from meshsim import analysis, compiler, hardware, mesh
from meshsim.hardware import (
    CalibrationRecord,
    HeaterModel,
    SweepRecord,
    calibrate_profile,
    calibrated_profile,
    fit_phase_response,
    heater_order,
    heater_targets,
    ideal_profile,
    insertion_loss_per_mode,
    measure_amplitude_matrix,
    profile_from_json,
    profile_to_json,
    realized_heater_phases,
    realized_transfer,
    settings_from_heater_phases,
    simulate_calibration_sweep,
    solve_voltages,
)
from meshsim.util import (
    FitDegeneracyError,
    InfeasibleError,
    UnknownHeaterError,
    ValidationError,
    wrap_signed,
)

from oracles import dense_branch_solve, grid_fringe_fit, neighbor_crosstalk

PROFILE_GOLDEN = Path(__file__).parent / "goldens" / "profile.calibrated-4.json"


def test_heater_order_and_ids():
    order = heater_order(4)
    assert len(order) == 4 * 3  # n(n-1)
    assert order[0] == "c00r00.theta"
    assert order[1] == "c00r00.phi"
    assert order[-1] == "c03r01.phi"


@pytest.mark.parametrize(
    "key, index, value, message",
    [
        ("phi0_rad", 3, np.nan, "heater c01r01.phi: phi0_rad must be finite"),
        ("phi0_rad", 0, -np.inf, "heater c00r00.theta: phi0_rad must be finite"),
        ("resistance_ohm", 4, 0.0, "heater c02r00.theta: resistance_ohm must be"),
        ("resistance_ohm", 2, np.inf, "heater c01r01.theta: resistance_ohm must"),
        ("v_max_v", 3, -1.0, "heater c01r01.phi: v_max_v must be finite and > 0"),
        ("v_max_v", 1, np.nan, "heater c00r00.phi: v_max_v must"),
    ],
    ids=["phi0-nan", "phi0-inf", "r-zero", "r-inf", "vmax-neg", "vmax-nan"],
)
def test_profile_rejects_bad_heater_values(key, index, value, message):
    # dataclasses.replace runs the constructor's checks
    ideal = ideal_profile(3)
    values = np.array(getattr(ideal, key))
    values[index] = value
    with pytest.raises(ValidationError, match=message):
        dataclasses.replace(ideal, **{key: values})
    # the first bad heater is the one named
    values[index + 1] = value
    with pytest.raises(ValidationError, match=message):
        dataclasses.replace(ideal, **{key: values})


def test_profile_rejects_bad_alphas_and_shapes():
    ideal = ideal_profile(3)
    with pytest.raises(ValidationError, match="phi0_rad must hold 6 heaters"):
        dataclasses.replace(ideal, phi0_rad=np.zeros(5))
    with pytest.raises(ValidationError, match="crosstalk is 5x5, expected 6"):
        dataclasses.replace(ideal, crosstalk=hardware.CrosstalkMatrix(np.eye(5)))
    # alpha is the crosstalk diagonal, which CrosstalkMatrix checks
    for alpha, message in ((-1, ">"), (0, ">"), (np.inf, "finite"), (np.nan, "finite")):
        diagonal = np.full(6, 3 * np.pi)
        diagonal[2] = alpha
        with pytest.raises(ValidationError, match=message):
            hardware.CrosstalkMatrix(np.diag(diagonal))


def test_ideal_realized_transfer_matches_mesh():
    u = compiler.haar_random(6, seed=3)
    rep = compiler.clements_decompose(u)
    prof = ideal_profile(6)
    got = realized_transfer(prof, rep.settings, seed=42)
    want = mesh.mesh_unitary(rep.settings)
    assert np.max(np.abs(got.elements - want.elements)) < 1e-12


def test_realized_transfer_dimension_mismatch():
    prof = ideal_profile(4)
    settings = mesh.bar_settings(5)
    with pytest.raises(ValidationError):
        realized_transfer(prof, settings)


def test_calibrated_profile_structure():
    prof = calibrated_profile(6, disorder_seed=1)
    order = prof.heater_ids
    m = prof.crosstalk.matrix
    idx = {h: i for i, h in enumerate(order)}
    i = idx["c02r02.theta"]
    assert m[i, idx["c02r02.phi"]] == pytest.approx(
        0.06 * prof.heaters["c02r02.theta"].alpha_rad_per_w
    )
    assert m[i, idx["c03r03.theta"]] == pytest.approx(
        0.02 * prof.heaters["c02r02.theta"].alpha_rad_per_w
    )
    assert m[i, idx["c01r01.phi"]] == pytest.approx(
        0.02 * prof.heaters["c02r02.theta"].alpha_rad_per_w
    )
    # same-column cells are not thermal neighbors
    assert m[i, idx["c02r00.theta"]] == 0.0
    assert m[i, idx["c02r04.theta"]] == 0.0
    # deterministic in the disorder seed
    again = calibrated_profile(6, disorder_seed=1)
    assert profile_to_json(again) == profile_to_json(prof)
    assert profile_to_json(calibrated_profile(6, disorder_seed=2)) != (
        profile_to_json(prof)
    )


def test_sweep_rejects_unknown_heater():
    prof = ideal_profile(3)
    with pytest.raises(UnknownHeaterError):
        simulate_calibration_sweep(prof, "c09r09.theta")


@pytest.mark.parametrize("points", [-1, 0, 1])
def test_sweep_needs_two_points(points):
    prof = ideal_profile(3)
    with pytest.raises(ValidationError, match=">= 2"):
        simulate_calibration_sweep(prof, "c00r00.theta", points=points)
    with pytest.raises(ValidationError, match=">= 2"):
        calibrate_profile(prof, points=points)


def test_sweep_fringe_values():
    prof = ideal_profile(3)
    sweep = simulate_calibration_sweep(prof, "c00r00.theta", points=16)
    # lossless profile, phi0 = 0: signal starts at the fringe maximum 1.0
    assert sweep.signal[0] == pytest.approx(1.0)
    v = sweep.voltages_v
    expected = 0.5 + 0.5 * np.cos(3 * np.pi * v**2 / 100.0)
    assert np.allclose(sweep.signal, expected)


def test_fit_recovers_synthetic_fringe():
    v = np.linspace(0.0, 10.0, 80)
    p = v**2 / 100.0
    signal = 0.4 + 0.31 * np.cos(9.2 * p + 1.3)
    entry = fit_phase_response(SweepRecord("h", v, signal), 100.0)
    assert entry.phi0_rad == pytest.approx(1.3, rel=1e-9)
    assert entry.alpha_rad_per_w == pytest.approx(9.2, rel=1e-9)
    assert entry.residual < 1e-10


def test_fit_degeneracies():
    v = np.linspace(0.0, 10.0, 80)
    p = v**2 / 100.0
    with pytest.raises(FitDegeneracyError):
        fit_phase_response(SweepRecord("h", v[:5], np.cos(p[:5])), 100.0)
    with pytest.raises(FitDegeneracyError):
        fit_phase_response(SweepRecord("h", v, np.full(80, 0.25)), 100.0)
    # span under one fringe period cannot pin alpha and phi0 together
    slow = 0.5 + 0.5 * np.cos(4.0 * p + 0.2)
    with pytest.raises(FitDegeneracyError):
        fit_phase_response(SweepRecord("h", v, slow), 100.0)
    # two distinct drive powers fit the fringe model at every alpha
    two_level = np.repeat([0.0, 10.0], 40)
    with pytest.raises(FitDegeneracyError, match="degenerate voltage grid"):
        fit_phase_response(
            SweepRecord("h", two_level, np.cos(two_level**2 / 100.0)), 100.0
        )
    # non-finite samples are rejected before any numerical stage can warn
    fringe = 0.5 + 0.5 * np.cos(9.2 * p)
    nan_signal = np.where(np.arange(80) == 17, np.nan, fringe)
    inf_volts = np.where(np.arange(80) == 40, np.inf, v)
    for volts, signal in ((v, nan_signal), (inf_volts, fringe)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FitDegeneracyError, match="c01r02.phi: non-finite"):
                fit_phase_response(SweepRecord("c01r02.phi", volts, signal), 100.0)
    # a signal one sample short of its voltage grid
    with pytest.raises(FitDegeneracyError, match="c03r04.theta: 80 voltages for 79"):
        fit_phase_response(SweepRecord("c03r04.theta", v, fringe[:79]), 100.0)


@pytest.mark.parametrize("resistance", [-100.0, 0.0, np.nan, np.inf])
def test_fit_rejects_a_bad_resistance(resistance):
    # a negative resistance would fit 2*pi - phi0 and a zero one divide by 0
    v = np.linspace(0.0, 10.0, 80)
    fringe = 0.5 + 0.5 * np.cos(9.2 * v**2 / 100.0 + 1.019)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="^c02r01.theta: resistance"):
            fit_phase_response(SweepRecord("c02r01.theta", v, fringe), resistance)


_SPAN = re.compile(r"swept span [0-9.]+")


def _fringe_ssr(sweep, resistance, entry):
    # the least SSR over (A, B, C) at the entry's alpha, by lstsq
    power = np.asarray(sweep.voltages_v) ** 2 / resistance
    phase = entry.alpha_rad_per_w * power
    basis = np.column_stack([np.ones_like(power), np.cos(phase), np.sin(phase)])
    coef = np.linalg.lstsq(basis, sweep.signal, rcond=None)[0]
    return float(np.sum((sweep.signal - basis @ coef) ** 2))


def _reaches_oracle_optimum(sweep, resistance, got, want):
    """The fit ends at least as low as the curve_fit oracle and on the same
    (alpha, phi0), or raises the oracle's FitDegeneracyError. A span under
    one period is the same failure whatever span the message reports: on
    an aliased sweep both fits can run off towards alpha = 0, where the
    point each stops at is arbitrary."""
    if isinstance(want, str) or isinstance(got, str):
        return _SPAN.sub("swept span", got) == _SPAN.sub("swept span", want)
    ours, theirs = (_fringe_ssr(sweep, resistance, e) for e in (got, want))
    # below the SSR's rounding error two fits cannot be ranked
    floor = sweep.signal.size * (64 * np.finfo(float).eps * np.max(np.abs(sweep.signal))) ** 2
    return (
        ours <= theirs * (1.0 + 1e-9) + floor
        and abs(got.alpha_rad_per_w - want.alpha_rad_per_w) <= 1e-7 * want.alpha_rad_per_w
        and abs(wrap_signed(got.phi0_rad - want.phi0_rad)) <= 1e-6
    )


def test_fit_keeps_covariance_warning_inside():
    # a noiseless fringe through phi0 = 0 ends on a singular Jacobian, where
    # the curve_fit oracle warns that it cannot estimate the covariance; the
    # projected fit emits no warning and reaches the oracle's optimum
    v = np.linspace(0.0, 10.0, 8)
    sweep = SweepRecord("h", v, 0.5 + 0.5 * np.cos(6.0 * v**2 / 50.0))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        expected = grid_fringe_fit(sweep, 50.0)
    assert any("Covariance" in str(w.message) for w in caught)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = fit_phase_response(sweep, 50.0)
    assert _reaches_oracle_optimum(sweep, 50.0, got, expected)


@lru_cache(maxsize=None)
def _calibrated20():
    return calibrated_profile(20, disorder_seed=2)


def _fit_outcome(fit, sweep, resistance):
    try:
        return fit(sweep, resistance)
    except FitDegeneracyError as exc:
        return f"FitDegeneracyError: {exc}"


def _oracle_outcome(sweep, resistance):
    # the oracle's curve_fit warns when it cannot estimate a covariance,
    # which neither fit uses
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OptimizeWarning)
        return _fit_outcome(grid_fringe_fit, sweep, resistance)


@pytest.mark.parametrize("points", [8, 16, 64])
@pytest.mark.parametrize("sigma", [0.0, 1e-3, 0.05])
def test_fit_equals_grid_oracle_on_every_heater_n20(sigma, points):
    prof = _calibrated20()
    for hid in prof.heater_ids:
        sweep = simulate_calibration_sweep(
            prof, hid, points=points, seed=3, detector_noise_sigma=sigma
        )
        r = prof.heaters[hid].resistance_ohm
        got = _fit_outcome(fit_phase_response, sweep, r)
        assert _reaches_oracle_optimum(sweep, r, got, _oracle_outcome(sweep, r)), hid


@settings(max_examples=60, deadline=None)
# a single curve_fit pass of the oracle stopped 1.25e-7 relative short in alpha
@example(0.0, 4.92784156460373, 50.0, 57, 0.05, 57)
@given(
    st.floats(0.0, 2 * np.pi, exclude_max=True),
    st.floats(4.0, 40.0),
    st.floats(50.0, 200.0),
    st.integers(8, 200),
    st.sampled_from((0.0, 1e-3, 0.05)),
    st.integers(0, 2**32 - 1),
)
def test_fit_equals_grid_oracle_property(
    phi0, alpha, resistance, points, sigma, seed
):
    v = np.linspace(0.0, 10.0, points)
    rng = np.random.default_rng(seed)
    signal = 0.5 + 0.5 * np.cos(phi0 + alpha * v**2 / resistance)
    signal = signal + rng.normal(0.0, sigma, points)
    sweep = SweepRecord("h", v, signal)
    got = _fit_outcome(fit_phase_response, sweep, resistance)
    assert _reaches_oracle_optimum(
        sweep, resistance, got, _oracle_outcome(sweep, resistance)
    )


def _at_offset(values, offset):
    # a copy of values starting `offset` bytes into a fresh buffer
    raw = np.zeros(values.size * 8 + 64, np.uint8)
    view = raw[offset : offset + values.size * 8].view(float).reshape(values.shape)
    view[...] = values
    return view


def _entry_hex(outcome):
    if isinstance(outcome, str):
        return outcome
    return (
        outcome.heater_id,
        outcome.phi0_rad.hex(),
        outcome.alpha_rad_per_w.hex(),
        outcome.residual.hex(),
    )


def _fits_hex(heater_ids, fit):
    # fit_phase_responses' (phi0, alpha, residual) arrays as _entry_hex rows
    columns = (x.tolist() for x in fit)
    return [
        (hid,) + tuple(x.hex() for x in row) for hid, *row in zip(heater_ids, *columns)
    ]


@pytest.mark.parametrize("sigma", [0.0, 1e-3, 0.05])
def test_fringe_fit_is_batch_invariant(sigma):
    # every operation acts on each heater alone, so a heater fits to the
    # same bits alone, in a stack of 7, in the full n=20 stack and from
    # inputs at any memory offset
    prof = _calibrated20()
    sweeps = [
        simulate_calibration_sweep(prof, hid, seed=5, detector_noise_sigma=sigma)
        for hid in prof.heater_ids
    ]
    power = np.stack([s.voltages_v for s in sweeps]) ** 2 / prof.resistance_ohm[:, None]
    signal = np.stack([s.signal for s in sweeps])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        alone = [
            _entry_hex(fit_phase_response(s, r))
            for s, r in zip(sweeps, prof.resistance_ohm.tolist())
        ]
        full = hardware.fit_phase_responses(power, signal, prof.heater_ids)
        assert _fits_hex(prof.heater_ids, full) == alone
        picks = np.random.default_rng(np.random.SeedSequence([5, 2])).choice(
            len(sweeps), 7, replace=False
        )
        ids = [prof.heater_ids[i] for i in picks]
        seven = hardware.fit_phase_responses(power[picks], signal[picks], ids)
        assert _fits_hex(ids, seven) == [alone[i] for i in picks]
        record = calibrate_profile(prof, seed=5, detector_noise_sigma=sigma)
        assert [_entry_hex(record.entries[h]) for h in prof.heater_ids] == alone
        for i in picks[:3]:
            for offset in range(0, 64, 8):
                got = fit_phase_response(
                    SweepRecord(
                        prof.heater_ids[i],
                        _at_offset(sweeps[i].voltages_v, offset),
                        _at_offset(sweeps[i].signal, offset),
                    ),
                    prof.resistance_ohm[i],
                )
                assert _entry_hex(got) == alone[i], (i, offset)


def test_fringe_screen_size_reaches_the_fine_grid(monkeypatch):
    # the grid size comes from a measured table (README, "Calibration fit"):
    # on this stack a 14-point grid, one point fewer, ends one heater
    # (c15r07.phi) at another optimum, alpha 14.54 against 10.03; the chosen
    # grid must end every heater where a 101-point grid does
    prof = calibrated_profile(20, disorder_seed=3)

    def alphas(size=None):
        if size is not None:
            monkeypatch.setattr(hardware, "_ALPHA_GRID", np.linspace(0.75, 1.25, size))
        record = calibrate_profile(prof, points=8, seed=3, detector_noise_sigma=0.05)
        return record.arrays(prof.heater_ids)[1]

    chosen, fine, fewer = alphas(), alphas(101), alphas(14)
    np.testing.assert_allclose(chosen, fine, rtol=1e-12, atol=0)
    moved = np.abs(fewer - fine) > 1e-9 * fine
    assert [prof.heater_ids[i] for i in np.flatnonzero(moved)] == ["c15r07.phi"]


def test_fringe_seeds_take_one_fft_per_stack(monkeypatch):
    # the FFT seeds of a stack come from one rfft over its (k, 8m) resampled
    # sweeps; each row of it is the bits of that row's own rfft, and the
    # seeds are those of a loop of one rfft per sweep, each sweep centred by
    # its own sum
    prof = calibrated_profile(4, disorder_seed=1)
    v, signal = hardware._sweeps(prof, np.arange(12), 16, 2, 0.01)
    power = v**2 / prof.resistance_ohm[:, None]
    low, high = power[:, 0], power[:, -1]
    stacks = []
    rfft = np.fft.rfft

    def counted_rfft(a, *args, **kwargs):
        stacks.append(np.array(a))
        return rfft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", counted_rfft)
    hardware.fit_phase_responses(power, signal, prof.heater_ids)
    assert [a.shape for a in stacks] == [(12, 128)]
    for row, alone in zip(rfft(stacks[0], axis=1), stacks[0]):
        assert row.tobytes() == rfft(alone).tobytes()
    loop = []
    for p, y, lo, hi in zip(power, signal, low.tolist(), high.tolist()):
        resampled = np.interp(np.linspace(lo, hi, 128), p, y)
        spectrum = np.abs(rfft(resampled - resampled.sum() / 128)[1:])
        loop.append(2 * np.pi * (spectrum.argmax() + 1) / (128 * ((hi - lo) / 127)))
    assert hardware._fringe_seeds(power, signal, low, high).tolist() == loop


def test_fringe_screen_takes_the_whole_stack_in_one_call(monkeypatch):
    # the 380 heaters of an n=20 calibration are screened in one pass
    prof = calibrated_profile(20, disorder_seed=2)
    shapes = []
    screen = hardware._fringe_screen

    def counted_screen(p, y, *args):
        shapes.append(p.shape)
        return screen(p, y, *args)

    monkeypatch.setattr(hardware, "_fringe_screen", counted_screen)
    calibrate_profile(prof, points=64, seed=2, detector_noise_sigma=1e-3)
    assert shapes == [(64, 380)]


def test_fringe_fit_of_an_empty_stack_is_empty():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fits = hardware.fit_phase_responses(np.empty((0, 16)), np.empty((0, 16)), [])
    assert [a.shape for a in fits] == [(0,)] * 3


def test_fit_raises_the_first_failure_in_stack_order():
    # a batch raises what a heater-order loop of single fits raises first
    v = np.linspace(0.0, 10.0, 40)
    p = v**2 / 100.0
    good = 0.5 + 0.5 * np.cos(9.2 * p + 0.4)
    slow = 0.5 + 0.5 * np.cos(4.0 * p + 0.2)
    flat = np.full(40, 0.25)
    power = np.stack([p] * 4)
    with pytest.raises(FitDegeneracyError, match="^b: swept span"):
        hardware.fit_phase_responses(power, np.stack([good, slow, flat, good]), "abcd")
    with pytest.raises(FitDegeneracyError, match="^b: constant signal"):
        hardware.fit_phase_responses(power, np.stack([good, flat, slow, good]), "abcd")
    with pytest.raises(ValidationError, match="stacks"):
        hardware.fit_phase_responses(power, np.stack([good] * 3), "abcd")
    phi0, alpha, residual = hardware.fit_phase_responses(
        power[:2], np.stack([good, good]), "ab"
    )
    assert phi0.shape == alpha.shape == residual.shape == (2,)
    assert alpha[0] == alpha[1] == pytest.approx(9.2, rel=1e-12)


@pytest.mark.parametrize("disorder, points", [(0, 16), (0, 64), (3, 16), (3, 64)])
def test_fringe_fit_orders_each_sweep_by_power(disorder, points):
    # the FFT seed resamples each sweep with np.interp, which needs ascending
    # powers; a down-sweep or a shuffled sweep is the same data, so it must
    # give the up-sweep's fit, bit for bit
    prof = calibrated_profile(20, disorder_seed=disorder)
    sweeps = [
        simulate_calibration_sweep(prof, hid, points=points) for hid in prof.heater_ids
    ]
    power = np.stack([s.voltages_v for s in sweeps]) ** 2 / prof.resistance_ohm[:, None]
    signal = np.stack([s.signal for s in sweeps])
    ascending = _fits_hex(
        prof.heater_ids, hardware.fit_phase_responses(power, signal, prof.heater_ids)
    )
    shuffled = np.random.default_rng(disorder).permuted(
        np.broadcast_to(np.arange(points), power.shape), axis=1
    )
    for order in (np.broadcast_to(np.arange(points)[::-1], power.shape), shuffled):
        fit = hardware.fit_phase_responses(
            np.take_along_axis(power, order, 1),
            np.take_along_axis(signal, order, 1),
            prof.heater_ids,
        )
        assert _fits_hex(prof.heater_ids, fit) == ascending
    for i in range(0, len(sweeps), 19):
        down = SweepRecord(
            prof.heater_ids[i], sweeps[i].voltages_v[::-1], sweeps[i].signal[::-1]
        )
        assert _entry_hex(fit_phase_response(down, prof.resistance_ohm[i])) == ascending[i]


@pytest.mark.parametrize("sigma", [np.nan, np.inf, -1.0])
def test_calibration_rejects_non_finite_or_negative_detector_noise(sigma):
    prof = calibrated_profile(3, disorder_seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="detector noise sigma"):
            simulate_calibration_sweep(
                prof, prof.heater_ids[0], detector_noise_sigma=sigma
            )
        with pytest.raises(ValidationError, match="detector noise sigma"):
            calibrate_profile(prof, detector_noise_sigma=sigma)


def test_noiseless_calibration_recovers_profile():
    prof = calibrated_profile(4, disorder_seed=3)
    record = calibrate_profile(prof)
    for hid, model in prof.heaters.items():
        entry = record.entries[hid]
        assert entry.phi0_rad == pytest.approx(model.phi0_rad, rel=1e-9)
        assert entry.alpha_rad_per_w == pytest.approx(
            model.alpha_rad_per_w, rel=1e-9
        )
    assert max(record.arrays(prof.heater_ids)[2]) < 1e-10


def test_solve_voltages_ideal_exact():
    prof = ideal_profile(5)
    cal = CalibrationRecord.exact_from_profile(prof)
    u = compiler.haar_random(5, seed=8)
    rep = compiler.clements_decompose(u)
    target = heater_targets(rep.settings)
    sol = solve_voltages(prof, cal, target)
    realized = realized_heater_phases(prof, sol.powers_w)
    assert np.max(np.abs(wrap_signed(realized - target))) < 1e-12
    assert np.all(sol.powers_w >= 0)


def test_solve_voltages_with_crosstalk():
    prof = calibrated_profile(6, disorder_seed=0)
    cal = calibrate_profile(prof)
    rng = np.random.default_rng(4)
    for _ in range(5):
        target = rng.uniform(0, 2 * np.pi, len(prof.heater_ids))
        sol = solve_voltages(prof, cal, target)
        realized = realized_heater_phases(prof, sol.powers_w)
        assert np.max(np.abs(wrap_signed(realized - target))) < 1e-9
        assert np.all(sol.powers_w >= 0)


def test_solve_branch_bump():
    # partner heater dissipates enough that the theta residual is already
    # overshot by crosstalk alone; the solver must move up one branch
    prof = calibrated_profile(2, disorder_seed=0)
    cal = CalibrationRecord.exact_from_profile(prof)
    phi0 = prof.phi0_rad
    target = np.array([phi0[0] + 0.05, phi0[1] + 5.0])
    sol = solve_voltages(prof, cal, target)
    realized = realized_heater_phases(prof, sol.powers_w)
    assert np.max(np.abs(wrap_signed(realized - target))) < 1e-9
    assert np.all(sol.powers_w >= 0)
    assert sol.iterations > 1
    assert_matches_dense_solve(prof, cal, target, sol)


def assert_matches_dense_solve(profile, calibration, target, sol):
    # the cached inverse and the oracle's fresh LU solve round differently;
    # the coupling is diagonally dominant (cond_inf under 2), so they agree
    # to a few ulp of the largest power and take the same branch rounds
    powers, rounds, residual = dense_branch_solve(profile, calibration, target)
    assert sol.iterations == rounds
    assert np.max(np.abs(sol.powers_w - powers)) <= 1e-13 * np.max(np.abs(powers))
    assert sol.residual_rad <= 1e-12 and residual <= 1e-12


def test_solve_matches_dense_oracle_exact_record_n20():
    prof = calibrated_profile(20, disorder_seed=0)
    cal = CalibrationRecord.exact_from_profile(prof)
    for seed in range(4):
        rep = compiler.clements_decompose(compiler.haar_random(20, seed=seed))
        target = heater_targets(rep.settings)
        assert_matches_dense_solve(prof, cal, target, solve_voltages(prof, cal, target))


def test_solve_matches_dense_oracle_fitted_record():
    prof = calibrated_profile(5, disorder_seed=2)
    cal = calibrate_profile(prof, seed=1, detector_noise_sigma=1e-4)
    rng = np.random.default_rng(12)
    for _ in range(6):
        target = rng.uniform(0, 2 * np.pi, len(prof.heater_ids))
        assert_matches_dense_solve(prof, cal, target, solve_voltages(prof, cal, target))


def test_solve_record_reused_across_profiles():
    # the factored system is memoised on the record; switching the profile
    # must refactor, never serve the first profile's coupling
    first = calibrated_profile(5, disorder_seed=0)
    second = calibrated_profile(5, disorder_seed=1)
    assert not np.array_equal(first.crosstalk.matrix, second.crosstalk.matrix)
    cal = CalibrationRecord.exact_from_profile(first)
    rng = np.random.default_rng(5)
    for prof in (first, second, first, second):
        target = rng.uniform(0, 2 * np.pi, len(prof.heater_ids))
        assert_matches_dense_solve(prof, cal, target, solve_voltages(prof, cal, target))


def test_record_entries_are_read_only():
    # the drive-solve inverse is kept on the record, so an entry edited in
    # place would leave it stale; the record holds a read-only copy
    prof = calibrated_profile(4, disorder_seed=0)
    entries = dict(calibrate_profile(prof).entries)
    record = CalibrationRecord(entries=entries)
    solve_voltages(prof, record, np.zeros(len(prof.heater_ids)))
    hid = prof.heater_ids[0]
    edited = dataclasses.replace(entries[hid], phi0_rad=0.5)
    with pytest.raises(TypeError):
        record.entries[hid] = edited
    entries[hid] = edited
    assert record.entries[hid].phi0_rad != 0.5
    # records still compare by value
    assert record == CalibrationRecord(entries=dict(record.entries))
    assert record != CalibrationRecord(entries=entries)


@pytest.mark.parametrize("record_n", [3, 5])
def test_solve_rejects_a_record_for_another_heater_set(record_n):
    prof = calibrated_profile(4, disorder_seed=0)
    record = CalibrationRecord.exact_from_profile(calibrated_profile(record_n))
    with pytest.raises(ValidationError, match="another heater set"):
        solve_voltages(prof, record, np.zeros(len(prof.heater_ids)))


@pytest.mark.parametrize("key, value", [
    ("alpha_rad_per_w", np.nan), ("phi0_rad", np.inf),
    ("alpha_rad_per_w", -3.0), ("alpha_rad_per_w", 0.0),
])
def test_solve_rejects_a_bad_record_entry(key, value):
    # a NaN alpha or an infinite phi0 made NaN powers, and a negative alpha
    # spun through every branch round; each names the heater instead
    prof = calibrated_profile(4, disorder_seed=1)
    entries = dict(CalibrationRecord.exact_from_profile(prof).entries)
    hid = prof.heater_ids[5]
    entries[hid] = dataclasses.replace(entries[hid], **{key: value})
    record = CalibrationRecord(entries=entries)
    targets = np.random.default_rng(3).uniform(0.0, 6.0, (4, len(prof.heater_ids)))
    for target in (targets[0], targets):
        with pytest.raises(ValidationError, match=f"heater {hid}: calibrated"):
            solve_voltages(prof, record, target)


def test_solve_threads_share_one_record():
    # four threads race on one record's memo slot while the items alternate
    # between two profiles; every result must equal the serial one
    profiles = [calibrated_profile(20, disorder_seed=s) for s in (0, 1)]
    rng = np.random.default_rng(40)
    items = [
        (profiles[i % 2], rng.uniform(0, 2 * np.pi, len(profiles[0].heater_ids)))
        for i in range(40)
    ]

    def solve(record, item):
        return solve_voltages(item[0], record, item[1])

    record = CalibrationRecord.exact_from_profile(profiles[0])
    serial = [solve(record, item) for item in items]
    record = CalibrationRecord.exact_from_profile(profiles[0])
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(lambda item: solve(record, item), items))
    finally:
        sys.setswitchinterval(interval)
    for a, b in zip(serial, threaded):
        assert np.array_equal(a.powers_w, b.powers_w)
        assert np.array_equal(a.voltages_v, b.voltages_v)
        assert (a.iterations, a.residual_rad) == (b.iterations, b.residual_rad)


def _hexes(values):
    return [x.hex() for x in values.tolist()]


def _assert_rows_are_single_solves(prof, cal, targets):
    stacked = solve_voltages(prof, cal, targets)
    realized = realized_heater_phases(prof, stacked.powers_w)
    assert stacked.powers_w.shape == stacked.voltages_v.shape == targets.shape
    assert len(stacked.iterations) == len(stacked.residual_rad) == len(targets)
    for row, target in enumerate(targets):
        single = solve_voltages(prof, cal, target)
        assert _hexes(stacked.powers_w[row]) == _hexes(single.powers_w), row
        assert _hexes(stacked.voltages_v[row]) == _hexes(single.voltages_v), row
        assert stacked.iterations[row] == single.iterations, row
        assert stacked.residual_rad[row].hex() == single.residual_rad.hex(), row
        assert _hexes(realized[row]) == _hexes(
            realized_heater_phases(prof, single.powers_w)
        ), row
    return stacked


def test_stacked_solve_rows_equal_single_solves():
    # each round is one matrix-vector product per row, and a settled row is
    # solved again from the same residual, so a row of a stack is the same
    # bits, rounds and residual as its own solve
    prof = calibrated_profile(20, disorder_seed=0)
    exact = CalibrationRecord.exact_from_profile(prof)
    theta, phi, _ = compiler.decompose_stack(
        np.array([compiler.haar_random(20, seed=seed).elements for seed in range(64)])
    )
    commanded = np.stack([theta, phi], axis=2).reshape(64, -1)
    stacked = _assert_rows_are_single_solves(prof, exact, commanded)
    # rows settle in different rounds, so settled rows are solved again
    assert len(set(stacked.iterations)) > 1
    fitted = calibrate_profile(prof, points=16, seed=2, detector_noise_sigma=1e-3)
    uniform = np.random.default_rng(21).uniform(
        0.0, 2 * np.pi, (20, len(prof.heater_ids))
    )
    stacked = _assert_rows_are_single_solves(prof, fitted, uniform)
    assert min(stacked.iterations) > 1 and len(set(stacked.iterations)) > 1
    empty = solve_voltages(prof, fitted, np.empty((0, len(prof.heater_ids))))
    assert empty.powers_w.shape == empty.voltages_v.shape == (0, len(prof.heater_ids))
    assert empty.iterations == empty.residual_rad == []
    assert realized_heater_phases(prof, empty.powers_w).shape == empty.powers_w.shape


def test_stacked_solve_names_the_first_infeasible_row():
    prof = calibrated_profile(4, disorder_seed=1)
    cal = CalibrationRecord.exact_from_profile(prof)
    rng = np.random.default_rng(9)
    # row 0 asks for the phases at zero power, which any budget allows
    targets = np.vstack([
        np.mod(prof.phi0_rad, 2 * np.pi),
        rng.uniform(0.0, 2 * np.pi, (2, len(prof.heater_ids))),
    ])
    full = solve_voltages(prof, cal, targets)
    assert np.all(full.powers_w[0] == 0.0) and np.all(full.powers_w[1:] > 0.0)
    v_max = np.sqrt(full.powers_w[1:].min(0) * prof.resistance_ohm) / 2
    starve = np.arange(len(prof.heater_ids)) % 3 == 0
    starved = dataclasses.replace(prof, v_max_v=np.where(starve, v_max, prof.v_max_v))
    with pytest.raises(InfeasibleError) as single:
        solve_voltages(starved, cal, targets[1])
    assert not str(single.value).startswith("row")
    with pytest.raises(InfeasibleError, match="^row 1: ") as stacked:
        solve_voltages(starved, cal, targets)
    assert stacked.value.heater_ids == single.value.heater_ids
    assert len(single.value.heater_ids) == 4


def test_profile_arrays_read_only_and_views_cached():
    source = np.linspace(0.5, 3.0, 6)
    prof = dataclasses.replace(ideal_profile(3), phi0_rad=source)
    source[0] = 9.0  # the profile holds its own copy
    for values in (
        prof.phi0_rad, prof.alpha_rad_per_w, prof.resistance_ohm, prof.v_max_v,
        prof.coupler_terms,
    ):
        with pytest.raises(ValueError):
            values[0] = 0.0
    assert prof.phi0_rad[0] == 0.5
    assert np.array_equal(prof.alpha_rad_per_w, np.diag(prof.crosstalk.matrix))
    heaters = prof.heaters
    assert heaters is prof.heaters
    assert list(heaters) == list(prof.heater_ids)
    assert heaters["c01r01.phi"] == HeaterModel(2.0, 3 * np.pi, 100.0, 10.0)
    with pytest.raises(TypeError):
        heaters["c01r01.phi"] = heaters["c00r00.phi"]
    # a replaced profile starts with its own view
    changed = dataclasses.replace(prof, phi0_rad=np.full(6, 0.25))
    assert changed.heaters["c00r00.theta"].phi0_rad == 0.25
    assert prof.heaters["c00r00.theta"].phi0_rad == 0.5


def test_solve_infeasible_budget():
    prof = dataclasses.replace(ideal_profile(2), v_max_v=np.full(2, 5.0))
    cal = CalibrationRecord.exact_from_profile(prof)
    # needs p = 3/(3*pi) ~ 0.318 W but the budget is 0.25 W
    with pytest.raises(InfeasibleError) as exc:
        solve_voltages(prof, cal, np.array([3.0, 0.1]))
    assert "c00r00.theta" in exc.value.heater_ids


@lru_cache(maxsize=None)
def _solve_device(kind, n, seed, fitted):
    prof = ideal_profile(n) if kind == "ideal" else calibrated_profile(n, seed)
    if fitted:
        return prof, calibrate_profile(prof, seed=seed)
    return prof, CalibrationRecord.exact_from_profile(prof)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(("ideal", "calibrated")),
    st.integers(2, 6),
    st.integers(0, 3),
    st.booleans(),
    st.floats(0.05, 0.95),
    st.data(),
)
def test_solve_closes_or_names_the_starved_heaters(
    kind, n, seed, fitted, shrink, data
):
    prof, cal = _solve_device(kind, n, seed, fitted)
    count = len(prof.heater_ids)
    target = np.array(data.draw(st.lists(
        st.floats(0.0, 2 * np.pi, exclude_max=True), min_size=count, max_size=count
    )))
    full = solve_voltages(prof, cal, target)
    assert np.all(full.powers_w >= 0)
    closure = wrap_signed(realized_heater_phases(prof, full.powers_w) - target)
    assert np.max(np.abs(closure)) <= 1e-9
    starve = np.array(data.draw(st.lists(
        st.booleans(), min_size=count, max_size=count
    ))) & (full.powers_w > 0)
    assume(starve.any())
    # a budget of shrink^2 times the solved power leaves those heaters short
    v_max = np.where(
        starve, shrink * np.sqrt(full.powers_w * prof.resistance_ohm), prof.v_max_v
    )
    starved = dataclasses.replace(prof, v_max_v=v_max)
    with pytest.raises(InfeasibleError) as exc:
        solve_voltages(starved, cal, target)
    assert exc.value.heater_ids == tuple(
        h for h, s in zip(prof.heater_ids, starve) if s
    )


def test_solve_rejects_non_finite_target():
    prof = calibrated_profile(2, disorder_seed=0)
    cal = CalibrationRecord.exact_from_profile(prof)
    with pytest.raises(ValidationError, match="^target phases must be finite"):
        solve_voltages(prof, cal, np.array([np.nan, 1.0]))
    with pytest.raises(ValidationError, match="^target phases must be finite"):
        solve_voltages(prof, cal, np.full(len(prof.heater_ids), np.inf))
    count = len(prof.heater_ids)
    with pytest.raises(ValidationError, match="^target phases must be finite"):
        solve_voltages(prof, cal, np.array([[1.0, 2.0], [np.nan, 1.0]]))
    for shape in ((), (count + 1,), (3, count - 1), (2, 3, count)):
        with pytest.raises(ValidationError, match=f"^target phases must have {count} per row"):
            solve_voltages(prof, cal, np.zeros(shape))


def test_measure_columns_normalized_and_seeded():
    prof = calibrated_profile(5, disorder_seed=0)
    settings = compiler.clements_decompose(
        compiler.haar_random(5, seed=1)
    ).settings
    a = measure_amplitude_matrix(prof, settings, seed=7)
    b = measure_amplitude_matrix(prof, settings, seed=7)
    c = measure_amplitude_matrix(prof, settings, seed=8)
    assert np.array_equal(a.magnitudes, b.magnitudes)
    assert not np.array_equal(a.magnitudes, c.magnitudes)
    assert np.allclose(np.linalg.norm(a.magnitudes, axis=0), 1.0, atol=1e-12)


def test_measure_empty_stack_gives_no_matrices():
    prof = calibrated_profile(4, disorder_seed=0)
    cells = len(mesh.cell_addresses(4))
    empty = hardware.measure_amplitude_matrices(
        prof, np.empty((0, cells)), np.empty((0, cells)), np.empty((0, 4)), []
    )
    assert empty.shape == (0, 4, 4)
    assert not empty.flags.writeable


def test_static_disorder_survives_run_seed():
    prof = dataclasses.replace(
        calibrated_profile(4, disorder_seed=9),
        theta_noise_sigma_rad=0.0,
        phi_noise_sigma_rad=0.0,
    )
    settings = mesh.bar_settings(4)
    a = realized_transfer(prof, settings, seed=1)
    b = realized_transfer(prof, settings, seed=2)
    # splitter disorder is static, so with jitter off the run seed is inert
    assert np.array_equal(a.elements, b.elements)
    ideal = realized_transfer(ideal_profile(4), settings, seed=1)
    assert not np.allclose(np.abs(a.elements), np.abs(ideal.elements))


def test_insertion_loss_golden():
    prof = calibrated_profile(20, disorder_seed=0)
    il = insertion_loss_per_mode(prof)
    assert il.shape == (20,)
    assert np.allclose(il, 2.899, atol=1e-9)
    assert np.allclose(insertion_loss_per_mode(ideal_profile(4)), 0.0)


def test_ideal_chain_reproduces_target():
    n = 6
    prof = ideal_profile(n)
    cal = CalibrationRecord.exact_from_profile(prof)
    u = compiler.haar_random(n, seed=21)
    rep = compiler.clements_decompose(u)
    sol = solve_voltages(prof, cal, heater_targets(rep.settings))
    realized = realized_heater_phases(prof, sol.powers_w)
    settings = settings_from_heater_phases(
        n, realized, output_phases=rep.settings.output_phases
    )
    measured = measure_amplitude_matrix(prof, settings, seed=0)
    assert abs(analysis.amplitude_fidelity(u, measured) - 1.0) < 1e-9


def test_profile_json_round_trip():
    prof = calibrated_profile(4, disorder_seed=5)
    text = profile_to_json(prof)
    back = profile_from_json(text)
    assert profile_to_json(back) == text
    assert back.n == 4
    assert back.phi_noise_sigma_rad == prof.phi_noise_sigma_rad
    with pytest.raises(ValidationError):
        profile_from_json("{not json")
    with pytest.raises(ValidationError):
        profile_from_json("{}")


def test_profile_golden_bytes_and_round_trip():
    golden = PROFILE_GOLDEN.read_text()
    assert profile_to_json(calibrated_profile(4, disorder_seed=5)) == golden
    assert profile_to_json(profile_from_json(golden)) == golden


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 20])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_calibrated_crosstalk_equals_per_id_oracle(n, seed):
    prof = calibrated_profile(n, disorder_seed=seed)
    alpha = np.diag(prof.crosstalk.matrix)
    want = neighbor_crosstalk(
        n,
        alpha,
        hardware.CALIBRATED_PARTNER_CROSSTALK,
        hardware.CALIBRATED_NEIGHBOR_CROSSTALK,
    )
    assert np.array_equal(prof.crosstalk.matrix, want)


@pytest.mark.parametrize(
    "edit, message",
    [
        # a 7-entry heater list for n=3 whose repeat carries phi0 = 1.234
        (
            lambda doc: doc["heaters"].append(
                dict(doc["heaters"][2], phi0_rad=1.234)
            ),
            "duplicate heater id 'c01r01.theta'",
        ),
        (
            lambda doc: doc["crosstalk_rad_per_w"].append(
                dict(doc["crosstalk_rad_per_w"][4], rad_per_w=0.001)
            ),
            r"duplicate crosstalk pair \(c00r00.phi, c01r01.theta\)",
        ),
        (
            lambda doc: doc["crosstalk_rad_per_w"].append(
                {"i": "c01r01.phi", "j": "c01r01.phi",
                 "rad_per_w": doc["heaters"][3]["alpha_rad_per_w"]}
            ),
            r"crosstalk pair \(c01r01.phi, c01r01.phi\) is diagonal",
        ),
    ],
)
def test_profile_loader_rejects_repeated_entries(edit, message):
    doc = hardware.profile_to_json_dict(calibrated_profile(3, disorder_seed=1))
    profile_from_json(json.dumps(doc))
    edit(doc)
    with pytest.raises(ValidationError, match="malformed profile document: " + message):
        profile_from_json(json.dumps(doc))


@pytest.mark.parametrize("build", [heater_order, ideal_profile, calibrated_profile])
def test_devices_need_two_modes(build):
    with pytest.raises(ValidationError, match="n >= 2"):
        build(1)


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("n", 1, "n >= 2"),
        # n takes ints only: int() would truncate 2.5 to the heaters' n=2
        ("n", 2.5, "integer"),
        ("n", 2.0, "integer"),
        ("n", True, "integer"),
        ("n", "2", "integer"),
        ("disorder_seed", 2.5, "non-negative integers"),
        ("disorder_seed", -1, "non-negative integers"),
    ],
)
def test_profile_loader_rejects_one_mode_and_bad_seeds(key, value, message):
    doc = hardware.profile_to_json_dict(calibrated_profile(2, disorder_seed=5))
    doc[key] = value
    with pytest.raises(ValidationError, match="malformed profile document: .*" + message):
        profile_from_json(json.dumps(doc))


@pytest.mark.parametrize(
    "path, value",
    [
        ("path_length_cm", "inf"),
        ("coupling_loss_db_per_facet", "nan"),
        ("theta_noise_sigma_rad", "nan"),
        ("phi_noise_sigma_rad", "inf"),
        ("heaters.3.phi0_rad", "nan"),
        ("heaters.0.resistance_ohm", "inf"),
        ("crosstalk_rad_per_w.0.rad_per_w", "nan"),
        ("disorder_seed", "inf"),
    ],
)
def test_profile_loader_rejects_non_finite_numbers(path, value):
    doc = hardware.profile_to_json_dict(calibrated_profile(4, disorder_seed=5))
    *parents, key = path.split(".")
    node = doc
    for step in parents:
        node = node[int(step) if step.isdigit() else step]
    node[key] = float(value)
    # json writes NaN and Infinity tokens, which the loader's parser accepts
    with pytest.raises(ValidationError, match="malformed profile document"):
        profile_from_json(json.dumps(doc))


def test_heater_targets_round_trip():
    settings = compiler.clements_decompose(
        compiler.haar_random(5, seed=13)
    ).settings
    vec = heater_targets(settings)
    back = settings_from_heater_phases(
        5, vec, output_phases=settings.output_phases
    )
    assert mesh.settings_to_json_dict(back) == mesh.settings_to_json_dict(settings)
