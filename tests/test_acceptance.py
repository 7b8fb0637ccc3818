"""Acceptance gate: one test per release criterion, and a property twin
that checks a criterion over random small configs where one exists.

Each criterion test prints a single line with the measured values against the
stated bounds before asserting, so a verbose run reads as a checklist. Criterion 2
is a known red: its mean-fidelity clause pins the error-entry rms near
0.051, and the max over the 400,000 Haar-campaign entries then lands around
5 rms, so the < 0.2 max-entry clause cannot hold simultaneously. The test
asserts the criterion as stated rather than hiding the conflict; see the
printed breakdown for the measured numbers.
"""

import dataclasses
import time

import numpy as np
from hypothesis import given, settings, strategies as st
from oracles import fock_two_photon_distribution

from meshsim import analysis, compiler, experiments, hardware, mesh, quantum
from meshsim.util import child_seed, wrap_signed


def _line(tag, ok, detail):
    print(f"[{tag}] {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_01_decomposition_round_trip():
    started = time.time()

    def job(index):
        target = compiler.haar_random(20, child_seed(0, index))
        report = compiler.clements_decompose(target)
        rebuilt = mesh.mesh_unitary(report.settings)
        return float(np.max(np.abs(rebuilt.elements - target.elements)))

    residuals = [job(index) for index in range(1000)]
    elapsed = time.time() - started
    worst = max(residuals)
    ok = worst < 1e-8 and elapsed < 60
    _line("criterion 01", ok,
          f"1000 Haar 20x20 round trips, max residual {worst:.3e} (< 1e-8), "
          f"runtime {elapsed:.1f} s (< 60 s)")
    assert worst < 1e-8
    assert elapsed < 60


def test_criterion_02_fidelity_campaign_reproduction():
    started = time.time()
    haar_cfg = experiments.validate_config(
        {"kind": "fidelity-haar", "n": 20, "count": 1000,
         "profile": "calibrated", "seed": 0})
    haar = experiments.run_campaign(haar_cfg)
    perm_cfg = experiments.validate_config(
        {"kind": "fidelity-perm", "n": 20, "count": 190,
         "profile": "calibrated", "seed": 0})
    perm = experiments.run_campaign(perm_cfg)
    elapsed = time.time() - started

    haar_mean = haar["summary"]["fidelity"]["mean"]
    perm_mean = perm["summary"]["fidelity"]["mean"]
    max_entry = max(haar["summary"]["max_error_entry"],
                    perm["summary"]["max_error_entry"])
    ok_haar = abs(haar_mean - 0.974) <= 0.003
    ok_perm = 0.990 <= perm_mean <= 0.999
    ok_entry = max_entry < 0.2
    ok_time = elapsed < 300
    _line("criterion 02", ok_haar and ok_perm and ok_entry and ok_time,
          f"Haar mean F {haar_mean:.4f} (0.974 +/- 0.003: "
          f"{'ok' if ok_haar else 'out'}), perm mean F {perm_mean:.4f} "
          f"([0.990, 0.999]: {'ok' if ok_perm else 'out'}), max error entry "
          f"{max_entry:.3f} (< 0.2: {'ok' if ok_entry else 'VIOLATED'}; "
          f"haar max {haar['summary']['max_error_entry']:.3f}, perm max "
          f"{perm['summary']['max_error_entry']:.3f}), runtime {elapsed:.0f} s"
          f" (< 300 s)")
    assert ok_haar, f"Haar mean fidelity {haar_mean} not within 0.974 +/- 0.003"
    assert ok_perm, f"perm mean fidelity {perm_mean} not in [0.990, 0.999]"
    assert ok_time, f"runtime {elapsed:.0f} s exceeds 300 s"
    # Known red: at mean F = 0.974 the 400k-entry Haar campaign max sits
    # near 5x the 0.051 entry rms; bounding it by 0.2 conflicts with the
    # mean-fidelity clause above. Kept as stated; do not relax either bound.
    assert ok_entry, (
        f"max error-matrix entry {max_entry:.3f} >= 0.2 "
        f"(statistically forced once mean F = 0.974 fixes entry rms ~ 0.051)")


def test_criterion_03_noiseless_exactness():
    cfg = experiments.validate_config(
        {"kind": "fidelity-haar", "n": 20, "count": 100, "profile": "ideal"})
    report = experiments.run_campaign(cfg)
    worst = max(abs(f - 1.0) for f in report["results"]["fidelities"])
    ok = worst < 1e-9
    _line("criterion 03", ok,
          f"ideal profile, 100 targets, max |F - 1| {worst:.3e} (< 1e-9)")
    assert worst < 1e-9


def test_criterion_04_two_photon_oracle_equivalence():
    worst = 0.0
    worst_sum = 0.0
    overlaps = (0.0, 0.5, 1.0)
    for n in range(2, 7):
        for index in range(100):
            u = compiler.haar_random(n, child_seed(1000 + n, index))
            rng = np.random.default_rng(np.random.SeedSequence([n, index]))
            in_a, in_b = rng.choice(n, size=2, replace=False)
            overlap = overlaps[index % len(overlaps)]
            expected = fock_two_photon_distribution(
                u.elements, int(in_a), int(in_b), overlap)
            got = quantum.two_photon_output_distribution(
                u, (int(in_a), int(in_b)), overlap)
            total = sum(got.values())
            worst_sum = max(worst_sum, abs(total - 1.0))
            for pair, prob in expected.items():
                worst = max(worst, abs(got[pair] - prob))
    ok = worst < 1e-12 and worst_sum < 1e-12
    _line("criterion 04", ok,
          f"500 unitaries (n=2..6), max |formula - Fock oracle| {worst:.3e} "
          f"(< 1e-12), max |sum - 1| {worst_sum:.3e} (< 1e-12)")
    assert worst < 1e-12
    assert worst_sum < 1e-12


def test_criterion_05_hom_visibility_map():
    started = time.time()
    source = quantum.PhotonPairSource(mutual_overlap_at_zero_delay=0.98)

    ideal = quantum.hom_visibility_map(
        20, source, hardware.ideal_profile(20))
    worst_dev = float(np.max(np.abs(ideal.visibilities - 0.980)))
    ok_ideal = worst_dev <= 0.001 and ideal.visibilities.size == 190

    p_values = []
    for disorder_seed in range(10):
        profile = hardware.calibrated_profile(20, disorder_seed=disorder_seed)
        vmap = quantum.hom_visibility_map(
            20, source, profile, seed=disorder_seed)
        p_values.append((vmap.row_anova_p, vmap.column_anova_p))
    min_p = min(min(pair) for pair in p_values)
    ok_anova = min_p > 0.05
    elapsed = time.time() - started
    ok = ok_ideal and ok_anova and elapsed < 120
    _line("criterion 05", ok,
          f"ideal x0=0.98: 190 cells, max |V - 0.980| {worst_dev:.2e} "
          f"(<= 0.001); 10 seeded maps: min ANOVA p {min_p:.3f} (> 0.05), "
          f"runtime {elapsed:.0f} s (< 120 s)")
    assert ok_ideal, f"ideal-map deviation {worst_dev} exceeds 0.001"
    assert ok_anova, f"ANOVA p {min_p} at or below 0.05"
    assert elapsed < 120


def test_criterion_06_routing_soundness():
    checked = 0
    for target in mesh.cell_addresses(20):
        plan = quantum.route_to_tbs(20, target)
        quantum.verify_routing(plan, strict=True)
        checked += 1
    ok = checked == 190
    _line("criterion 06", ok,
          f"{checked}/190 routing plans pass the strict path-isolation trace")
    assert checked == 190


def test_criterion_07_delay_sweep_shift():
    wavelength_um = quantum.DEFAULT_CENTER_WAVELENGTH_NM * 1e-3
    sweep = quantum.diagonal_delay_sweep(
        20, hardware.ideal_profile(20), [0.0, 3.0 * np.pi])
    expected_per_heater = 3.0 * np.pi * wavelength_um / (2.0 * np.pi)
    per_heater_err = abs(sweep.per_heater_shift_um - expected_per_heater)
    ok = sweep.total_shift_um > 60 and per_heater_err < 1e-6
    _line("criterion 07", ok,
          f"3 pi drive on {sweep.heater_count} arm heaters shifts the dip "
          f"center {sweep.total_shift_um:.3f} um (> 60 um); per-heater shift "
          f"off by {per_heater_err:.2e} um (< 1e-6 um)")
    assert sweep.total_shift_um > 60
    assert per_heater_err < 1e-6


def test_criterion_08_loss_accounting():
    profile = hardware.calibrated_profile(20)
    per_mode = hardware.insertion_loss_per_mode(profile)
    mean_loss = float(np.mean(per_mode))
    size = analysis.useful_processor_size(0.1)
    ok = abs(mean_loss - 2.9) <= 0.1 and size == 43
    _line("criterion 08", ok,
          f"mean insertion loss {mean_loss:.3f} dB (2.9 +/- 0.1, from 2 x 0.9"
          f" dB facets + 0.07 dB/cm x 15.7 cm), useful_processor_size(0.1) ="
          f" {size} (== 43)")
    assert abs(mean_loss - 2.9) <= 0.1
    assert size == 43


# criterion 08 for any small device and finite loss figures
@settings(max_examples=100, deadline=None)
@given(
    st.integers(2, 8),
    st.integers(0, 2**32 - 1),
    st.floats(0.0, 5.0),
    st.floats(0.0, 1.0),
    st.floats(0.0, 30.0),
    st.lists(st.floats(1e-3, 10.0), min_size=2, max_size=2),
)
def test_criterion_08_loss_accounting_property(n, seed, facet, prop, path, losses):
    profile = dataclasses.replace(
        hardware.calibrated_profile(n, seed),
        coupling_loss_db_per_facet=facet,
        propagation_loss_db_per_cm=prop,
        path_length_cm=path,
    )
    per_mode = hardware.insertion_loss_per_mode(profile)
    assert per_mode.shape == (n,)
    assert np.max(np.abs(per_mode - (2 * facet + prop * path))) <= 1e-12
    low, high = sorted(losses)
    assert analysis.useful_processor_size(low) >= analysis.useful_processor_size(high)


def test_criterion_09_calibration_closure():
    started = time.time()
    profile = hardware.calibrated_profile(20)
    record = hardware.calibrate_profile(profile, points=64, seed=0,
                                        detector_noise_sigma=0.0)
    order = hardware.heater_order(20)
    assert len(order) == 380
    worst_rel = 0.0
    for hid in order:
        true = profile.heaters[hid]
        fit = record.entries[hid]
        worst_rel = max(
            worst_rel,
            abs(fit.phi0_rad - true.phi0_rad) / abs(true.phi0_rad),
            abs(fit.alpha_rad_per_w - true.alpha_rad_per_w)
            / abs(true.alpha_rad_per_w))

    worst_solve = 0.0
    for check in range(3):
        rng = np.random.default_rng(np.random.SeedSequence([0, 909, check]))
        target = rng.uniform(0.0, 2.0 * np.pi, len(order))
        drive = hardware.solve_voltages(profile, record, target)
        realized = hardware.realized_heater_phases(profile, drive.powers_w)
        worst_solve = max(
            worst_solve, float(np.max(np.abs(wrap_signed(realized - target)))))
    elapsed = time.time() - started
    ok = worst_rel < 1e-6 and worst_solve < 1e-9 and elapsed < 30
    _line("criterion 09", ok,
          f"380 heaters: max (phi0, alpha) relative error {worst_rel:.3e} "
          f"(< 1e-6); crosstalk-compensated solve max phase error "
          f"{worst_solve:.3e} rad (< 1e-9 mod 2 pi); runtime {elapsed:.1f} s "
          f"(< 30 s)")
    assert worst_rel < 1e-6
    assert worst_solve < 1e-9
    assert elapsed < 30


def test_criterion_10_determinism():
    docs = [
        {"kind": "fidelity-perm", "n": 6, "count": 10, "profile": "calibrated",
         "seed": 7},
        {"kind": "hom-map", "n": 6, "profile": "calibrated", "seed": 7,
         "params": {"count_noise_sigma": 0.02}},
        {"kind": "calibration", "n": 4, "count": 2, "profile": "calibrated",
         "seed": 7, "params": {"points": 16,
                               "detector_noise_sigma": 0.001}},
    ]
    all_ok = True
    details = []
    for doc in docs:
        cfg = experiments.validate_config(dict(doc))
        payloads = {
            experiments.report_payload_bytes(
                experiments.run_campaign(cfg, workers=workers))
            for workers in (1, 1, 3, 4)
        }
        same = len(payloads) == 1
        all_ok = all_ok and same
        details.append(f"{doc['kind']}: {'stable' if same else 'DRIFTS'}")
    _line("criterion 10", all_ok,
          "byte-identical payloads across repeat runs and worker counts 1/3/4"
          f" ({'; '.join(details)})")
    assert all_ok
