"""Smoke tests of the benchmark's own checks at small n.

Each check must accept the program's real output and reject a corrupted
copy of it. Run with `python3 -m pytest bench`.
"""

import copy

import numpy as np
import pytest

import campaigns
import tracing
from meshsim import compiler, experiments, hardware, mesh

SMALL_N = 5


def _report(kind, n=SMALL_N, count=1, seed=3, **params):
    doc = {"kind": kind, "n": n, "seed": seed, "count": count,
           "profile": "calibrated", "params": params}
    return doc, experiments.run_campaign(experiments.validate_config(doc))


@pytest.fixture(scope="module")
def fidelity():
    return _report("fidelity-haar", count=4)


@pytest.fixture(scope="module")
def hom_map():
    return _report("hom-map", count_noise_sigma=campaigns.HOM_COUNT_NOISE)


@pytest.fixture(scope="module")
def calibration():
    return _report("calibration", n=4, count=2)


def _items(failures):
    return {f.item for f in failures}


def test_fidelity_check(fidelity):
    _, report = fidelity
    assert campaigns.check_fidelity(report) == []

    above_one = copy.deepcopy(report)
    above_one["results"]["fidelities"][0] = 1.01
    assert 0 in _items(campaigns.check_fidelity(above_one))

    # a max entry 10x too large breaks maxE^2 / 2n <= 1 - F
    inflated = copy.deepcopy(report)
    inflated["results"]["max_error_entries"][1] *= 10.0
    assert 1 in _items(campaigns.check_fidelity(inflated))

    summary = copy.deepcopy(report)
    summary["summary"]["fidelity"]["mean"] += 1e-3
    assert None in _items(campaigns.check_fidelity(summary))


def test_fidelity_mean_check_at_paper_size():
    def synthetic(mean):
        fids = [mean - 0.001, mean, mean + 0.001] * 10
        return {
            "config": {"n": campaigns.N, "count": len(fids)},
            "results": {"fidelities": fids, "max_error_entries": [0.2] * len(fids)},
            "summary": {"fidelity": {"mean": float(np.mean(fids))}},
        }

    assert campaigns.check_fidelity(synthetic(0.974)) == []
    assert None in _items(campaigns.check_fidelity(synthetic(0.964)))


def test_compile_check():
    target = compiler.haar_random(SMALL_N, 11)
    settings = compiler.clements_decompose(target).settings
    assert campaigns.check_compiled_program(0, target.elements, settings) == []

    cells = dict(settings.cells)
    addr = mesh.CellAddress(1, 1)
    cells[addr] = mesh.CellSetting(cells[addr].theta + 1e-3, cells[addr].phi)
    off = mesh.MeshSettings(SMALL_N, cells, settings.output_phases)
    assert _items(campaigns.check_compiled_program(0, target.elements, off)) == {0}


def test_solve_closure_check():
    profile = hardware.calibrated_profile(SMALL_N, disorder_seed=2)
    record = hardware.CalibrationRecord.exact_from_profile(profile)
    target = np.random.default_rng(0).uniform(0.0, 2 * np.pi, len(profile.heater_ids))
    powers = hardware.solve_voltages(profile, record, target).powers_w
    assert campaigns.check_solve_closure(0, profile, target, powers) == []
    assert _items(campaigns.check_solve_closure(0, profile, target, powers + 1e-6)) == {0}


def test_hom_map_check(hom_map):
    _, report = hom_map
    assert campaigns.check_hom_map(report) == []
    key = "c01r01"
    index = mesh.cell_addresses(SMALL_N).index(mesh.CellAddress(1, 1))

    for value in (
        report["results"]["maps"][0]["visibilities"][key] - 0.1,
        1.2,
    ):
        bad = copy.deepcopy(report)
        bad["results"]["maps"][0]["visibilities"][key] = value
        assert _items(campaigns.check_hom_map(bad)) == {index}

    bad = copy.deepcopy(report)
    bad["results"]["maps"][0]["row_anova_p"] = 0.0
    assert None in _items(campaigns.check_hom_map(bad))


def test_calibration_check(calibration):
    _, report = calibration
    assert campaigns.check_calibration(report) == []

    bad = copy.deepcopy(report)
    bad["results"]["heaters"][3]["alpha_fit_rad_per_w"] *= 1.0 + 1e-3
    assert 3 in _items(campaigns.check_calibration(bad))

    bad = copy.deepcopy(report)
    bad["results"]["solve_check_errors_rad"][1] = 1e-3
    assert None in _items(campaigns.check_calibration(bad))


def test_same_payload_check(fidelity):
    _, report = fidelity
    assert campaigns.check_same_payload(report, copy.deepcopy(report)) == []
    other = copy.deepcopy(report)
    other["results"]["fidelities"][2] += 1e-9
    assert campaigns.check_same_payload(report, other) != []


@pytest.mark.parametrize(
    "case, items, corrupt",
    [
        ("fidelity", 4, lambda r: r["results"]["fidelities"].__setitem__(0, 0.5)),
        ("hom_map", 10,
         lambda r: r["results"]["maps"][0]["visibilities"].__setitem__("c00r00", 0.5)),
        ("calibration", 12, lambda r: r["results"]["heaters"][0].__setitem__("residual", 1.0)),
    ],
)
def test_replay_reproduces_campaign(case, items, corrupt, request):
    doc, report = request.getfixturevalue(case)
    replay = tracing.REPLAYS[doc["kind"]]
    tr = tracing.Tracer()
    assert replay(tr, doc, report)[:2] == (items, [])
    assert tr.program_seconds() > 0

    bad = copy.deepcopy(report)
    corrupt(bad)
    _, failures, _ = replay(tracing.Tracer(), doc, bad)
    assert failures != []


def test_failed_items():
    one = [campaigns.Failure(2, "x"), campaigns.Failure(2, "y")]
    assert campaigns.failed_items(one, 10) == 1
    assert campaigns.failed_items(one + [campaigns.Failure(None, "z")], 10) == 10
