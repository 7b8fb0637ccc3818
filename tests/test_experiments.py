import dataclasses
import json
import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from meshsim import analysis, cli, compiler, experiments, hardware, mesh, quantum
from meshsim.experiments import (
    report_payload_bytes,
    run_campaign,
    run_campaign_with_artifacts,
    unitary_from_json_dict,
    unitary_to_json_dict,
    validate_config,
)
from meshsim.util import UsageError, ValidationError, as_real, child_seed, seeded_rng

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "goldens")

# small-scale configs, one per campaign kind
SMALL_CONFIGS = {
    "fidelity-haar": {"kind": "fidelity-haar", "n": 4, "count": 4,
                      "profile": "calibrated", "seed": 3},
    "fidelity-perm": {"kind": "fidelity-perm", "n": 5, "count": 6,
                      "profile": "calibrated", "seed": 3},
    "calibration": {"kind": "calibration", "n": 3, "count": 2,
                    "profile": "calibrated", "seed": 3,
                    "params": {"points": 16, "detector_noise_sigma": 0.001}},
    "hom-map": {"kind": "hom-map", "n": 5, "count": 2,
                "profile": "calibrated", "seed": 3,
                "params": {"count_noise_sigma": 0.01}},
    "hom-scan": {"kind": "hom-scan", "n": 5, "seed": 3,
                 "profile": "calibrated",
                 "params": {"target": [1, 1], "overlap": 0.9}},
    "delay-sweep": {"kind": "delay-sweep", "n": 5, "seed": 3,
                    "params": {"levels_rad": [0.0, 2.0, 4.0]}},
    "loss-report": {"kind": "loss-report", "n": 6, "profile": "calibrated",
                    "params": {"loss_per_cell_db": [0.1, 0.055, 0.05]}},
    "platform": {"kind": "platform", "n": 2},
}


def _golden_compare(name, payload_bytes):
    """Byte-compare against tests/goldens/<name>, or write it if missing.

    Returns True when the golden was created."""
    path = os.path.join(GOLDEN_DIR, name)
    if not os.path.exists(path):
        os.makedirs(GOLDEN_DIR, exist_ok=True)
        with open(path, "wb") as handle:
            handle.write(payload_bytes)
        return True
    with open(path, "rb") as handle:
        expected = handle.read()
    assert payload_bytes == expected, f"payload drifted from golden {name}"
    return False


def _golden_check(name, payload_bytes):
    """Byte-compare against tests/goldens/<name>; write it on first run."""
    if _golden_compare(name, payload_bytes):
        pytest.skip(f"golden {name} created; rerun to compare")


def test_config_defaults():
    cfg = validate_config({"kind": "fidelity-haar"})
    assert cfg.n == 20
    assert cfg.seed == 0
    assert cfg.count == 1000
    assert cfg.profile == "ideal"
    assert cfg.params == {}
    cfg = validate_config({"kind": "fidelity-perm"})
    assert cfg.count == 190
    cfg = validate_config({"kind": "hom-scan"})
    assert cfg.count == 1
    assert cfg.params["target"] == [0, 0]
    assert cfg.params["overlap"] == pytest.approx(1 / 1.1)


def test_config_rejects_unknown_key():
    with pytest.raises(UsageError, match="bogus"):
        validate_config({"kind": "platform", "bogus": 1})


def test_config_rejects_negative_count():
    with pytest.raises(UsageError, match="count"):
        validate_config({"kind": "fidelity-haar", "count": -5})


def test_config_rejects_bad_kind():
    with pytest.raises(UsageError, match="kind"):
        validate_config({"kind": "fidelity"})
    with pytest.raises(UsageError, match="kind"):
        validate_config({})


def test_config_rejects_small_n():
    with pytest.raises(UsageError, match="'n'"):
        validate_config({"kind": "platform", "n": 1})


def test_config_rejects_count_on_single_shot_kinds():
    for kind in ("hom-scan", "delay-sweep", "loss-report", "platform"):
        with pytest.raises(UsageError, match="count"):
            validate_config({"kind": kind, "count": 2})


def test_config_rejects_more_permutations_than_exist():
    assert validate_config({"kind": "fidelity-perm", "n": 3, "count": 6}).count == 6
    with pytest.raises(UsageError, match="count"):
        validate_config({"kind": "fidelity-perm", "n": 3, "count": 7})


def test_config_rejects_unknown_param():
    with pytest.raises(UsageError, match="unknown params"):
        validate_config({"kind": "hom-map", "params": {"points": 3}})


def test_config_rejects_bad_param_values():
    with pytest.raises(UsageError, match="points"):
        validate_config({"kind": "calibration", "params": {"points": 4}})
    with pytest.raises(UsageError, match="overlap"):
        validate_config({"kind": "hom-map", "params": {"overlap": 1.5}})
    with pytest.raises(UsageError, match="levels_rad"):
        validate_config({"kind": "delay-sweep", "params": {"levels_rad": []}})
    with pytest.raises(UsageError, match="loss_per_cell_db"):
        validate_config({"kind": "loss-report",
                         "params": {"loss_per_cell_db": [0.0]}})
    with pytest.raises(UsageError, match="target"):
        validate_config({"kind": "hom-scan", "n": 4,
                         "params": {"target": [0, 1]}})
    # json.load accepts Infinity and integers no float can hold, neither of
    # which a report could serialise
    with pytest.raises(UsageError, match="loss_per_cell_db"):
        validate_config({"kind": "loss-report",
                         "params": {"loss_per_cell_db": [float("inf")]}})
    with pytest.raises(UsageError, match="overlap"):
        validate_config({"kind": "hom-map", "params": {"overlap": 10**400}})
    with pytest.raises(UsageError, match="levels_rad"):
        validate_config({"kind": "delay-sweep",
                         "params": {"levels_rad": [0.0, float("nan")]}})
    # the diagonal interferometer of a delay sweep needs n >= 3
    with pytest.raises(UsageError, match="'n'"):
        validate_config({"kind": "delay-sweep", "n": 2})


def test_hom_scan_targets_last_mesh_column():
    # an n-mode mesh has n columns; the last one holds cells too, which
    # route_to_tbs routes and hom-map scans
    cfg = validate_config({"kind": "hom-scan", "n": 4,
                           "params": {"target": [3, 1]}})
    assert cfg.params["target"] == [3, 1]
    report = run_campaign(cfg)
    plan = quantum.route_to_tbs(4, (3, 1))
    assert report["results"]["input_pair"] == list(plan.input_pair)
    assert report["results"]["output_pair"] == list(plan.output_pair)
    assert 0.0 <= report["summary"]["fit"]["visibility"] <= 1.0
    for target in ([4, 1], [3, 0]):
        with pytest.raises(UsageError, match="not a cell"):
            validate_config({"kind": "hom-scan", "n": 4,
                             "params": {"target": target}})


# public calls that draw from a seed they are given
SEEDED_CALLS = {
    "haar_random": lambda seed: compiler.haar_random(3, seed),
    "permutation_ensemble": lambda seed: compiler.permutation_ensemble(3, 2, seed),
    "calibrated_profile": lambda seed: hardware.calibrated_profile(3, seed),
    "realized_transfer": lambda seed: hardware.realized_transfer(
        hardware.ideal_profile(3), mesh.bar_settings(3), seed
    ),
    "hom_scan": lambda seed: quantum.hom_scan(
        quantum.route_to_tbs(3, (0, 0)), quantum.PhotonPairSource(),
        hardware.ideal_profile(3), seed=seed,
    ),
    "hom_visibility_map": lambda seed: quantum.hom_visibility_map(
        3, quantum.PhotonPairSource(), hardware.ideal_profile(3), seed=seed
    ),
    "diagonal_delay_sweep": lambda seed: quantum.diagonal_delay_sweep(
        3, hardware.ideal_profile(3), [0.0, 1.0], seed=seed
    ),
    "child_seed": lambda seed: child_seed(seed, 0),
}


@pytest.mark.parametrize("seed", [-1, 1.5, np.float64(2.0), True, "3"])
@pytest.mark.parametrize("call", sorted(SEEDED_CALLS))
def test_seeds_must_be_non_negative_integers(call, seed):
    with pytest.raises(ValidationError, match="non-negative integers"):
        SEEDED_CALLS[call](seed)


# public calls that take a size, a sweep length or a cell coordinate
INTEGER_CALLS = {
    "ideal_profile": hardware.ideal_profile,
    "calibrated_profile": hardware.calibrated_profile,
    "haar_random": lambda value: compiler.haar_random(value, 1),
    "cell_addresses": mesh.cell_addresses,
    "diagonal_interferometer_plan": quantum.diagonal_interferometer_plan,
    "heater_id": lambda value: hardware.heater_id(value, 1, "theta"),
    "simulate_calibration_sweep": lambda value: hardware.simulate_calibration_sweep(
        hardware.ideal_profile(3), "c00r00.theta", points=value
    ),
    "calibrate_profile": lambda value: hardware.calibrate_profile(
        hardware.ideal_profile(3), points=value
    ),
}


@pytest.mark.parametrize("value", [2.5, 3.0])
@pytest.mark.parametrize("call", sorted(INTEGER_CALLS))
def test_sizes_and_coordinates_must_be_integers(call, value):
    # a cache keyed on np.int64(3) answers 3.0 too unless keyed by type
    hardware.heater_order(np.int64(3))
    with pytest.raises(ValidationError, match="integer"):
        INTEGER_CALLS[call](value)


def _profile_doc(path, value):
    """Profile document of an ideal n=2 device with the field at a dotted
    path set to value."""
    doc = hardware.profile_to_json_dict(hardware.ideal_profile(2))
    *parents, key = path.split(".")
    node = doc
    for step in parents:
        node = node[int(step) if step.isdigit() else step]
    node[key] = value
    return doc


def _tbs_scan(**options):
    return quantum.hom_scan(
        quantum.route_to_tbs(3, (0, 0)), quantum.PhotonPairSource(),
        hardware.ideal_profile(3), **options,
    )


# entry points that take a scalar real, with the error each one raises
REAL_CALLS = {
    "config": (UsageError, lambda value: validate_config(
        {"kind": "hom-map", "params": {"overlap": value}}
    )),
    "PhotonPairSource": (ValidationError, quantum.PhotonPairSource),
    "two_photon_coincidence": (ValidationError, lambda value: (
        quantum.two_photon_coincidence(np.eye(2), (0, 1), (0, 1), value)
    )),
    "two_photon_output_distribution": (ValidationError, lambda value: (
        quantum.two_photon_output_distribution(np.eye(2), (0, 1), value)
    )),
    "HardwareProfile": (ValidationError, lambda value: dataclasses.replace(
        hardware.ideal_profile(2), theta_noise_sigma_rad=value
    )),
    "lossy_products": (ValidationError, lambda value: mesh.lossy_products(
        np.zeros((1, 1, 2, 2)), np.zeros((1, 2)), value, 0.0, 0.0
    )),
    "detector_noise_sigma": (ValidationError, lambda value: (
        hardware.simulate_calibration_sweep(
            hardware.ideal_profile(2), "c00r00.theta", detector_noise_sigma=value
        )
    )),
    "count_noise_sigma": (ValidationError, lambda value: _tbs_scan(count_noise_sigma=value)),
    "fit_phase_response": (ValidationError, lambda value: hardware.fit_phase_response(
        hardware.simulate_calibration_sweep(hardware.ideal_profile(2), "c00r00.theta"),
        value,
    )),
    "useful_processor_size": (ValidationError, analysis.useful_processor_size),
    "PlatformEntry": (ValidationError, lambda value: analysis.PlatformEntry(
        "x", "y", 4, value, 1.0, "z"
    )),
    "hom_scan_arm_delay": (ValidationError, lambda value: _tbs_scan(arm_delay_um=value)),
    "overlap_at": (ValidationError, lambda value: (
        quantum.PhotonPairSource().overlap_at(np.zeros(3), value)
    )),
    "profile_loader_scalar": (ValidationError, lambda value: (
        hardware.profile_from_json_dict(_profile_doc("coupling_loss_db_per_facet", value))
    )),
    "profile_loader_heater": (ValidationError, lambda value: (
        hardware.profile_from_json_dict(_profile_doc("heaters.0.resistance_ohm", value))
    )),
    "settings_loader": (ValidationError, lambda value: mesh.settings_from_json_dict(
        dict(mesh.settings_to_json_dict(mesh.bar_settings(2)), output_phases=[value, 0.0])
    )),
    "unitary_loader": (ValidationError, lambda value: unitary_from_json_dict(
        {"n": 2, "re": [[value, 0], [0, 1]], "im": [[0, 0], [0, 0]]}
    )),
}


@pytest.mark.parametrize(
    "value", [True, "0.5", None, math.nan, math.inf, 10**400],
    ids=["True", "str", "None", "nan", "inf", "10**400"],
)
@pytest.mark.parametrize("entry", sorted(REAL_CALLS))
def test_reals_must_be_finite_numbers(entry, value):
    # util.as_real decides every one of these: a bool, a string, None, NaN,
    # an infinity or an int no float can hold is neither accepted nor left
    # to escape as a TypeError from deeper down
    error, call = REAL_CALLS[entry]
    with pytest.raises(error, match=r"must be (a real number|finite)") as exc:
        call(value)
    # the message abridges the value: 10**400 would add its 401 digits
    assert len(str(exc.value)) < 120


def test_as_real_bounds_and_result():
    assert as_real(np.float32(0.1), "x") == float(np.float32(0.1))
    assert type(as_real(np.int64(3), "x")) is float
    assert as_real(0, "x", 0) == 0.0 and as_real(1, "x", 0, 1) == 1.0
    for value, bounds, message in (
        (0, {"above": 0}, "x must be finite and > 0, got 0"),
        (-0.5, {"lo": 0}, "x must be finite and >= 0, got -0.5"),
        (1.5, {"lo": 0, "hi": 1}, "x must be finite and >= 0 and <= 1, got 1.5"),
        (np.bool_(True), {}, "x must be a real number, got np.True_"),
        ([0.5], {}, "x must be a real number, got [0.5]"),
        (np.array(0.5), {}, "x must be a real number, got array(0.5)"),
    ):
        with pytest.raises(ValidationError) as exc:
            as_real(value, "x", **bounds)
        assert str(exc.value) == message


def test_config_rejects_bad_schema_version():
    with pytest.raises(UsageError, match="schema_version"):
        validate_config({"kind": "platform", "schema_version": 99})


def test_resolve_profile_rejects_n_mismatch(tmp_path):
    profile = hardware.ideal_profile(4)
    path = tmp_path / "p4.json"
    hardware.write_profile(profile, str(path))
    cfg = validate_config({"kind": "loss-report", "n": 6, "profile": str(path)})
    with pytest.raises(UsageError, match="n="):
        experiments.resolve_profile(cfg)


def test_resolve_profile_rejects_unreadable_and_malformed_files(tmp_path):
    cfg = validate_config({"kind": "loss-report", "n": 4,
                           "profile": str(tmp_path)})
    with pytest.raises(UsageError, match="cannot read profile"):
        experiments.resolve_profile(cfg)
    doc = json.loads(hardware.profile_to_json(hardware.ideal_profile(4)))
    doc["path_length_cm"] = "abc"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    cfg = validate_config({"kind": "loss-report", "n": 4, "profile": str(path)})
    with pytest.raises(ValidationError, match="malformed profile"):
        experiments.resolve_profile(cfg)


@pytest.mark.parametrize("kind", sorted(SMALL_CONFIGS))
def test_campaign_golden(kind):
    cfg = validate_config(dict(SMALL_CONFIGS[kind]))
    report = run_campaign(cfg)
    _golden_check(f"{kind}.json", report_payload_bytes(report))


@pytest.mark.parametrize("kind", sorted(SMALL_CONFIGS))
def test_campaign_csv_golden(kind):
    cfg = validate_config(dict(SMALL_CONFIGS[kind]))
    _, csv_files = run_campaign_with_artifacts(cfg)
    pinned = sorted(
        name[len(kind) + 1:]
        for name in os.listdir(GOLDEN_DIR)
        if name.startswith(f"{kind}.") and name.endswith(".csv")
    )
    # a pinned golden the campaign no longer writes fails; a CSV without a
    # golden is written and the test skipped, as for the JSON goldens
    assert not set(pinned) - set(csv_files), "pinned CSV goldens not written"
    created = [
        name
        for name, text in sorted(csv_files.items())
        if _golden_compare(f"{kind}.{name}", text.encode())
    ]
    if created:
        pytest.skip(f"CSV goldens {created} created; rerun to compare")


# the kinds whose goldens hold their bytes whatever SIMD targets numpy
# dispatches to and whatever core type OpenBLAS picks; delay-sweep,
# fidelity-haar and hom-scan still drift with AVX-512 off, and fidelity-haar
# and fidelity-perm under either OpenBLAS core type
HOST_INDEPENDENT_KINDS = ("calibration", "hom-map", "loss-report", "platform")

_AVX512 = "X86_V4 AVX512_SPR AVX512_ICL"

# the goldens of the kinds given, and the rows of a stacked n=20 drive solve
# that differ from their own single solve by any bit
_GOLDEN_TEXTS = """
import json, sys
import numpy as np
from meshsim import hardware
from meshsim.experiments import (
    report_payload_bytes, run_campaign_with_artifacts, validate_config,
)
texts = {}
for kind, doc in json.loads(sys.argv[1]).items():
    report, csv_files = run_campaign_with_artifacts(validate_config(doc))
    texts[kind + ".json"] = report_payload_bytes(report).decode()
    texts.update((kind + "." + name, text) for name, text in csv_files.items())
profile = hardware.calibrated_profile(20)
record = hardware.calibrate_profile(profile, points=16, detector_noise_sigma=1e-3)
targets = np.random.default_rng(5).uniform(0.0, 2 * np.pi, (16, 380))
stacked = hardware.solve_voltages(profile, record, targets)
realized = hardware.realized_heater_phases(profile, stacked.powers_w)

def hexes(*values):
    return [x.hex() for v in values for x in np.ravel(v).astype(float).tolist()]

unequal = []
for row, target in enumerate(targets):
    single = hardware.solve_voltages(profile, record, target)
    got = hexes(stacked.powers_w[row], stacked.voltages_v[row], realized[row],
                stacked.iterations[row], stacked.residual_rad[row])
    want = hexes(single.powers_w, single.voltages_v,
                 hardware.realized_heater_phases(profile, single.powers_w),
                 single.iterations, single.residual_rad)
    if got != want:
        unequal.append(row)
print(json.dumps({"goldens": texts, "unequal_solve_rows": unequal}))
"""


@pytest.mark.parametrize("setting", [
    {},
    {"NPY_DISABLE_CPU_FEATURES": _AVX512},
    {"NPY_DISABLE_CPU_FEATURES": _AVX512 + " X86_V3"},
    {"OPENBLAS_CORETYPE": "Haswell"},
    {"OPENBLAS_CORETYPE": "Prescott"},
], ids=["default", "no-avx512", "no-avx2", "haswell", "prescott"])
def test_goldens_hold_under_cpu_dispatch(setting):
    env = dict(os.environ, **setting)
    src = os.path.dirname(os.path.dirname(os.path.abspath(experiments.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    configs = {kind: SMALL_CONFIGS[kind] for kind in HOST_INDEPENDENT_KINDS}
    done = subprocess.run(
        [sys.executable, "-c", _GOLDEN_TEXTS, json.dumps(configs)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    # numpy runs a stacked matrix-vector product row by row, the same
    # product as a single solve; a build where it does not fails here
    assert out["unequal_solve_rows"] == [], ("stacked solve rows differ", setting)
    texts = out["goldens"]
    pinned = sorted(
        name for name in os.listdir(GOLDEN_DIR)
        if name.split(".")[0] in HOST_INDEPENDENT_KINDS
    )
    assert sorted(texts) == pinned
    drifted = []
    for name in pinned:
        with open(os.path.join(GOLDEN_DIR, name), "rb") as handle:
            if handle.read() != texts[name].encode():
                drifted.append(name)
    assert drifted == [], setting


@pytest.mark.parametrize("kind", sorted(SMALL_CONFIGS))
def test_campaign_deterministic_across_runs_and_workers(kind):
    cfg = validate_config(dict(SMALL_CONFIGS[kind]))
    first = report_payload_bytes(run_campaign(cfg, workers=1))
    again = report_payload_bytes(run_campaign(cfg, workers=1))
    parallel = report_payload_bytes(run_campaign(cfg, workers=3))
    assert first == again
    assert first == parallel


def test_campaigns_start_no_thread(monkeypatch):
    # campaigns run serially; a worker count is accepted and ignored
    def refuse(thread):
        raise AssertionError(f"a campaign started thread {thread.name}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    for kind in ("fidelity-perm", "hom-map", "calibration"):
        run_campaign(validate_config(dict(SMALL_CONFIGS[kind])), workers=4)


def test_campaigns_run_with_scipy_blocked():
    # scipy is a test dependency only: every campaign kind must run to
    # completion in a process where importing it fails
    script = (
        "import json, sys\n"
        "sys.modules['scipy'] = None\n"
        "from meshsim.experiments import CAMPAIGNS, run_campaign, validate_config\n"
        "configs = json.loads(sys.argv[1])\n"
        "assert sorted(configs) == sorted(CAMPAIGNS), sorted(configs)\n"
        "for kind in sorted(CAMPAIGNS):\n"
        "    run_campaign(validate_config(configs[kind]))\n"
        "print(sorted(CAMPAIGNS))\n"
    )
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(experiments.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", script, json.dumps(SMALL_CONFIGS)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == repr(sorted(experiments.CAMPAIGNS))


def _count_stack_calls(monkeypatch):
    # log the stack sizes handed to compile, drive solve and realization
    calls, solves, realized = [], [], []
    stacked, solve = compiler.decompose_stack, hardware.solve_voltages
    realize = hardware.realized_transfers

    def counted(targets):
        calls.append(len(targets))
        return stacked(targets)

    def counted_solve(profile, record, targets):
        solves.append(np.shape(targets))
        return solve(profile, record, targets)

    def counted_realize(profile, theta, *rest):
        realized.append(len(theta))
        return realize(profile, theta, *rest)

    monkeypatch.setattr(compiler, "decompose_stack", counted)
    monkeypatch.setattr(hardware, "solve_voltages", counted_solve)
    monkeypatch.setattr(hardware, "realized_transfers", counted_realize)
    return calls, solves, realized


@pytest.mark.parametrize("kind", ["fidelity-haar", "fidelity-perm"])
def test_fidelity_items_independent_of_compile_chunks(kind, monkeypatch):
    # 70 items cross the edge of the first hardware.CHUNK; the first three
    # must not notice, neither the worker count nor the chunk size may change
    # a byte, and the targets must be compiled, their drives solved and
    # their transfers realized a chunk at a time, never one per item
    calls, solves, realized = _count_stack_calls(monkeypatch)
    doc = {"kind": kind, "n": 6, "profile": "calibrated", "seed": 11}
    few = run_campaign(validate_config(dict(doc, count=3)))
    assert calls == [3] and solves == [(3, 30)] and realized == [3]
    cfg = validate_config(dict(doc, count=70))
    payload = None
    for chunk in (hardware.CHUNK, 1, 7, 190):
        monkeypatch.setattr(hardware, "CHUNK", chunk)
        for log in (calls, solves, realized):
            log.clear()
        many = run_campaign(cfg, workers=1)
        assert calls == [min(chunk, 70 - start) for start in range(0, 70, chunk)]
        assert solves == [(size, 30) for size in calls]
        assert realized == calls
        for key, values in few["results"].items():
            assert many["results"][key][:3] == values, key
        if payload is None:
            payload = report_payload_bytes(many)
            assert report_payload_bytes(run_campaign(cfg, workers=3)) == payload
        assert report_payload_bytes(many) == payload, chunk


@pytest.mark.parametrize("kind, extra", [
    ("hom-map", {"count": 2, "params": {"count_noise_sigma": 0.02}}),
    ("fidelity-haar", {"count": 40}),
    ("delay-sweep", {"params": {"levels_rad": [0.5 * k for k in range(9)]}}),
])
def test_payload_independent_of_transfer_chunk(kind, extra, monkeypatch):
    # noisy transfers are realized at most hardware.CHUNK programs at a
    # time; neither that chunk nor the worker count may change a byte
    _, _, realized = _count_stack_calls(monkeypatch)
    cfg = validate_config(
        dict(kind=kind, n=8, profile="calibrated", seed=13, **extra)
    )
    payload = report_payload_bytes(run_campaign(cfg))
    items = sum(realized)
    for chunk in (1, 7, 190):
        monkeypatch.setattr(hardware, "CHUNK", chunk)
        for workers in (1, 3):
            realized.clear()
            got = report_payload_bytes(run_campaign(cfg, workers=workers))
            assert got == payload, (chunk, workers)
            assert sum(realized) == items and max(realized) <= chunk, chunk


def test_calibration_solves_its_checks_in_one_call(monkeypatch):
    # every check target is drawn from its own generator, and the checks are
    # solved as one stack
    solves = []
    solve = hardware.solve_voltages

    def counted_solve(profile, record, targets):
        solves.append(np.array(targets))
        return solve(profile, record, targets)

    monkeypatch.setattr(hardware, "solve_voltages", counted_solve)
    report = run_campaign(validate_config(
        {"kind": "calibration", "n": 4, "count": 5, "seed": 3, "profile": "calibrated"}
    ))
    assert len(solves) == 1
    want = [
        seeded_rng(3, experiments._SOLVE_CHECK_STREAM, check).uniform(0.0, 2 * np.pi, 12)
        for check in range(5)
    ]
    assert solves[0].tolist() == np.array(want).tolist()
    assert len(report["results"]["solve_check_errors_rad"]) == 5


def test_calibration_payload_independent_of_screen_cells(monkeypatch):
    # the fringe screen takes _SCREEN_CELLS // (grid points x 16 samples)
    # heaters per pass: the cell counts below screen the 12 heaters of n=4
    # one at a time, five at a time (5, 5, 2) and all at once; none may
    # change a byte
    doc = {
        "kind": "calibration", "n": 4, "seed": 5, "profile": "calibrated",
        "params": {"points": 16, "detector_noise_sigma": 0.01},
    }
    payload = report_payload_bytes(run_campaign(validate_config(doc)))
    for cells in (1, 5 * hardware._ALPHA_GRID.size * 16, 1 << 22):
        monkeypatch.setattr(hardware, "_SCREEN_CELLS", cells)
        got = report_payload_bytes(run_campaign(validate_config(doc)))
        assert got == payload, cells


@pytest.mark.parametrize("shift", [2 * np.pi, -2 * np.pi])
def test_calibration_phi0_error_is_taken_modulo_two_pi(tmp_path, shift):
    # a profile whose phi0 lies outside [0, 2 pi) is the same device; the
    # fitted phi0 is wrapped, so the error is measured against the wrapped
    # true phi0, while the report keeps the profile's own value
    prof = hardware.calibrated_profile(4, disorder_seed=1)
    path = str(tmp_path / "shifted.json")
    hardware.write_profile(
        dataclasses.replace(prof, phi0_rad=prof.phi0_rad + shift), path
    )
    report = run_campaign(validate_config(
        {"kind": "calibration", "n": 4, "seed": 1, "profile": path}
    ))
    assert report["summary"]["max_phi0_rel_error"] < 1e-12
    true_phi0 = [row["phi0_true_rad"] for row in report["results"]["heaters"]]
    assert true_phi0 == hardware.load_profile(path).phi0_rad.tolist()


def test_calibration_with_a_slow_polish_runs():
    # one 8-point sweep at noise 0.05 needs about 290 Gauss-Newton steps
    report = run_campaign(validate_config({
        "kind": "calibration", "n": 20, "seed": 4, "count": 1,
        "profile": "calibrated",
        "params": {"points": 8, "detector_noise_sigma": 0.05},
    }))
    rows = {row["heater_id"]: row for row in report["results"]["heaters"]}
    assert rows["c01r13.phi"]["alpha_fit_rad_per_w"] == pytest.approx(10.12024, rel=1e-6)
    assert rows["c01r13.phi"]["residual"] == pytest.approx(0.0440, rel=1e-3)


def test_report_meta_excluded_from_payload():
    cfg = validate_config({"kind": "platform"})
    report = run_campaign(cfg)
    assert "meta" in report
    assert b"started_utc" not in report_payload_bytes(report)


def test_artifacts_written_atomically(tmp_path):
    doc = dict(SMALL_CONFIGS["hom-scan"])
    doc["out_dir"] = str(tmp_path)
    cfg = validate_config(doc)
    report, csv_files = run_campaign_with_artifacts(cfg)
    names = sorted(os.listdir(tmp_path))
    assert names == sorted(report["artifacts"])
    with open(tmp_path / "report.json") as handle:
        on_disk = json.load(handle)
    assert on_disk["summary"] == json.loads(
        report_payload_bytes(report))["summary"]
    with open(tmp_path / "scan.csv") as handle:
        assert handle.read() == csv_files["scan.csv"]


def test_fidelity_haar_ideal_is_exact():
    cfg = validate_config({"kind": "fidelity-haar", "n": 4, "count": 5})
    report = run_campaign(cfg)
    assert report["summary"]["fidelity"]["mean"] == pytest.approx(1.0, abs=1e-12)
    assert report["summary"]["max_error_entry"] < 1e-12
    assert report["summary"]["error_entries_above_0p2"] == 0


def test_fidelity_perm_results_carry_permutations():
    cfg = validate_config(
        {"kind": "fidelity-perm", "n": 4, "count": 5, "profile": "calibrated"})
    report = run_campaign(cfg)
    perms = report["results"]["permutations"]
    assert len(perms) == 5
    assert all(sorted(p) == [0, 1, 2, 3] for p in perms)
    assert len(set(tuple(p) for p in perms)) == 5


def test_calibration_campaign_recovers_profile():
    cfg = validate_config({"kind": "calibration", "n": 3, "count": 3,
                           "profile": "calibrated",
                           "params": {"points": 32}})
    report = run_campaign(cfg)
    assert report["summary"]["max_phi0_rel_error"] < 1e-9
    assert report["summary"]["max_alpha_rel_error"] < 1e-9
    assert report["summary"]["max_solve_error_rad"] < 1e-9
    assert len(report["results"]["solve_check_errors_rad"]) == 3
    assert len(report["results"]["heaters"]) == 2 * 3  # n(n-1) heaters at n=3


def test_hom_map_ideal_unit_overlap_gives_unit_visibility():
    cfg = validate_config(
        {"kind": "hom-map", "n": 5, "params": {"overlap": 1.0}})
    report = run_campaign(cfg)
    the_map = report["results"]["maps"][0]
    values = list(the_map["visibilities"].values())
    assert len(values) == 10  # n(n-1)/2 cells at n=5
    assert np.allclose(values, 1.0, atol=1e-7)
    assert report["summary"]["max_abs_deviation_from_overlap"] < 1e-7


def test_hom_map_repetitions_draw_fresh_disorder():
    cfg = validate_config({"kind": "hom-map", "n": 4, "count": 2,
                           "profile": "calibrated"})
    report = run_campaign(cfg)
    first, second = report["results"]["maps"]
    assert first["visibilities"] != second["visibilities"]


def test_delay_sweep_campaign_reports_shift():
    cfg = validate_config({"kind": "delay-sweep", "n": 5,
                           "params": {"levels_rad": [0.0, 3.0]}})
    report = run_campaign(cfg)
    assert report["summary"]["heater_count"] == 2 * (5 - 2)
    expected = 6 * 3.0 * 1.562 / (2 * np.pi)
    assert report["summary"]["total_shift_um"] == pytest.approx(expected,
                                                                abs=1e-6)


def test_loss_report_matches_closed_form():
    cfg = validate_config({"kind": "loss-report", "n": 6,
                           "profile": "calibrated"})
    report = run_campaign(cfg)
    # 2 facets x 0.9 dB + 0.07 dB/cm x 15.7 cm path
    assert report["summary"]["mean_insertion_loss_db"] == pytest.approx(
        2 * 0.9 + 0.07 * 15.7, abs=1e-9)
    assert report["results"]["useful_processor_sizes"]["0.1"] == 43
    assert report["results"]["useful_processor_sizes"]["0.055"] == 78


def test_loss_report_of_a_lossless_device_has_no_negative_zero():
    report, csv_files = run_campaign_with_artifacts(
        validate_config({"kind": "loss-report", "n": 4})
    )
    values = report["results"]["per_mode_insertion_loss_db"] + [
        value for key, value in report["summary"].items() if key.endswith("_db")
    ]
    assert len(values) == 7
    assert all(value == 0.0 and math.copysign(1.0, value) == 1.0 for value in values)
    assert "-0" not in csv_files["loss.csv"]


def test_platform_campaign_summary():
    cfg = validate_config({"kind": "platform"})
    report = run_campaign(cfg)
    assert report["summary"]["best_platform"] == "SiN"
    assert report["summary"]["platform_count"] == len(
        report["results"]["platforms"])


def test_unitary_json_round_trip():
    u = compiler.haar_random(5, seed=9)
    doc = unitary_to_json_dict(u)
    back = unitary_from_json_dict(doc)
    assert np.max(np.abs(back.elements - u.elements)) == 0.0


def test_unitary_json_rejects_malformed():
    from meshsim.util import ValidationError
    with pytest.raises(ValidationError):
        unitary_from_json_dict({"n": 2, "re": [[1, 0]], "im": [[0, 0]]})
    with pytest.raises(ValidationError):
        unitary_from_json_dict({"n": 2})
    # a fractional n is not truncated to fit the parts
    with pytest.raises(ValidationError, match="integer"):
        unitary_from_json_dict({"n": 2.5, "re": [[1, 0], [0, 1]], "im": [[0] * 2] * 2})


@pytest.mark.parametrize("kind", sorted(experiments.CAMPAIGNS))
def test_cli_csv_prints_registry_primary_csv(kind, tmp_path, capsys):
    spec = experiments.CAMPAIGNS[kind]
    _, csv_files = run_campaign_with_artifacts(
        validate_config(dict(SMALL_CONFIGS[kind])))
    assert spec.primary_csv in csv_files
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL_CONFIGS[kind]))
    argv = [spec.subcommand, "--config", str(path), "--format", "csv"]
    if spec.subcommand == "fidelity":
        argv += ["--ensemble", kind.split("-", 1)[1]]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == csv_files[spec.primary_csv]


def test_config_round_trips_through_echo():
    doc = dict(SMALL_CONFIGS["hom-scan"])
    cfg = validate_config(doc)
    echo = experiments.config_to_dict(cfg)
    assert validate_config(echo) == cfg
