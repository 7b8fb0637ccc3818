import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from meshsim import cli, compiler, experiments, hardware
from meshsim.experiments import unitary_from_json_dict


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("module", ["scipy", "scipy.stats", "scipy.optimize"])
def test_cli_import_leaves_scipy_module_unloaded(module):
    # scipy is a test dependency only; importing it would also cost every
    # CLI start-up (scipy.linalg about a third of a second, scipy.stats half
    # a second, scipy.optimize a quarter)
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c",
         f"import sys, meshsim.cli; print({module!r} in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert done.stdout.strip() == "False"


def test_platform_json_to_stdout(capsys):
    code, out, err = run_cli(["platform"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["summary"]["best_platform"] == "SiN"
    assert err == ""


def test_platform_csv_format(capsys):
    code, out, err = run_cli(["platform", "--format", "csv"], capsys)
    assert code == 0
    header = out.splitlines()[0]
    assert header.startswith("name,platform,modes")


def test_campaign_from_config_with_overrides(tmp_path, capsys):
    cfg = write_config(tmp_path, {"kind": "fidelity-haar", "n": 4, "count": 2})
    code, out, err = run_cli(
        ["fidelity", "--config", cfg, "--seed", "5", "--count", "3"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["config"]["seed"] == 5
    assert report["config"]["count"] == 3
    assert len(report["results"]["fidelities"]) == 3
    assert report["summary"]["fidelity"]["mean"] == pytest.approx(1.0)


def test_fidelity_ensemble_flag_selects_kind(tmp_path, capsys):
    cfg = write_config(tmp_path, {"n": 4, "count": 2})
    code, out, _ = run_cli(
        ["fidelity", "--ensemble", "perm", "--config", cfg], capsys)
    assert code == 0
    assert json.loads(out)["config"]["kind"] == "fidelity-perm"


def test_kind_conflict_is_usage_error(tmp_path, capsys):
    cfg = write_config(tmp_path, {"kind": "platform"})
    code, out, err = run_cli(["hom-scan", "--config", cfg], capsys)
    assert code == 2
    assert "conflicts" in err


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    cfg = write_config(tmp_path, {"kind": "hom-scan", "n": 4, "bogus": 1})
    code, out, err = run_cli(["hom-scan", "--config", cfg], capsys)
    assert code == 2
    assert "bogus" in err


def test_negative_count_is_usage_error(tmp_path, capsys):
    cfg = write_config(tmp_path, {"kind": "fidelity-haar", "count": -1})
    code, out, err = run_cli(["fidelity", "--config", cfg], capsys)
    assert code == 2
    assert "count" in err


def test_malformed_json_config_is_usage_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, out, err = run_cli(["platform", "--config", str(path)], capsys)
    assert code == 2
    assert "not valid JSON" in err


def test_missing_config_file_is_usage_error(tmp_path, capsys):
    code, out, err = run_cli(
        ["platform", "--config", str(tmp_path / "absent.json")], capsys)
    assert code == 2
    assert "cannot read" in err


def test_campaign_failure_exits_one(tmp_path, capsys):
    # clamp one heater's voltage ceiling so its sweep spans under one fringe
    profile = hardware.ideal_profile(3)
    v_max = np.array(profile.v_max_v)
    v_max[hardware.heater_index(3)["c00r00.phi"]] = 0.05
    crippled = dataclasses.replace(profile, v_max_v=v_max)
    ppath = tmp_path / "weak.json"
    hardware.write_profile(crippled, str(ppath))
    cfg = write_config(tmp_path, {
        "kind": "calibration", "n": 3, "count": 1, "profile": str(ppath),
        "params": {"points": 16}})
    code, out, err = run_cli(["calibrate", "--config", cfg], capsys)
    assert code == 1
    assert "campaign failed" in err


def test_calibrate_ideal_profile_reports_finite_phi0_error(tmp_path, capsys):
    # every heater of the ideal profile has phi0 = 0, where no relative
    # error exists
    cfg = write_config(tmp_path, {"kind": "calibration", "n": 3})
    code, out, err = run_cli(["calibrate", "--config", cfg], capsys)
    assert code == 0, err
    error = json.loads(out)["summary"]["max_phi0_rel_error"]
    assert np.isfinite(error) and error < 1e-6


def test_out_flag_writes_artifacts(tmp_path, capsys):
    out_dir = tmp_path / "artifacts"
    cfg = write_config(tmp_path, {"kind": "loss-report", "n": 4})
    code, out, err = run_cli(
        ["loss", "--config", cfg, "--out", str(out_dir)], capsys)
    assert code == 0
    assert sorted(os.listdir(out_dir)) == ["loss.csv", "report.json"]


def test_env_var_sets_default_out_dir(tmp_path, capsys, monkeypatch):
    out_dir = tmp_path / "envout"
    monkeypatch.setenv(cli.OUT_DIR_ENV, str(out_dir))
    code, out, err = run_cli(["loss"], capsys)
    assert code == 0
    assert "report.json" in os.listdir(out_dir)


def test_out_flag_beats_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path / "ignored"))
    chosen = tmp_path / "chosen"
    code, out, err = run_cli(["loss", "--out", str(chosen)], capsys)
    assert code == 0
    assert "report.json" in os.listdir(chosen)
    assert not (tmp_path / "ignored").exists()


def test_no_out_dir_prints_only(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(cli.OUT_DIR_ENV, raising=False)
    code, out, err = run_cli(["loss"], capsys)
    assert code == 0
    assert os.listdir(tmp_path) == []
    assert json.loads(out)["config"]["out_dir"] is None


def test_haar_subcommand_writes_unitaries(tmp_path, capsys):
    out_dir = tmp_path / "ens"
    code, out, err = run_cli(
        ["haar", "--n", "3", "--count", "2", "--out", str(out_dir)], capsys)
    assert code == 0
    manifest = json.loads(out)
    assert manifest["kind"] == "haar"
    assert manifest["artifacts"] == ["haar-000.json", "haar-001.json"]
    with open(out_dir / "haar-000.json") as handle:
        u = unitary_from_json_dict(json.load(handle))
    assert u.n == 3


def test_perm_subcommand_writes_permutations(tmp_path, capsys):
    out_dir = tmp_path / "ens"
    code, out, err = run_cli(
        ["perm", "--n", "4", "--count", "3", "--out", str(out_dir)], capsys)
    assert code == 0
    assert json.loads(out) == {
        "kind": "permutation", "n": 4, "seed": 0, "count": 3,
        "artifacts": ["perm-000.json", "perm-001.json", "perm-002.json"],
    }
    docs = [json.load(open(out_dir / f"perm-{i:03d}.json")) for i in range(3)]
    perms = [tuple(d["permutation"]) for d in docs]
    assert len(set(perms)) == 3
    assert all(sorted(p) == [0, 1, 2, 3] for p in perms)


@pytest.mark.parametrize("argv", [
    ["haar", "--n", "20", "--count", "1000"],
    ["perm", "--n", "4", "--count", "3"],
])
def test_ensemble_without_out_dir_draws_nothing(argv, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("ensemble drawn with no output directory")

    monkeypatch.delenv(cli.OUT_DIR_ENV, raising=False)
    monkeypatch.setattr(compiler, "haar_random", refuse)
    monkeypatch.setattr(compiler, "permutation_ensemble", refuse)
    code, out, err = run_cli(argv, capsys)
    assert code == 0
    assert json.loads(out)["artifacts"] == []


def test_ensemble_flag_validation(capsys):
    code, out, err = run_cli(["haar", "--n", "1"], capsys)
    assert code == 2
    code, out, err = run_cli(["perm", "--count", "0"], capsys)
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["haar", "--seed", "-1"],
    ["perm", "--seed", "-1"],
    ["perm", "--n", "3", "--count", "7"],
])
def test_ensemble_out_of_range_values_are_usage_errors(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert argv[-2] in err


def test_fidelity_perm_count_above_n_factorial_is_usage_error(tmp_path, capsys):
    cfg = write_config(tmp_path, {"n": 3})
    code, out, err = run_cli(
        ["fidelity", "--ensemble", "perm", "--config", cfg, "--count", "7"], capsys)
    assert code == 2
    assert out == ""
    assert "3!" in err


@pytest.mark.parametrize("argv", [
    ["compile", "--input", "u.json", "--format", "csv"],
    ["compile", "--input", "u.json", "--config", "x"],
    ["compile", "--input", "u.json", "--seed", "1"],
    ["haar", "--config", "x"],
    ["perm", "--format", "csv"],
    ["hom-map", "--workers", "2"],
])
def test_flags_a_subcommand_does_not_read_are_usage_errors(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert "unrecognized arguments" in err


@pytest.mark.parametrize(
    "command", sorted({spec.subcommand for spec in experiments.CAMPAIGNS.values()})
)
def test_campaign_subcommands_take_their_flags(command):
    args = cli.build_parser().parse_args(
        [command, "--config", "c.json", "--seed", "4", "--out", "d", "--format", "csv"]
    )
    assert (args.config, args.seed, args.out, args.format) == ("c.json", 4, "d", "csv")


@pytest.mark.parametrize("command", ["haar", "perm"])
def test_ensemble_subcommands_take_their_flags(command):
    args = cli.build_parser().parse_args(
        [command, "--n", "3", "--count", "2", "--seed", "4", "--out", "d"]
    )
    assert (args.n, args.count, args.seed, args.out) == (3, 2, 4, "d")


def test_compile_round_trip(tmp_path, capsys):
    target = compiler.haar_random(4, seed=12)
    from meshsim.experiments import unitary_to_json_dict
    upath = tmp_path / "u.json"
    upath.write_text(json.dumps(unitary_to_json_dict(target)))
    out_dir = tmp_path / "compiled"
    code, out, err = run_cli(
        ["compile", "--input", str(upath), "--out", str(out_dir)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["max_abs_residual"] < 1e-10
    from meshsim import mesh
    settings = mesh.settings_from_json_dict(doc["settings"])
    rebuilt = mesh.mesh_unitary(settings)
    assert np.max(np.abs(rebuilt.elements - target.elements)) < 1e-10
    assert (out_dir / "settings.json").exists()


def test_compile_rejects_malformed_unitary(tmp_path, capsys):
    upath = tmp_path / "u.json"
    upath.write_text(json.dumps({"n": 2, "re": [[1, 0]], "im": [[0, 0]]}))
    code, out, err = run_cli(["compile", "--input", str(upath)], capsys)
    assert code == 2


@pytest.mark.parametrize("doc", [
    {"n": "two", "re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]},
    {"n": 2, "re": [[1, "zero"], [0, 1]], "im": [[0, 0], [0, 0]]},
    {"n": [2], "re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]},
])
def test_compile_non_numeric_unitary_is_usage_error(tmp_path, capsys, doc):
    upath = tmp_path / "u.json"
    upath.write_text(json.dumps(doc))
    code, out, err = run_cli(["compile", "--input", str(upath)], capsys)
    assert code == 2
    assert "not numeric" in err
    assert "Traceback" not in err


def test_compile_fractional_n_is_usage_error(tmp_path, capsys):
    # int() would truncate n = 2.5 to 2 and compile the 2x2 parts
    upath = tmp_path / "u.json"
    doc = {"n": 2.5, "re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]}
    upath.write_text(json.dumps(doc))
    code, out, err = run_cli(["compile", "--input", str(upath)], capsys)
    assert code == 2
    assert "integer" in err and "Traceback" not in err


def test_unknown_subcommand_exits_two(capsys):
    assert cli.main(["no-such-command"]) == 2
    capsys.readouterr()


def test_csv_stdout_matches_primary_artifact(tmp_path, capsys):
    out_dir = tmp_path / "artifacts"
    cfg = write_config(tmp_path, {
        "kind": "hom-scan", "n": 4, "params": {"target": [1, 1]}})
    code, out, err = run_cli(
        ["hom-scan", "--config", cfg, "--out", str(out_dir), "--format", "csv"],
        capsys)
    assert code == 0
    with open(out_dir / "scan.csv") as handle:
        assert out == handle.read()


def test_loss_on_non_finite_profile_exits_one(tmp_path, capsys):
    # a profile value of Infinity fails validation (exit 1) instead of
    # reaching the loss model
    doc = hardware.profile_to_json_dict(hardware.calibrated_profile(4))
    doc["path_length_cm"] = float("inf")
    ppath = tmp_path / "inf.json"
    ppath.write_text(json.dumps(doc))
    cfg = write_config(tmp_path, {
        "kind": "loss-report", "n": 4, "profile": str(ppath)})
    code, out, err = run_cli(["loss", "--config", cfg], capsys)
    assert code == 1
    assert out == ""
    assert "loss figures must be finite" in err


def test_loss_with_a_subnormal_loss_is_usage_error(tmp_path, capsys):
    # 4.34 dB / 1e-320 dB overflows to an infinite cell count; the entry is
    # rejected as bad input (exit 2) before the campaign runs
    cfg = write_config(tmp_path, {
        "kind": "loss-report", "n": 4, "params": {"loss_per_cell_db": [0.1, 1e-320]}})
    code, out, err = run_cli(["loss", "--config", cfg], capsys)
    assert code == 2
    assert out == ""
    assert "loss_per_cell_db" in err and "1e-320" in err
    assert "Traceback" not in err
