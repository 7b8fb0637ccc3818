"""Seeded experiment campaigns with reproducible report artifacts.

Each campaign kind wires the compiler, hardware, quantum and analysis layers
into one configuration-driven run that emits a canonical JSON report plus
plot-ready CSV files. Campaigns run serially, and per-item seeds derive from
(campaign seed, item index), so the payload is a pure function of the config.
"""

import dataclasses
import datetime
import math
import os
import time
from typing import Callable, Optional

import numpy as np

from . import __version__, analysis, compiler, hardware, mesh, quantum
from .util import (
    TWO_PI,
    UsageError,
    ValidationError,
    as_int,
    as_real,
    as_reals,
    atomic_write_text,
    child_seed,
    dumps_canonical,
    factorial_reaches,
    seeded_rng,
    wrap_phase,
    wrap_signed,
)

SCHEMA_VERSION = 1

_SOLVE_CHECK_STREAM = 909


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    """Normalized campaign configuration (see validate_config)."""

    kind: str
    n: int
    seed: int
    count: int
    profile: str
    out_dir: Optional[str]
    params: dict
    schema_version: int


_CONFIG_KEYS = frozenset(field.name for field in dataclasses.fields(ExperimentConfig))


def _whole(value, what, minimum):
    try:
        value = as_int(value)
    except ValidationError:
        raise UsageError(f"{what} must be an integer") from None
    if value < minimum:
        raise UsageError(f"{what} must be >= {minimum}, got {value}")
    return value


def _number(value, what, lo=None, hi=None):
    try:
        return as_real(value, what, lo, hi)
    except ValidationError as exc:
        raise UsageError(str(exc)) from None


def _number_list(params, key, default):
    """Non-empty list of finite numbers >= 0."""
    values = params.get(key, default)
    if not isinstance(values, (list, tuple)) or not values:
        raise UsageError(f"param {key!r} must be a non-empty list")
    return [_number(value, f"param {key!r} entry", lo=0) for value in values]


def _no_params(params, n):
    return {}


def _calibration_params(params, n):
    return {
        "points": _whole(params.get("points", 64), "param 'points'", 8),
        "detector_noise_sigma": _number(
            params.get("detector_noise_sigma", 0.0), "param 'detector_noise_sigma'", lo=0
        ),
    }


def _hom_map_params(params, n):
    return {
        "overlap": _number(
            params.get("overlap", 1.0 / quantum.DEFAULT_SCHMIDT_NUMBER),
            "param 'overlap'", lo=0, hi=1,
        ),
        "count_noise_sigma": _number(
            params.get("count_noise_sigma", 0.0), "param 'count_noise_sigma'", lo=0
        ),
    }


def _hom_scan_params(params, n):
    out = _hom_map_params(params, n)
    target = params.get("target", [0, 0])
    if not isinstance(target, (list, tuple)) or len(target) != 2:
        raise UsageError("param 'target' must be [column, row] integers")
    column, row = (_whole(v, "param 'target' entry", 0) for v in target)
    if (column, row) not in mesh.cell_index(n):
        raise UsageError(
            f"param 'target' ({column}, {row}) is not a cell of an n={n} mesh"
        )
    out["target"] = [column, row]
    out["arm_delay_um"] = _number(params.get("arm_delay_um", 0.0), "param 'arm_delay_um'")
    return out


def _delay_sweep_params(params, n):
    # the diagonal interferometer recombines on a third mode
    if n < 3:
        raise UsageError(
            f"config field 'n' must be >= 3 for kind 'delay-sweep', got {n}"
        )
    levels = [k * 0.5 * math.pi for k in range(7)]  # 0 .. 3 pi
    return {
        "overlap": _number(
            params.get("overlap", 1.0 / quantum.DEFAULT_SCHMIDT_NUMBER),
            "param 'overlap'", lo=0, hi=1,
        ),
        "levels_rad": _number_list(params, "levels_rad", levels),
    }


def _loss_report_params(params, n):
    losses = _number_list(params, "loss_per_cell_db", [0.1, 0.055])
    for loss in losses:
        try:
            analysis.useful_processor_size(loss)
        except ValidationError as exc:
            raise UsageError(f"param 'loss_per_cell_db' entry: {exc}") from exc
    return {"loss_per_cell_db": losses}


def validate_config(doc):
    """Schema-check a config document and fill defaults.

    Raises UsageError naming the offending field; returns the normalized
    ExperimentConfig.
    """
    if not isinstance(doc, dict):
        raise UsageError("config must be a JSON object")
    unknown = sorted(set(doc) - _CONFIG_KEYS)
    if unknown:
        raise UsageError(f"unknown config keys: {unknown}")
    version = doc.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise UsageError(f"unsupported schema_version {version!r}")
    kind = doc.get("kind")
    if kind not in CAMPAIGNS:
        raise UsageError(
            f"config field 'kind' must be one of {list(CAMPAIGNS)}, got {kind!r}"
        )
    spec = CAMPAIGNS[kind]
    n = _whole(doc.get("n", 20), "config field 'n'", 2)
    seed = _whole(doc.get("seed", 0), "config field 'seed'", 0)
    count = _whole(doc.get("count", spec.default_count or 1), "config field 'count'", 1)
    if spec.default_count is None and count != 1:
        raise UsageError(f"config field 'count' must be 1 for kind {kind!r}")
    # fidelity-perm draws `count` distinct permutations of n modes
    if kind == "fidelity-perm" and not factorial_reaches(n, count):
        raise UsageError(
            f"config field 'count' must be <= {n}! for kind {kind!r}, got {count}"
        )
    profile = doc.get("profile", "ideal")
    if not isinstance(profile, str) or not profile:
        raise UsageError("config field 'profile' must be a non-empty string")
    out_dir = doc.get("out_dir")
    if out_dir is not None and not isinstance(out_dir, str):
        raise UsageError("config field 'out_dir' must be a string path")
    params_doc = doc.get("params", {})
    if not isinstance(params_doc, dict):
        raise UsageError("config field 'params' must be an object")
    params = spec.normalize(params_doc, n)
    # a normalized params dict holds every allowed key, defaults filled in
    unknown = sorted(set(params_doc) - set(params))
    if unknown:
        raise UsageError(
            f"unknown params for kind {kind!r}: {unknown} (allowed: {sorted(params)})"
        )
    return ExperimentConfig(
        kind=kind,
        n=n,
        seed=seed,
        count=count,
        profile=profile,
        out_dir=out_dir,
        params=params,
        schema_version=SCHEMA_VERSION,
    )


def config_to_dict(config):
    return dataclasses.asdict(config)


def resolve_profile(config, repetition=0):
    """Profile for one campaign repetition.

    "ideal" and "calibrated" are generated on the fly; "calibrated" re-draws
    its static disorder per repetition (seed + repetition) so repeated maps
    probe independent hardware instances. Anything else is a profile JSON
    path.
    """
    ref = config.profile
    if ref == "ideal":
        return hardware.ideal_profile(config.n)
    if ref == "calibrated":
        return hardware.calibrated_profile(
            config.n, disorder_seed=config.seed + repetition
        )
    if not os.path.exists(ref):
        raise UsageError(f"profile file not found: {ref}")
    try:
        profile = hardware.load_profile(ref)
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read profile {ref}: {exc}") from exc
    if profile.n != config.n:
        raise UsageError(
            f"profile {ref} is for n={profile.n}, config says n={config.n}"
        )
    return profile


def _csv_text(header, rows):
    lines = [header]
    for row in rows:
        cells = []
        for value in row:
            if isinstance(value, float):
                cells.append(format(value, ".15g"))
            else:
                cells.append(str(value))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _run_fidelity(config):
    profile = resolve_profile(config)
    calibration = hardware.CalibrationRecord.exact_from_profile(profile)
    if config.kind == "fidelity-perm":
        permutations = compiler.permutation_ensemble(
            config.n, config.count, config.seed
        )
    else:
        permutations = None

    def make_target(index):
        if permutations is None:
            return compiler.haar_random(config.n, child_seed(config.seed, index))
        return compiler.permutation_unitary(permutations[index])

    fidelities, max_errors = [], []
    for start in range(0, config.count, hardware.CHUNK):
        indices = range(start, min(start + hardware.CHUNK, config.count))
        targets = np.array([make_target(index).elements for index in indices])
        theta, phi, out = compiler.decompose_stack(targets)
        # heater_order interleaves each cell's theta and phi heaters
        commanded = np.stack([theta, phi], axis=2).reshape(len(targets), -1)
        drive = hardware.solve_voltages(profile, calibration, commanded)
        realized = wrap_phase(hardware.realized_heater_phases(profile, drive.powers_w))
        measured = hardware.measure_amplitude_matrices(
            profile, realized[:, 0::2], realized[:, 1::2], out,
            [child_seed(config.seed, index) for index in indices],
        )
        fidelities += analysis.amplitude_fidelity(targets, measured).tolist()
        error = analysis.error_matrix(targets, measured)
        max_errors += np.max(np.abs(error), axis=(1, 2)).tolist()
    stats = analysis.ensemble_statistics(fidelities)
    results = {"fidelities": fidelities, "max_error_entries": max_errors}
    if permutations is not None:
        results["permutations"] = [list(p) for p in permutations]
    summary = {
        "fidelity": stats.to_dict(),
        "max_error_entry": max(max_errors),
        "error_entries_above_0p2": int(sum(e >= 0.2 for e in max_errors)),
    }
    csv_files = {
        "fidelities.csv": _csv_text(
            "index,fidelity,max_error_entry",
            [(i, f, e) for i, (f, e) in enumerate(zip(fidelities, max_errors))],
        )
    }
    return results, summary, csv_files


def _run_calibration(config):
    profile = resolve_profile(config)
    record = hardware.calibrate_profile(
        profile,
        points=config.params["points"],
        seed=config.seed,
        detector_noise_sigma=config.params["detector_noise_sigma"],
    )
    order = hardware.heater_order(config.n)
    phi0, alpha, residual = record.arrays(order)
    # the fit wraps phi0 into [0, 2 pi); a loaded profile need not
    phi0_true = wrap_phase(profile.phi0_rad)
    alpha_true = profile.alpha_rad_per_w
    # no relative error exists at phi0 = 0 (every heater of the ideal
    # profile); report the wrapped absolute error instead
    at_zero = phi0_true == 0
    phi0_rel = np.where(
        at_zero,
        np.abs(wrap_signed(phi0 - phi0_true)),
        np.abs(phi0 - phi0_true) / np.abs(np.where(at_zero, 1.0, phi0_true)),
    )
    alpha_rel = np.abs(alpha - alpha_true) / np.abs(alpha_true)
    columns = {
        "heater_id": order,
        "phi0_true_rad": profile.phi0_rad.tolist(),
        "phi0_fit_rad": phi0.tolist(),
        "alpha_true_rad_per_w": alpha_true.tolist(),
        "alpha_fit_rad_per_w": alpha.tolist(),
        "residual": residual.tolist(),
    }
    heater_rows = [dict(zip(columns, row)) for row in zip(*columns.values())]

    targets = np.array([
        seeded_rng(config.seed, _SOLVE_CHECK_STREAM, check).uniform(0.0, TWO_PI, len(order))
        for check in range(config.count)
    ])
    drive = hardware.solve_voltages(profile, record, targets)
    realized = hardware.realized_heater_phases(profile, drive.powers_w)
    solve_errors = np.max(np.abs(wrap_signed(realized - targets)), axis=1).tolist()

    results = {"heaters": heater_rows, "solve_check_errors_rad": solve_errors}
    summary = {
        "max_phi0_rel_error": float(phi0_rel.max()),
        "max_alpha_rel_error": float(alpha_rel.max()),
        "max_fit_residual": float(residual.max()),
        "max_solve_error_rad": max(solve_errors),
    }
    csv_files = {
        "calibration.csv": _csv_text(
            ",".join(columns), [row.values() for row in heater_rows]
        )
    }
    return results, summary, csv_files


def _run_hom_map(config):
    source = quantum.PhotonPairSource(
        mutual_overlap_at_zero_delay=config.params["overlap"]
    )
    maps = []
    csv_files = {}
    worst_dev = 0.0
    for repetition in range(config.count):
        profile = resolve_profile(config, repetition)
        seed = child_seed(config.seed, repetition)
        vmap = quantum.hom_visibility_map(
            config.n,
            source,
            profile,
            seed=seed,
            count_noise_sigma=config.params["count_noise_sigma"],
        )
        by_cell = dict(zip(vmap.cells, vmap.visibilities.tolist()))
        maps.append(
            {
                "n": config.n,
                "visibilities": {
                    f"c{column:02d}r{row:02d}": value
                    for (column, row), value in by_cell.items()
                },
                "stats": vmap.stats.to_dict(),
                "row_anova_p": vmap.row_anova_p,
                "column_anova_p": vmap.column_anova_p,
                "metadata": {
                    "profile": profile.name,
                    "seed": seed,
                    "count_noise_sigma": config.params["count_noise_sigma"],
                    "overlap_at_zero_delay": source.mutual_overlap_at_zero_delay,
                },
                "repetition": repetition,
            }
        )
        worst_dev = max(
            worst_dev,
            float(np.max(np.abs(vmap.visibilities - config.params["overlap"]))),
        )
        # one row per upper mode, one column per mesh column, blank off-cell
        csv_files[f"visibility_grid-{repetition:02d}.csv"] = _csv_text(
            "row," + ",".join(f"c{c:02d}" for c in range(config.n)),
            [
                [f"r{row:02d}"]
                + [by_cell.get((column, row), "") for column in range(config.n)]
                for row in range(config.n - 1)
            ],
        )
    results = {"maps": maps}
    summary = {
        "repetitions": config.count,
        "min_row_anova_p": min(m["row_anova_p"] for m in maps),
        "min_column_anova_p": min(m["column_anova_p"] for m in maps),
        "mean_visibility": float(
            np.mean([m["stats"]["mean"] for m in maps])
        ),
        "max_abs_deviation_from_overlap": worst_dev,
    }
    return results, summary, csv_files


def _run_hom_scan(config):
    profile = resolve_profile(config)
    source = quantum.PhotonPairSource(
        mutual_overlap_at_zero_delay=config.params["overlap"]
    )
    plan = quantum.route_to_tbs(config.n, tuple(config.params["target"]))
    scan = quantum.hom_scan(
        plan,
        source,
        profile,
        seed=config.seed,
        arm_delay_um=config.params["arm_delay_um"],
        count_noise_sigma=config.params["count_noise_sigma"],
    )
    results = {
        "delays_um": [float(x) for x in scan.delays_um],
        "coincidences": [float(x) for x in scan.coincidences],
        "input_pair": list(scan.input_pair),
        "output_pair": list(scan.output_pair),
    }
    summary = {"fit": scan.fit.to_dict()}
    csv_files = {
        "scan.csv": _csv_text(
            "delay_um,normalized_coincidence",
            zip(results["delays_um"], results["coincidences"]),
        )
    }
    return results, summary, csv_files


def _run_delay_sweep(config):
    profile = resolve_profile(config)
    source = quantum.PhotonPairSource(
        mutual_overlap_at_zero_delay=config.params["overlap"]
    )
    sweep = quantum.diagonal_delay_sweep(
        config.n,
        profile,
        config.params["levels_rad"],
        source=source,
        seed=config.seed,
    )
    results = {
        "drive_levels_rad": [float(x) for x in sweep.drive_levels_rad],
        "centers_um": [float(x) for x in sweep.centers_um],
        "driven_heater_ids": list(sweep.driven_heater_ids),
        "input_pair": list(sweep.input_pair),
        "output_pair": list(sweep.output_pair),
    }
    summary = {
        "total_shift_um": sweep.total_shift_um,
        "per_heater_shift_um": sweep.per_heater_shift_um,
        "heater_count": sweep.heater_count,
    }
    csv_files = {
        "sweep.csv": _csv_text(
            "drive_level_rad,fitted_center_um",
            zip(results["drive_levels_rad"], results["centers_um"]),
        )
    }
    return results, summary, csv_files


def _run_loss_report(config):
    profile = resolve_profile(config)
    per_mode = hardware.insertion_loss_per_mode(profile)
    sizes = {
        format(loss, ".15g"): analysis.useful_processor_size(loss)
        for loss in config.params["loss_per_cell_db"]
    }
    results = {
        "per_mode_insertion_loss_db": [float(x) for x in per_mode],
        "useful_processor_sizes": sizes,
    }
    summary = {
        "mean_insertion_loss_db": float(np.mean(per_mode)),
        "min_insertion_loss_db": float(np.min(per_mode)),
        "max_insertion_loss_db": float(np.max(per_mode)),
    }
    csv_files = {
        "loss.csv": _csv_text(
            "mode,insertion_loss_db",
            [(m, float(v)) for m, v in enumerate(per_mode)],
        )
    }
    return results, summary, csv_files


def _run_platform(config):
    entries = analysis.load_platform_dataset()
    report = analysis.platform_report(entries)
    summary = {
        "best_platform": report["best_platform"],
        "platform_count": len(report["platforms"]),
    }
    csv_files = {
        "platforms.csv": _csv_text(
            "name,platform,modes,loss_per_unit_cell_db,insertion_loss_db,"
            "useful_processor_size,citation,approximate",
            [
                (
                    row["name"],
                    row["platform"],
                    row["modes"],
                    row["loss_per_unit_cell_db"],
                    row["insertion_loss_db"],
                    row["useful_processor_size"],
                    row["citation"],
                    "yes" if row["approximate"] else "no",
                )
                for row in report["platforms"]
            ],
        )
    }
    return report, summary, csv_files


@dataclasses.dataclass(frozen=True)
class CampaignKind:
    """What meshsim knows about one campaign kind.

    `primary_csv` is the artifact that `--format csv` prints; `subcommand`
    and `help` make the kind's CLI entry, where the two fidelity kinds share
    `fidelity` and its --ensemble flag tells them apart. `default_count`
    None marks a single-shot kind, whose count must be 1. `normalize(params,
    n)` checks a params document and returns it with every allowed key
    present, defaults filled in.
    """

    runner: Callable
    primary_csv: str
    subcommand: str
    help: str
    default_count: Optional[int] = None
    normalize: Callable = _no_params


CAMPAIGNS = {
    "fidelity-haar": CampaignKind(
        runner=_run_fidelity,
        primary_csv="fidelities.csv",
        subcommand="fidelity",
        help="run a fidelity campaign",
        default_count=1000,
    ),
    "fidelity-perm": CampaignKind(
        runner=_run_fidelity,
        primary_csv="fidelities.csv",
        subcommand="fidelity",
        help="run a fidelity campaign",
        default_count=190,
    ),
    "calibration": CampaignKind(
        runner=_run_calibration,
        primary_csv="calibration.csv",
        subcommand="calibrate",
        help="fit heater responses and check the phase solver",
        default_count=5,
        normalize=_calibration_params,
    ),
    "hom-map": CampaignKind(
        runner=_run_hom_map,
        primary_csv="visibility_grid-00.csv",
        subcommand="hom-map",
        help="two-photon visibility map over every unit cell",
        default_count=1,
        normalize=_hom_map_params,
    ),
    "hom-scan": CampaignKind(
        runner=_run_hom_scan,
        primary_csv="scan.csv",
        subcommand="hom-scan",
        help="single two-photon dip scan at one target cell",
        normalize=_hom_scan_params,
    ),
    "delay-sweep": CampaignKind(
        runner=_run_delay_sweep,
        primary_csv="sweep.csv",
        subcommand="delay-sweep",
        help="track the dip center while driving the diagonal arm",
        normalize=_delay_sweep_params,
    ),
    "loss-report": CampaignKind(
        runner=_run_loss_report,
        primary_csv="loss.csv",
        subcommand="loss",
        help="insertion loss budget per mode",
        normalize=_loss_report_params,
    ),
    "platform": CampaignKind(
        runner=_run_platform,
        primary_csv="platforms.csv",
        subcommand="platform",
        help="cross-platform loss comparison table",
    ),
}


def run_campaign_with_artifacts(config):
    """Run one campaign; returns (report, csv_files).

    When out_dir is set the report and CSVs are also written there
    atomically. Everything outside the report's "meta" block is a pure
    function of the config, so identical configs give identical payloads
    (see report_payload_bytes).
    """
    started = time.time()
    started_utc = datetime.datetime.now(datetime.timezone.utc).isoformat()
    results, summary, csv_files = CAMPAIGNS[config.kind].runner(config)
    artifact_names = ["report.json"] + sorted(csv_files)
    report = {
        "schema_version": SCHEMA_VERSION,
        "version": __version__,
        "config": config_to_dict(config),
        "results": results,
        "summary": summary,
        "artifacts": artifact_names,
        "meta": {
            "started_utc": started_utc,
            "duration_s": time.time() - started,
        },
    }
    if config.out_dir:
        atomic_write_text(
            os.path.join(config.out_dir, "report.json"), dumps_canonical(report)
        )
        for name, text in csv_files.items():
            atomic_write_text(os.path.join(config.out_dir, name), text)
    return report, csv_files


def run_campaign(config, workers=None):
    """run_campaign_with_artifacts, keeping only the report. `workers` is
    accepted and ignored, only because bench/run.py passes it."""
    report, _ = run_campaign_with_artifacts(config)
    return report


def report_payload_bytes(report):
    """Canonical bytes of a report with the timing metadata stripped."""
    payload = {key: value for key, value in report.items() if key != "meta"}
    return dumps_canonical(payload).encode()


def unitary_to_json_dict(u):
    """Plain JSON document for a unitary: split real and imaginary parts."""
    elements = as_reals(getattr(u, "elements", u), "matrix", (None, None), dtype=complex)
    return {
        "n": int(elements.shape[0]),
        "re": [[float(v) for v in row] for row in elements.real],
        "im": [[float(v) for v in row] for row in elements.imag],
    }


def unitary_from_json_dict(doc):
    if not isinstance(doc, dict) or not {"n", "re", "im"} <= set(doc):
        raise ValidationError("unitary document needs keys n, re, im")
    try:
        n = as_int(doc["n"])
        re, im = (
            np.array([[as_real(v, f"{key} entry") for v in row] for row in doc[key]])
            for key in ("re", "im")
        )
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"unitary document is not numeric: {exc}") from exc
    if re.shape != (n, n) or im.shape != (n, n):
        raise ValidationError(
            f"unitary document shape mismatch: n={n}, re {re.shape}, im {im.shape}"
        )
    return mesh.Unitary(n, re + 1j * im)
