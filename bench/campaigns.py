"""Workload definitions and independent output checks for the campaign benchmark.

A workload is one campaign kind at n = 20 on the `calibrated` profile. A run
repeats whole campaigns ("rounds"); round r of benchmark seed s uses the
campaign seed `round_seed(s, r)`, so the same seed always gives the same
inputs. Every check compares a report against a computation made apart from
the code under test (the oracles in tests/oracles.py, the profile's own
parameter arrays) or against a property the method must have; none compares
against a stored copy of an earlier output.

Each check returns a list of `Failure`s. `Failure.item` is the index of the
campaign item the failure belongs to, or None when it condemns the whole
campaign (a summary statistic, a p-value, a solve check).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Optional

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "meshsim" / "__init__.py").is_file():
    # never fall back to some other installed copy of the package
    raise ImportError(f"no meshsim sources under {ROOT / 'src'}")
for _path in (ROOT / "tests", ROOT / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import numpy as np  # noqa: E402
from oracles import fock_two_photon_distribution, slow_mesh_product  # noqa: E402

from meshsim import experiments, hardware, mesh, quantum  # noqa: E402
from meshsim.util import child_seed  # noqa: E402

N = 20

# paper reference for the Haar amplitude-fidelity ensemble at n = 20
PAPER_HAAR_MEAN_F = 0.974
PAPER_HAAR_TOL = 0.003
# the ensemble mean may sit this many standard errors beyond the paper's band
MEAN_F_STANDARD_ERRORS = 4.0

# count noise of the hom-map workload: realistic noisy counts for the dip fit
HOM_COUNT_NOISE = 0.02
# |V_fit - V_oracle| <= HOM_TOL_NOISELESS + HOM_TOL_PER_SIGMA * sigma; the
# worst gap seen is about 0.25 sigma with noise and 3e-10 without
HOM_TOL_NOISELESS = 1e-6
HOM_TOL_PER_SIGMA = 0.75

CAL_REL_TOL = 1e-6
SOLVE_TOL_RAD = 1e-9
COMPILE_TOL = 1e-8


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    count: int
    params: tuple = ()

    def config_doc(self, seed):
        return {
            "kind": self.kind,
            "n": N,
            "seed": int(seed),
            "count": self.count,
            "profile": "calibrated",
            "params": dict(self.params),
        }

    def items(self):
        """Items one campaign attempts: targets, cell scans or fitted heaters."""
        if self.kind == "fidelity-haar":
            return self.count
        cells = N * (N - 1) // 2
        return cells * self.count if self.kind == "hom-map" else 2 * cells


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fidelity-haar", "fidelity-haar", count=40),
        Workload(
            "hom-map", "hom-map", count=1,
            params=(("count_noise_sigma", HOM_COUNT_NOISE),),
        ),
        Workload("calibration", "calibration", count=5),
    )
}


def round_seed(seed, index):
    """Campaign seed of round `index` of a run with benchmark seed `seed`."""
    state = np.random.SeedSequence([int(seed), 5150, int(index)]).generate_state(1)
    return int(state[0])


class Failure(NamedTuple):
    item: Optional[int]
    message: str


def failed_items(failures, items):
    """Number of campaign items condemned by a list of failures."""
    if any(f.item is None for f in failures):
        return items
    return len({f.item for f in failures})


def wrap_signed(x):
    """Phase(s) wrapped into [-pi, pi)."""
    return np.mod(np.asarray(x, dtype=float) + np.pi, 2.0 * np.pi) - np.pi


def cell_matrix(theta, phi):
    """Unit cell of the documented mesh convention, written out directly."""
    s, c = math.sin(theta / 2.0), math.cos(theta / 2.0)
    e = complex(math.cos(phi), math.sin(phi))
    pre = complex(math.cos(theta / 2.0), math.sin(theta / 2.0))
    return pre * np.array([[e * s, c], [e * c, -s]], dtype=complex)


def profile_truth(profile):
    """(phi0, alpha, coupling) of a profile in canonical heater order."""
    order = hardware.heater_order(profile.n)
    phi0 = np.array([profile.heaters[h].phi0_rad for h in order])
    alpha = np.array([profile.heaters[h].alpha_rad_per_w for h in order])
    return order, phi0, alpha, np.array(profile.crosstalk.matrix)


# ---------------------------------------------------------------------------
# fidelity-haar


def check_fidelity(report):
    """Exact-identity bounds per item and the paper's ensemble mean.

    With unit-norm columns, F = 1 - sum(E^2) / 2n exactly, so every item
    satisfies maxE^2 / 2n <= 1 - F <= (n / 2) maxE^2 (1/40 and 10 at n = 20).
    """
    n = report["config"]["n"]
    fids = report["results"]["fidelities"]
    max_errors = report["results"]["max_error_entries"]
    failures = []
    if len(fids) != report["config"]["count"] or len(max_errors) != len(fids):
        failures.append(Failure(None, "fidelity: result lengths differ from count"))
        return failures
    for i, (f, e) in enumerate(zip(fids, max_errors)):
        if not (math.isfinite(f) and f <= 1.0):
            failures.append(Failure(i, f"fidelity: F = {f!r} is not <= 1"))
            continue
        lo, hi = e * e / (2 * n), 0.5 * n * e * e
        if not (lo - 1e-12 <= 1.0 - f <= hi + 1e-12):
            failures.append(
                Failure(i, f"fidelity: 1 - F = {1 - f:.3e} outside [{lo:.3e}, {hi:.3e}]")
            )
    mean = float(np.mean(fids))
    if abs(mean - report["summary"]["fidelity"]["mean"]) > 1e-12:
        failures.append(Failure(None, "fidelity: summary mean differs from the items"))
    if n == N and len(fids) > 1:
        stderr = float(np.std(fids, ddof=1)) / math.sqrt(len(fids))
        tol = PAPER_HAAR_TOL + MEAN_F_STANDARD_ERRORS * stderr
        if abs(mean - PAPER_HAAR_MEAN_F) > tol:
            failures.append(
                Failure(None, f"fidelity: mean F {mean:.5f} outside "
                        f"{PAPER_HAAR_MEAN_F} +/- {tol:.5f}")
            )
    return failures


def check_compiled_program(item, target, settings):
    """Multiply the program out by full matrices; it must give the target."""
    placed = [
        ((addr.column, addr.row), cell.theta, cell.phi)
        for addr, cell in settings.cells.items()
    ]
    rebuilt = slow_mesh_product(settings.n, placed, settings.output_phases, cell_matrix)
    residual = float(np.max(np.abs(rebuilt - np.asarray(target))))
    if residual > COMPILE_TOL:
        return [Failure(item, f"compile: program misses its target by {residual:.3e}")]
    return []


def closure_error(phi0, coupling, powers_w, target_phases):
    """Worst |phi0 + C p - target| mod 2 pi, in rad."""
    return float(np.max(np.abs(wrap_signed(phi0 + coupling @ powers_w - target_phases))))


def check_solve_closure(item, profile, target_phases, powers_w):
    """phi0 + C p from the profile's own arrays must meet the target mod 2 pi."""
    _, phi0, _, coupling = profile_truth(profile)
    error = closure_error(phi0, coupling, powers_w, target_phases)
    if error > SOLVE_TOL_RAD:
        return [Failure(item, f"solve: realized phases miss the target by {error:.3e} rad")]
    return []


# ---------------------------------------------------------------------------
# hom-map


def predicted_visibility(transfer, plan, overlap):
    """1 - C(x) / C(0) from explicit Fock-state evolution of the transfer."""
    a, b = plan.input_pair
    key = tuple(sorted(plan.output_pair))
    mixed = fock_two_photon_distribution(transfer, a, b, overlap)[key]
    classical = fock_two_photon_distribution(transfer, a, b, 0.0)[key]
    return 1.0 - mixed / classical


def check_hom_map(report, transfers=None):
    """Range, oracle prediction per cell, and ANOVA p-values of each map.

    `transfers` maps (repetition, cell index) to the realized transfer of that
    scan; missing entries are realized here from the campaign's seeds.
    """
    config = report["config"]
    n, seed = config["n"], config["seed"]
    overlap = config["params"]["overlap"]
    sigma = config["params"]["count_noise_sigma"]
    tol = HOM_TOL_NOISELESS + HOM_TOL_PER_SIGMA * sigma
    cells = mesh.cell_addresses(n)
    transfers = transfers or {}
    failures = []
    maps = report["results"]["maps"]
    if len(maps) != config["count"]:
        return [Failure(None, "hom-map: map count differs from count")]
    for rep, doc in enumerate(maps):
        offset = rep * len(cells)
        if len(doc["visibilities"]) != len(cells):
            failures.append(Failure(None, "hom-map: map does not cover every cell"))
            continue
        profile = None
        for index, addr in enumerate(cells):
            item = offset + index
            value = doc["visibilities"][f"c{addr.column:02d}r{addr.row:02d}"]
            if not 0.0 <= value <= 1.0:
                failures.append(Failure(item, f"hom-map: V = {value!r} outside [0, 1]"))
                continue
            plan = quantum.route_to_tbs(n, addr)
            transfer = transfers.get((rep, index))
            if transfer is None:
                if profile is None:
                    profile = hardware.calibrated_profile(n, disorder_seed=seed + rep)
                transfer = hardware.realized_transfer(
                    profile,
                    quantum.plan_to_settings(plan),
                    seed=child_seed(child_seed(seed, rep), index),
                ).elements
            gap = abs(value - predicted_visibility(transfer, plan, overlap))
            if gap > tol:
                failures.append(
                    Failure(item, f"hom-map: cell {tuple(addr)} V = {value:.6f} is "
                            f"{gap:.3e} from the Fock-oracle value (tol {tol:.1e})")
                )
        for key in ("row_anova_p", "column_anova_p"):
            p = doc[key]
            if not 0.0 < p <= 1.0:
                failures.append(Failure(None, f"hom-map: {key} = {p!r} outside (0, 1]"))
    return failures


# ---------------------------------------------------------------------------
# calibration


def solve_check_targets(campaign_seed, count, heaters):
    """The uniform random targets the campaign's solve checks draw (the
    stream constant is read from the runner, not copied)."""
    return [
        np.random.default_rng(
            np.random.SeedSequence(
                [campaign_seed, experiments._SOLVE_CHECK_STREAM, check]
            )
        ).uniform(0.0, 2.0 * np.pi, heaters)
        for check in range(count)
    ]


def check_calibration(report):
    """Fitted (phi0, alpha) against the ground-truth profile, and the solve
    checks recomputed from the profile's own arrays."""
    config = report["config"]
    n, seed = config["n"], config["seed"]
    profile = hardware.calibrated_profile(n, disorder_seed=seed)
    order, phi0, alpha, coupling = profile_truth(profile)
    rows = report["results"]["heaters"]
    if [row["heater_id"] for row in rows] != list(order):
        return [Failure(None, "calibration: heater rows are not the canonical order")]
    failures = []
    entries = {}
    for i, row in enumerate(rows):
        rel_phi0 = abs(row["phi0_fit_rad"] - phi0[i]) / abs(phi0[i])
        rel_alpha = abs(row["alpha_fit_rad_per_w"] - alpha[i]) / abs(alpha[i])
        if not (rel_phi0 <= CAL_REL_TOL and rel_alpha <= CAL_REL_TOL):
            failures.append(
                Failure(i, f"calibration: {row['heater_id']} relative error "
                        f"phi0 {rel_phi0:.2e}, alpha {rel_alpha:.2e}")
            )
        entries[row["heater_id"]] = hardware.CalibrationEntry(
            heater_id=row["heater_id"],
            phi0_rad=row["phi0_fit_rad"],
            alpha_rad_per_w=row["alpha_fit_rad_per_w"],
            residual=row["residual"],
        )
    record = hardware.CalibrationRecord(entries=entries)
    reported = report["results"]["solve_check_errors_rad"]
    targets = solve_check_targets(seed, config["count"], len(order))
    if len(reported) != len(targets):
        return failures + [Failure(None, "calibration: solve-check count differs")]
    for check, (target, claimed) in enumerate(zip(targets, reported)):
        drive = hardware.solve_voltages(profile, record, target)
        error = closure_error(phi0, coupling, drive.powers_w, target)
        if error > SOLVE_TOL_RAD or abs(error - claimed) > 1e-12:
            failures.append(
                Failure(None, f"calibration: solve check {check} error {error:.3e} rad "
                        f"(reported {claimed:.3e}, bound {SOLVE_TOL_RAD:.0e})")
            )
    return failures


CHECKS = {
    "fidelity-haar": check_fidelity,
    "hom-map": check_hom_map,
    "calibration": check_calibration,
}


def check_same_payload(default_report, serial_report):
    """Worker count must not change the payload (criterion 10's property)."""
    if experiments.report_payload_bytes(default_report) != experiments.report_payload_bytes(
        serial_report
    ):
        return [Failure(None, "determinism: workers=1 payload differs from default")]
    return []
