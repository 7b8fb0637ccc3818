"""Traced replay of each workload's item pipeline.

The replay calls the same public functions, in the same order and with the
same seeds, as the campaign runner in meshsim.experiments, and records one
span per call: name, kind, parent span, item id, start and end. A *probe* is
a public call that another public call makes internally; the replay times it
again alone on the same inputs (parented to the outer call's span), so the
outer call's self time is its duration minus its probes'. Spans live in
memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import statistics
from contextlib import contextmanager
from time import perf_counter

import numpy as np

import campaigns
from campaigns import Failure
from meshsim import analysis, compiler, experiments, hardware, mesh, quantum, util
from meshsim.util import child_seed

# span kinds whose time is benchmark work, not program work
NOT_PROGRAM = ("probe", "check")


class Tracer:
    """In-memory span recorder."""

    def __init__(self):
        self.spans = []  # [id, name, kind, parent, item, start, end]
        self.item = None
        self._stack = []

    @contextmanager
    def span(self, name, kind="call", parent=None):
        sid = len(self.spans)
        if parent is None and self._stack:
            parent = self._stack[-1]
        record = [sid, name, kind, parent, self.item, 0.0, 0.0]
        self.spans.append(record)
        self._stack.append(sid)
        record[5] = perf_counter()
        try:
            yield sid
        finally:
            record[6] = perf_counter()
            self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        """Run fn in a span; returns (result, span id)."""
        with self.span(name) as sid:
            return fn(*args, **kwargs), sid

    def probe(self, name, outer, fn, *args, **kwargs):
        """Re-time a call that span `outer`'s call made internally."""
        with self.span(name, kind="probe", parent=outer):
            return fn(*args, **kwargs)

    def check(self, name, fn, *args):
        with self.span(name, kind="check"):
            return fn(*args)

    # -- derived numbers ---------------------------------------------------

    def median_ms(self, name):
        """Median duration of the calls (or probes) named `name`, in ms."""
        values = [s[6] - s[5] for s in self.spans if s[1] == name and s[2] != "check"]
        return 1e3 * statistics.median(values) if values else 0.0

    def _child_time(self):
        """Seconds covered by each span's children, probes included."""
        covered = {}
        for s in self.spans:
            if s[3] is not None:
                covered[s[3]] = covered.get(s[3], 0.0) + s[6] - s[5]
        return covered

    def self_median_ms(self, name):
        """Median self time of the calls named `name`, in ms."""
        covered = self._child_time()
        values = [
            s[6] - s[5] - covered.get(s[0], 0.0)
            for s in self.spans
            if s[1] == name and s[2] == "call"
        ]
        return 1e3 * statistics.median(values) if values else 0.0

    def program_seconds(self):
        """Time inside campaign spans, less the probes and checks in them."""
        total = 0.0
        for root in (s for s in self.spans if s[2] == "campaign"):
            total += root[6] - root[5]
            total -= sum(
                s[6] - s[5]
                for s in self.spans
                if s[2] in NOT_PROGRAM and root[5] <= s[5] and s[6] <= root[6]
            )
        return total

    def summary(self):
        """Per span name: kind, calls, median, total and self totals in seconds."""
        covered = self._child_time()
        out = {}
        for s in self.spans:
            entry = out.setdefault(
                s[1], {"kind": s[2], "calls": 0, "total_s": 0.0, "self_total_s": 0.0,
                       "durations": []}
            )
            duration = s[6] - s[5]
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_total_s"] += duration - covered.get(s[0], 0.0)
            entry["durations"].append(duration)
        for entry in out.values():
            entry["median_s"] = statistics.median(entry.pop("durations"))
        return out

    def write(self, path, header):
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = dict(header)
        doc["span_fields"] = ["id", "name", "kind", "parent", "item", "start_s", "end_s"]
        doc["summary"] = self.summary()
        doc["spans"] = self.spans
        path.write_text(json.dumps(doc) + "\n")


def _same(label, got, want):
    if got != want:
        return [Failure(None, f"replay: {label} differs from the timed campaign")]
    return []


# ---------------------------------------------------------------------------
# replays; each returns (items replayed, failures, counters)


def replay_fidelity(tr, doc, report):
    failures = []
    rounds = 0
    with tr.span("campaign", kind="campaign"):
        config, _ = tr.call("experiments.validate_config", experiments.validate_config, doc)
        profile, _ = tr.call("experiments.resolve_profile", experiments.resolve_profile, config)
        calibration, _ = tr.call(
            "hardware.exact_from_profile", hardware.CalibrationRecord.exact_from_profile, profile
        )
        fidelities, max_errors = [], []
        for index in range(config.count):
            tr.item = index
            with tr.span("item", kind="item"):
                seed = child_seed(config.seed, index)
                target, _ = tr.call("compiler.haar_random", compiler.haar_random, config.n, seed)
                decomposed, sid = tr.call(
                    "compiler.clements_decompose", compiler.clements_decompose, target
                )
                settings = decomposed.settings
                tr.probe("mesh.mesh_unitary", sid, mesh.mesh_unitary, settings)
                failures += tr.check(
                    "check.compile", campaigns.check_compiled_program,
                    index, target.elements, settings,
                )
                phases, _ = tr.call("hardware.heater_targets", hardware.heater_targets, settings)
                drive, _ = tr.call(
                    "hardware.solve_voltages", hardware.solve_voltages,
                    profile, calibration, phases,
                )
                rounds += drive.iterations
                failures += tr.check(
                    "check.solve", campaigns.check_solve_closure,
                    index, profile, phases, drive.powers_w,
                )
                realized, _ = tr.call(
                    "hardware.realized_heater_phases", hardware.realized_heater_phases,
                    profile, drive.powers_w,
                )
                realized_settings, _ = tr.call(
                    "hardware.settings_from_heater_phases", hardware.settings_from_heater_phases,
                    config.n, realized, output_phases=settings.output_phases,
                )
                measured, sid = tr.call(
                    "hardware.measure_amplitude_matrix", hardware.measure_amplitude_matrix,
                    profile, realized_settings, seed=seed,
                )
                tr.probe(
                    "hardware.realized_transfer", sid, hardware.realized_transfer,
                    profile, realized_settings, seed=seed,
                )
                fidelity, _ = tr.call(
                    "analysis.amplitude_fidelity", analysis.amplitude_fidelity, target, measured
                )
                error, _ = tr.call("analysis.error_matrix", analysis.error_matrix, target, measured)
                fidelities.append(float(fidelity))
                max_errors.append(float(np.max(np.abs(error))))
        tr.item = None
        stats, _ = tr.call("analysis.ensemble_statistics", analysis.ensemble_statistics, fidelities)
        tr.call("util.dumps_canonical", util.dumps_canonical, report)
    failures += tr.check("check.fidelity", campaigns.check_fidelity, report)
    failures += _same("fidelities", fidelities, report["results"]["fidelities"])
    failures += _same("max error entries", max_errors, report["results"]["max_error_entries"])
    failures += _same("ensemble statistics", stats.to_dict(), report["summary"]["fidelity"])
    return config.count, failures, {"solve_rounds": rounds}


def replay_hom_map(tr, doc, report):
    failures = []
    transfers = {}
    maps = []
    certain = fits = 0
    with tr.span("campaign", kind="campaign"):
        config, _ = tr.call("experiments.validate_config", experiments.validate_config, doc)
        source = quantum.PhotonPairSource(mutual_overlap_at_zero_delay=config.params["overlap"])
        sigma = config.params["count_noise_sigma"]
        cells = mesh.cell_addresses(config.n)
        for rep in range(config.count):
            profile, _ = tr.call(
                "experiments.resolve_profile", experiments.resolve_profile, config, rep
            )
            rep_seed = child_seed(config.seed, rep)
            visibilities = []
            for index, addr in enumerate(cells):
                tr.item = rep * len(cells) + index
                seed = child_seed(rep_seed, index)
                with tr.span("item", kind="item"):
                    plan, _ = tr.call("quantum.route_to_tbs", quantum.route_to_tbs, config.n, addr)
                    scan, sid = tr.call(
                        "quantum.hom_scan", quantum.hom_scan, plan, source, profile, None,
                        seed=seed, count_noise_sigma=sigma,
                    )
                    settings = tr.probe("quantum.plan_to_settings", sid, quantum.plan_to_settings, plan)
                    transfer = tr.probe(
                        "hardware.realized_transfer", sid, hardware.realized_transfer,
                        profile, settings, seed=seed,
                    )
                    fit = tr.probe(
                        "quantum.fit_gaussian_dip", sid, quantum.fit_gaussian_dip,
                        scan.delays_um, scan.coincidences,
                    )
                failures += _same(f"dip fit probe of cell {tuple(addr)}", fit, scan.fit)
                transfers[(rep, index)] = transfer.elements
                visibilities.append(scan.fit.visibility)
                fits += 1
                certain += not scan.fit.uncertain
            tr.item = None
            stats, _ = tr.call(
                "analysis.ensemble_statistics", analysis.ensemble_statistics, visibilities
            )
            got = report["results"]["maps"][rep]
            want = [got["visibilities"][f"c{a.column:02d}r{a.row:02d}"] for a in cells]
            failures += _same("visibilities", visibilities, want)
            failures += _same("ensemble statistics", stats.to_dict(), got["stats"])
            maps.append(visibilities)
        tr.call("util.dumps_canonical", util.dumps_canonical, report)
    failures += tr.check("check.hom_map", campaigns.check_hom_map, report, transfers)
    return fits, failures, {"fits": fits, "certain_fits": certain, "maps": maps}


def replay_calibration(tr, doc, report):
    failures = []
    rounds = 0
    with tr.span("campaign", kind="campaign"):
        config, _ = tr.call("experiments.validate_config", experiments.validate_config, doc)
        profile, _ = tr.call("experiments.resolve_profile", experiments.resolve_profile, config)
        order = hardware.heater_order(config.n)
        entries = {}
        for index, hid in enumerate(order):
            tr.item = index
            with tr.span("item", kind="item"):
                sweep, _ = tr.call(
                    "hardware.simulate_calibration_sweep", hardware.simulate_calibration_sweep,
                    profile, hid, points=config.params["points"], seed=config.seed,
                    detector_noise_sigma=config.params["detector_noise_sigma"],
                )
                entries[hid], _ = tr.call(
                    "hardware.fit_phase_response", hardware.fit_phase_response,
                    sweep, profile.heaters[hid].resistance_ohm,
                )
        tr.item = None
        record = hardware.CalibrationRecord(entries=entries)
        errors = []
        targets = campaigns.solve_check_targets(config.seed, config.count, len(order))
        for target in targets:
            drive, _ = tr.call(
                "hardware.solve_voltages", hardware.solve_voltages, profile, record, target
            )
            rounds += drive.iterations
            realized, _ = tr.call(
                "hardware.realized_heater_phases", hardware.realized_heater_phases,
                profile, drive.powers_w,
            )
            errors.append(float(np.max(np.abs(util.wrap_signed(realized - target)))))
        tr.call("util.dumps_canonical", util.dumps_canonical, report)
    failures += tr.check("check.calibration", campaigns.check_calibration, report)
    rows = report["results"]["heaters"]
    fitted = [
        (e.phi0_rad, e.alpha_rad_per_w, e.residual) for e in (entries[h] for h in order)
    ]
    want = [(r["phi0_fit_rad"], r["alpha_fit_rad_per_w"], r["residual"]) for r in rows]
    failures += _same("heater fits", fitted, want)
    failures += _same("solve-check errors", errors, report["results"]["solve_check_errors_rad"])
    return len(order), failures, {"solve_rounds": rounds, "record": record}


REPLAYS = {
    "fidelity-haar": replay_fidelity,
    "hom-map": replay_hom_map,
    "calibration": replay_calibration,
}


def campaign_call(tr, kind, doc, counters):
    """Time the campaign-level layer call once and check it against the replay.

    Returns (items attempted, failures); fidelity-haar has no such call.
    """
    config = experiments.validate_config(doc)
    if kind == "hom-map":
        profile = experiments.resolve_profile(config, 0)
        source = quantum.PhotonPairSource(mutual_overlap_at_zero_delay=config.params["overlap"])
        vmap, _ = tr.call(
            "quantum.hom_visibility_map", quantum.hom_visibility_map, config.n, source, profile,
            seed=child_seed(config.seed, 0),
            count_noise_sigma=config.params["count_noise_sigma"],
        )
        return vmap.visibilities.size, _same(
            "hom_visibility_map", vmap.visibilities.tolist(), counters["maps"][0]
        )
    if kind == "calibration":
        profile = experiments.resolve_profile(config)
        record, _ = tr.call(
            "hardware.calibrate_profile", hardware.calibrate_profile, profile,
            points=config.params["points"], seed=config.seed,
            detector_noise_sigma=config.params["detector_noise_sigma"],
        )
        return len(record.entries), _same("calibrate_profile", record, counters["record"])
    return 0, []
