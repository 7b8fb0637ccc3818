"""Campaign benchmark for meshsim.

    python3 bench/run.py --workload fidelity-haar --seed 1 --seconds 15 --trace 0

Runs whole campaigns of one workload (see campaigns.WORKLOADS) through
`experiments.run_campaign`, serialises each report with
`util.dumps_canonical` as the CLI does, and checks every output. One caller
runs campaigns back to back (a closed loop) with `workers` unset, as in the
CLI, until the campaigns have taken `--seconds` of host time.

--trace 0 reports the end-to-end metrics: items_per_s (median over the
campaigns of items completed per second), setup_s (median over fresh
interpreters) and peak_rss_mb.
--trace 1 reports the per-layer metrics from a traced replay of the same
campaigns and writes its spans to bench/out/. The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

# One BLAS thread per campaign worker keeps the default worker pool within
# the core count. OpenBLAS's own default of one thread per core, on top of
# the workers, oversubscribes the cores: on a 2-core host it made the
# run-to-run spread of fidelity-haar items_per_s 16% instead of 3%.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import campaigns  # noqa: E402
import tracing  # noqa: E402
from meshsim import experiments, hardware  # noqa: E402
from meshsim.util import dumps_canonical  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = campaigns.ROOT / "src"
OUT = BENCH / "out"

SETUP_REPEATS = 5
IMPORT_REPEATS = 3
SETUP_CALL_REPEATS = 10

# Work a fresh CLI process does before its first item: import, config
# validation, profile generation and, for fidelity, the exact calibration.
_SETUP_CHILD = """
import json, sys
from meshsim import cli, experiments, hardware
config = experiments.validate_config(json.loads(sys.argv[1]))
profile = experiments.resolve_profile(config)
if config.kind == "fidelity-haar":
    hardware.CalibrationRecord.exact_from_profile(profile)
print("ready", flush=True)
"""

_IMPORT_CHILD = """
from time import perf_counter
start = perf_counter()
import meshsim.cli
print(perf_counter() - start, flush=True)
"""


def _child(code, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return subprocess.Popen(
        [sys.executable, "-c", code, *args],
        cwd=campaigns.ROOT, env=env, stdout=subprocess.PIPE, text=True,
    )


def _child_line(proc):
    try:
        line = proc.stdout.readline().strip()
    finally:
        proc.stdout.close()
        code = proc.wait(timeout=60)
    if code != 0 or not line:
        raise RuntimeError(f"set-up child exited with code {code}")
    return line


def setup_seconds(doc):
    """Host time from starting a fresh interpreter to being ready for item 0."""
    start = perf_counter()
    proc = _child(_SETUP_CHILD, json.dumps(doc))
    _child_line(proc)
    return perf_counter() - start


def import_seconds():
    return float(_child_line(_child(_IMPORT_CHILD)))


class Tally:
    """Items attempted and failed, and whether every surviving output held."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def add(self, items, failures):
        self.attempted += items
        if failures:
            self.correct = False
            self.failed += campaigns.failed_items(failures, items)
            for failure in failures[:5]:
                print(f"check failed: {failure.message}", file=sys.stderr)

    def crashed(self, items):
        self.attempted += items
        self.failed += items


def timed_campaign(doc, workers=None):
    """One campaign as the CLI runs it: validate, run, serialise.

    Returns (report, host seconds taken).
    """
    start = perf_counter()
    report = experiments.run_campaign(experiments.validate_config(doc), workers=workers)
    dumps_canonical(report)
    return report, perf_counter() - start


def end_to_end(workload, seed, seconds, tally):
    """Closed loop of whole campaigns until they have taken `seconds`.

    Only the campaigns are timed. The checks, and one set-up sample after
    each of the first campaigns, run between them, so the set-up samples
    see the same spells of host speed as the timed work. Both figures are
    medians, which a slow spell covering less than half the run leaves
    unmoved.
    """
    items = workload.items()
    setup_doc = workload.config_doc(campaigns.round_seed(seed, 0))
    setups = []
    rates = []
    busy = 0.0
    index = 0
    while index == 0 or busy < seconds:
        doc = workload.config_doc(campaigns.round_seed(seed, index))
        index += 1
        start = perf_counter()
        try:
            report, elapsed = timed_campaign(doc)
        except Exception:
            busy += perf_counter() - start
            traceback.print_exc()
            tally.crashed(items)
            rates.append(0.0)
            continue
        busy += elapsed
        failures = campaigns.CHECKS[workload.kind](report)
        tally.add(items, failures)
        rates.append((items - campaigns.failed_items(failures, items)) / elapsed)
        if len(setups) < SETUP_REPEATS:
            setups.append(setup_seconds(setup_doc))
    while len(setups) < SETUP_REPEATS:
        setups.append(setup_seconds(setup_doc))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"campaigns: {index}, items per campaign: {items}, campaign time: {busy:.3f} s")
    return {
        "items_per_s": (statistics.median(rates), "items/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }


def per_layer(workload, seed, seconds, tally):
    """Traced run: set-up layers, then rounds of (default-workers campaign,
    workers=1 campaign, traced replay) until `seconds` have passed.

    Interleaving the three per round lets the worker speed-up and the
    tracing overhead compare runs made under the same machine conditions.
    """
    tr = tracing.Tracer()
    kind = workload.kind
    items = workload.items()
    imports = [import_seconds() for _ in range(IMPORT_REPEATS)]
    doc0 = workload.config_doc(campaigns.round_seed(seed, 0))
    with tr.span("setup", kind="setup"):
        for _ in range(SETUP_CALL_REPEATS):
            config, _ = tr.call("experiments.validate_config", experiments.validate_config, doc0)
            profile, _ = tr.call(
                "experiments.resolve_profile", experiments.resolve_profile, config
            )
            tr.call(
                "hardware.calibrated_profile", hardware.calibrated_profile,
                config.n, disorder_seed=config.seed,
            )
            if kind == "fidelity-haar":
                tr.call(
                    "hardware.exact_from_profile",
                    hardware.CalibrationRecord.exact_from_profile, profile,
                )

    replay = tracing.REPLAYS[kind]
    default_s = serial_s = 0.0
    counters = None
    completed = 0
    started = perf_counter()
    index = 0
    while index == 0 or perf_counter() - started < seconds:
        doc = workload.config_doc(campaigns.round_seed(seed, index))
        index += 1
        try:
            report, default_elapsed = timed_campaign(doc)
            serial, serial_elapsed = timed_campaign(doc, workers=1)
            # the replay checks the default report; the serial one must match it
            _, failures, found = replay(tr, doc, report)
        except Exception:
            traceback.print_exc()
            tally.crashed(2 * items)
            continue
        default_s += default_elapsed
        serial_s += serial_elapsed
        completed += items
        failures += campaigns.check_same_payload(report, serial)
        tally.add(2 * items, failures)
        # counters come from the first campaign alone, so they repeat per seed
        counters = counters or dict(found, doc=doc)
    if counters is None:
        raise RuntimeError("no campaign of the traced run completed")
    call_items, failures = tracing.campaign_call(tr, kind, counters["doc"], counters)
    tally.add(call_items, failures)

    default_rate = completed / default_s
    serial_rate = completed / serial_s
    traced_rate = completed / tr.program_seconds()
    fits = counters.get("fits", 0)
    values = {
        "cli.import_s": (statistics.median(imports), "s"),
        "hardware.solve_voltages.rounds": (counters.get("solve_rounds", 0), "count"),
        "hardware.calibrate_profile.s": (tr.median_ms("hardware.calibrate_profile") / 1e3, "s"),
        "quantum.hom_visibility_map.s": (tr.median_ms("quantum.hom_visibility_map") / 1e3, "s"),
        "quantum.fit_gaussian_dip.fits": (fits, "count"),
        "quantum.fit_gaussian_dip.certain_ratio": (
            counters.get("certain_fits", 0) / fits if fits else 0.0, "ratio"),
        "util.parallel_map.speedup": (default_rate / serial_rate, "ratio"),
        "util.parallel_map.default_items_per_s": (default_rate, "items/s"),
        "util.parallel_map.serial_items_per_s": (serial_rate, "items/s"),
        "trace.items_per_s": (traced_rate, "items/s"),
        "trace.overhead_ratio": (1.0 - traced_rate / serial_rate, "ratio"),
    }
    for name in MS_LAYERS:
        values[f"{name}.ms"] = (tr.median_ms(name), "ms")
    for name in SELF_LAYERS:
        values[f"{name}.self_ms"] = (tr.self_median_ms(name), "ms")
    tr.write(
        OUT / f"trace-{workload.name}-seed{seed}.json",
        {"workload": workload.name, "seed": seed, "seconds": seconds, "campaigns": index},
    )
    return values


MS_LAYERS = (
    "experiments.validate_config",
    "experiments.resolve_profile",
    "hardware.calibrated_profile",
    "hardware.exact_from_profile",
    "compiler.haar_random",
    "compiler.clements_decompose",
    "mesh.mesh_unitary",
    "hardware.heater_targets",
    "hardware.solve_voltages",
    "hardware.realized_heater_phases",
    "hardware.settings_from_heater_phases",
    "hardware.measure_amplitude_matrix",
    "hardware.realized_transfer",
    "hardware.simulate_calibration_sweep",
    "hardware.fit_phase_response",
    "quantum.route_to_tbs",
    "quantum.hom_scan",
    "quantum.plan_to_settings",
    "quantum.fit_gaussian_dip",
    "analysis.amplitude_fidelity",
    "analysis.error_matrix",
    "analysis.ensemble_statistics",
    "util.dumps_canonical",
)
# outer calls whose probes let the trace derive their self time
SELF_LAYERS = (
    "compiler.clements_decompose",
    "hardware.measure_amplitude_matrix",
    "quantum.hom_scan",
)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = campaigns.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r} "
              f"(known: {', '.join(campaigns.WORKLOADS)})", file=sys.stderr)
        return 2
    tally = Tally()
    measure = per_layer if args.trace else end_to_end
    values = measure(workload, args.seed, args.seconds, tally)
    for name, (value, unit) in values.items():
        print(f"{workload.name} {name} = {value:.6g} {unit}")
    print(f"{workload.name} items attempted = {tally.attempted}, failed = {tally.failed}")
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
