"""Command line front end.

Exit codes: 0 on success, 1 on a campaign failure (infeasible solve, fit
degeneracy, hardware error), 2 on a usage error (bad flags, malformed or
inconsistent config). Campaign subcommands read an optional JSON config,
apply flag overrides, and print the report to stdout; artifacts are written
only when an output directory is chosen via --out, the config, or
MESHSIM_OUT_DIR.
"""

import argparse
import json
import math
import os
import sys

from . import __version__, compiler, experiments, mesh
from .util import (
    MeshsimError,
    UsageError,
    atomic_write_text,
    child_seed,
    dumps_canonical,
)

OUT_DIR_ENV = "MESHSIM_OUT_DIR"


def build_parser():
    parser = argparse.ArgumentParser(
        prog="meshsim",
        description="Simulate and characterize rectangular interferometer meshes.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="decompose a unitary into mesh settings")
    p.add_argument("--input", metavar="PATH", required=True, help="unitary JSON")
    p.add_argument("--out", metavar="DIR", help="artifact output directory")

    for command, summary in (
        ("haar", "draw Haar-random target unitaries"),
        ("perm", "draw distinct permutation targets"),
    ):
        p = sub.add_parser(command, help=summary)
        p.add_argument("--n", type=int, default=20, help="mode count (default 20)")
        p.add_argument("--count", type=int, default=1, help="ensemble size (default 1)")
        p.add_argument("--seed", type=int, default=0, help="ensemble seed (default 0)")
        p.add_argument("--out", metavar="DIR", help="artifact output directory")

    for kind, spec in experiments.CAMPAIGNS.items():
        if spec.subcommand in sub.choices:
            continue
        p = sub.add_parser(spec.subcommand, help=spec.help)
        p.set_defaults(kind=kind)
        if spec.subcommand == "fidelity":
            # the one subcommand serving two kinds: fidelity-haar, fidelity-perm
            p.add_argument(
                "--ensemble",
                choices=("haar", "perm"),
                default="haar",
                help="target ensemble (default haar)",
            )
            p.add_argument(
                "--count", type=int, help="override the config ensemble size"
            )
        p.add_argument("--config", metavar="PATH", help="campaign config JSON")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", metavar="DIR", help="artifact output directory")
        p.add_argument(
            "--format",
            choices=("json", "csv"),
            default="json",
            help="stdout format (default json)",
        )

    return parser


def _load_config_doc(path):
    if path is None:
        return {}
    try:
        with open(path, "r") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise UsageError(f"config {path} must hold a JSON object")
    return doc


def _resolved_out_dir(args, doc):
    if args.out:
        return args.out
    if doc.get("out_dir"):
        return doc["out_dir"]
    return os.environ.get(OUT_DIR_ENV) or None


def _run_campaign_command(args, kind):
    doc = _load_config_doc(args.config)
    if "kind" in doc and doc["kind"] != kind:
        raise UsageError(
            f"config kind {doc['kind']!r} conflicts with subcommand kind {kind!r}"
        )
    doc["kind"] = kind
    if args.seed is not None:
        doc["seed"] = args.seed
    if getattr(args, "count", None) is not None:
        doc["count"] = args.count
    doc["out_dir"] = _resolved_out_dir(args, doc)
    config = experiments.validate_config(doc)
    report, csv_files = experiments.run_campaign_with_artifacts(config)
    if args.format == "csv":
        sys.stdout.write(csv_files[experiments.CAMPAIGNS[kind].primary_csv])
    else:
        sys.stdout.write(dumps_canonical(report))
    return 0


def _run_compile(args):
    try:
        with open(args.input, "r") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise UsageError(f"cannot read unitary {args.input}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"unitary {args.input} is not valid JSON: {exc}") from exc
    try:
        target = experiments.unitary_from_json_dict(doc)
    except MeshsimError as exc:
        raise UsageError(str(exc)) from exc
    report = compiler.clements_decompose(target)
    out = {
        "settings": mesh.settings_to_json_dict(report.settings),
        "max_abs_residual": report.residual,
    }
    out_dir = _resolved_out_dir(args, {})
    if out_dir:
        atomic_write_text(
            os.path.join(out_dir, "settings.json"), dumps_canonical(out)
        )
    sys.stdout.write(dumps_canonical(out))
    return 0


def _run_ensemble(args, kind):
    if args.n < 2:
        raise UsageError(f"--n must be >= 2, got {args.n}")
    if args.count < 1:
        raise UsageError(f"--count must be >= 1, got {args.count}")
    if kind == "perm" and args.count > math.factorial(args.n):
        raise UsageError(f"--count must be <= {args.n}!, got {args.count}")
    if args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    out_dir = _resolved_out_dir(args, {})
    artifacts = []
    if out_dir:  # the ensemble is drawn only when it is written
        if kind == "haar":
            docs = (
                experiments.unitary_to_json_dict(
                    compiler.haar_random(args.n, child_seed(args.seed, index))
                )
                for index in range(args.count)
            )
        else:
            docs = (
                {"n": args.n, "permutation": list(perm)}
                for perm in compiler.permutation_ensemble(args.n, args.count, args.seed)
            )
        for index, doc in enumerate(docs):
            name = f"{kind}-{index:03d}.json"
            atomic_write_text(os.path.join(out_dir, name), dumps_canonical(doc))
            artifacts.append(name)
    manifest = {
        "kind": "permutation" if kind == "perm" else kind,
        "n": args.n,
        "seed": args.seed,
        "count": args.count,
        "artifacts": artifacts,
    }
    sys.stdout.write(dumps_canonical(manifest))
    return 0


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "compile":
            return _run_compile(args)
        if args.command in ("haar", "perm"):
            return _run_ensemble(args, args.command)
        if args.command == "fidelity":
            return _run_campaign_command(args, f"fidelity-{args.ensemble}")
        return _run_campaign_command(args, args.kind)
    except UsageError as exc:
        print(f"meshsim: error: {exc}", file=sys.stderr)
        return 2
    except MeshsimError as exc:
        print(f"meshsim: campaign failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
