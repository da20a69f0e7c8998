"""Command-line front end.

Two subcommands, ``das`` and ``aloha``, each accepting a preset name and/or a
config file plus a few overriding flags.  Exit codes: 0 on success, 2 for a
config problem, 3 for a run problem, 4 for an emit problem; error messages
name the failing stage.
"""

import argparse
import sys

from .experiments import (
    PRESETS,
    ConfigError,
    check_app_indices,
    config_from_mapping,
    emit_results,
    load_config_file,
    run_experiment,
)

_STAGE_EXIT = {"config": 2, "run": 3, "emit": 4}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fieldsense",
        description="Sensor-field collection experiments: GP reconstruction "
        "with active upload ordering, and multichannel ALOHA uploading.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("das", "round-by-round collection with a selection policy"),
        ("aloha", "contention-based uploading with prediction feedback"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--preset", choices=sorted(PRESETS), help="named figure preset")
        p.add_argument("--seed", help="seed spec: n, a..b, or comma list")
        p.add_argument("--rounds", type=int)
        p.add_argument("--policy", help="comma list of selection policies (das only)")
        p.add_argument("--out", help="output path (records; aggregates at <out>.agg)")
        p.add_argument("--format", choices=["csv", "json"], dest="fmt")
    return parser


def _fail(stage: str, message: str) -> int:
    print(f"fieldsense: {stage}: {message}", file=sys.stderr)
    return _STAGE_EXIT[stage]


def _assemble_mapping(args) -> dict:
    mapping: dict = {}
    if args.preset:
        mapping.update(PRESETS[args.preset])
    if args.config:
        mapping.update(load_config_file(args.config))
    mapping.setdefault("experiment", "das-1d" if args.command == "das" else "aloha")
    if args.seed:
        mapping["seeds"] = args.seed
    if args.rounds is not None:
        mapping["rounds"] = str(args.rounds)
    if args.policy:
        mapping["policy"] = args.policy
    if args.out:
        mapping["out"] = args.out
    if args.fmt:
        mapping["format"] = args.fmt
    return mapping


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        mapping = _assemble_mapping(args)
        config = config_from_mapping(mapping)
        family = "aloha" if config.experiment == "aloha" else "das"
        if family != args.command:
            raise ConfigError(
                f"experiment {config.experiment!r} does not belong to "
                f"the {args.command!r} subcommand"
            )
        check_app_indices(config)
    except (ConfigError, OSError) as exc:
        return _fail("config", str(exc))

    try:
        result = run_experiment(config)
    except Exception as exc:  # noqa: BLE001 - boundary
        return _fail("run", str(exc))
    for seed, label, message in result.failures:
        print(f"fieldsense: run: seed {seed} ({label}) failed: {message}",
              file=sys.stderr)

    out = config.out or f"{args.preset or config.experiment}.{config.fmt}"
    try:
        emit_results(result, config.fmt, out)
    except OSError as exc:
        return _fail("emit", str(exc))
    print(f"wrote {result.n_records} records to {out} "
          f"(aggregates: {out}.agg)")
    return 3 if result.failures else 0


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
