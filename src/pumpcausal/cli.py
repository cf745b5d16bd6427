"""Command-line entry points.

There is one subcommand per row of ``pipeline.STAGES``, plus ``pipeline`` and
``report``; global flags select the config file, seed, output directory, and
thread count.  Exit codes: 0 success, 1 validation error (a bad setting or
a malformed command line), 2 stage failure (a file that cannot be read or
written included), 3 success with diagnostic warnings (sampler diagnostics,
or no group large enough for discovery).
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigError, PumpcausalError
from .pipeline import STAGES, build_report, load_config, run_pipeline, stage_guard

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_STAGE = 2
EXIT_WARNINGS = 3


class _Parser(argparse.ArgumentParser):
    """A parser that takes no option prefix and whose usage errors exit 1,
    like any validation error; argparse's own code for them, 2, is that of
    a failed stage here.  Subcommand parsers are of this class too."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def _stage_action(stage):
    """The action that runs ``stage`` alone from cached artifacts."""

    def action(cfg, args):
        with stage_guard(stage.name):
            flags = stage.run(cfg)
        print(f"{stage.name} artifacts written to {cfg.out_dir}")
        return flags

    action.__doc__ = stage.run.__doc__.splitlines()[0]
    return action


def _pipeline(cfg, args):
    """Run all stages in sequence with artifact caching."""
    flags = run_pipeline(cfg, use_cache=not args.no_cache)
    print(f"pipeline artifacts written to {cfg.out_dir}")
    return flags


def _report(cfg, args):
    """Recompute the run report from persisted stage artifacts."""
    with stage_guard("report"):
        run_report = build_report(cfg)
    print(f"groups: {run_report['groups']}")
    if run_report["gap_ratio"] is not None:
        print(f"effect magnitude gap ratio: {run_report['gap_ratio']}")
    if run_report["skipped_groups"]:
        print(f"skipped groups: {', '.join(run_report['skipped_groups'])}")
    print(f"report written to {cfg.path('report')}")


def _parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pumpcausal",
        description="Deterioration analytics: hazard fit, features, groups, causal discovery.",
    )
    parser.add_argument("--config", help="INI config file; omitted keys use documented defaults.")
    parser.add_argument("--seed", type=int, help="Global seed override.")
    parser.add_argument("--out", help="Output directory override.")
    parser.add_argument("--threads", type=int,
                        help="Within-stage parallelism (chains, bootstrap); 0 = all cores.")
    commands = parser.add_subparsers(dest="command", required=True)
    actions = {stage.name: _stage_action(stage) for stage in STAGES}
    actions.update(pipeline=_pipeline, report=_report)
    for name, action in actions.items():
        command = commands.add_parser(name, help=action.__doc__, description=action.__doc__)
        command.set_defaults(action=action)
    commands.choices["pipeline"].add_argument(
        "--no-cache", action="store_true",
        help="Re-run every stage even when cached outputs are valid.",
    )
    return parser


def main(argv: list[str] | None = None) -> None:
    """Run the command line ``argv`` (default ``sys.argv[1:]``).

    Always ends in ``SystemExit``: a bad setting exits 1 and a failed stage
    2, each with its message; otherwise each diagnostic flag the command
    returns is printed, and any flag means exit code 3.
    """
    args = _parser().parse_args(argv)
    try:
        cfg = load_config(args.config, seed=args.seed, out_dir=args.out, threads=args.threads)
        flags = args.action(cfg, args) or []
    except ConfigError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        sys.exit(EXIT_VALIDATION)
    except PumpcausalError as exc:
        print(f"stage failure: {exc}", file=sys.stderr)
        sys.exit(EXIT_STAGE)
    for flag in flags:
        print(f"warning: {flag}", file=sys.stderr)
    sys.exit(EXIT_WARNINGS if flags else EXIT_OK)


if __name__ == "__main__":
    main()
