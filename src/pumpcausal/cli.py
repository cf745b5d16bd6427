"""Command-line entry points.

There is one subcommand per row of ``pipeline.STAGES``, plus ``pipeline`` and
``report``; global flags select the config file, seed, output directory, and
thread count.  Exit codes: 0 success, 1 validation error (a bad setting or
a malformed command line), 2 stage failure (a file that cannot be read or
written included), 3 success with diagnostic warnings (sampler diagnostics,
or no group large enough for discovery).
"""

from __future__ import annotations

import sys
from collections.abc import Callable
from contextlib import contextmanager

import click

from .errors import ConfigError, PumpcausalError
from .pipeline import STAGES, PipelineConfig, build_report, load_config, run_pipeline, stage_guard

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_STAGE = 2
EXIT_WARNINGS = 3


@contextmanager
def _validation_exit():
    """Give a malformed command line the exit code of a validation error;
    click's own code for it, 2, is that of a failed stage here."""
    try:
        yield
    except click.UsageError as exc:
        exc.exit_code = EXIT_VALIDATION
        raise


class _Commands(click.Group):
    """The command group: click's usage errors exit with code 1, whether
    they are in the global flags, the subcommand's name or its flags."""

    def make_context(self, *args, **kwargs):
        with _validation_exit():
            return super().make_context(*args, **kwargs)

    def invoke(self, ctx):
        with _validation_exit():
            return super().invoke(ctx)


@click.group(cls=_Commands)
@click.option("--config", "config_path", type=click.Path(), default=None,
              help="INI config file; omitted keys use documented defaults.")
@click.option("--seed", type=int, default=None, help="Global seed override.")
@click.option("--out", "out_dir", type=click.Path(), default=None,
              help="Output directory override.")
@click.option("--threads", type=int, default=None,
              help="Within-stage parallelism (chains, bootstrap); 0 = all cores.")
@click.pass_context
def main(ctx, config_path, seed, out_dir, threads):
    """Deterioration analytics: hazard fit, features, groups, causal discovery."""
    ctx.obj = {"path": config_path, "seed": seed, "out_dir": out_dir, "threads": threads}


def _run(ctx, action: Callable[[PipelineConfig], list[str] | None]) -> None:
    """Build the config from the global flags and run ``action`` on it.

    A bad setting exits 1 and a failed stage 2, each with its message;
    otherwise each diagnostic flag ``action`` returns is printed, and any
    flag means exit code 3.
    """
    try:
        flags = action(load_config(**ctx.obj)) or []
    except ConfigError as exc:
        click.echo(f"validation error: {exc}", err=True)
        sys.exit(EXIT_VALIDATION)
    except PumpcausalError as exc:
        click.echo(f"stage failure: {exc}", err=True)
        sys.exit(EXIT_STAGE)
    for flag in flags:
        click.echo(f"warning: {flag}", err=True)
    if flags:
        sys.exit(EXIT_WARNINGS)


def _stage_command(stage) -> click.Command:
    """The subcommand that runs ``stage`` alone from cached artifacts."""

    def action(cfg):
        with stage_guard(stage.name):
            flags = stage.run(cfg)
        click.echo(f"{stage.name} artifacts written to {cfg.out_dir}")
        return flags

    command = click.pass_context(lambda ctx: _run(ctx, action))
    return click.Command(stage.name, callback=command, help=stage.run.__doc__.splitlines()[0])


for _stage in STAGES:
    main.add_command(_stage_command(_stage))


@main.command()
@click.option("--no-cache", is_flag=True, default=False,
              help="Re-run every stage even when cached outputs are valid.")
@click.pass_context
def pipeline(ctx, no_cache):
    """Run all stages in sequence with artifact caching."""

    def action(cfg):
        flags = run_pipeline(cfg, use_cache=not no_cache)
        click.echo(f"pipeline artifacts written to {cfg.out_dir}")
        return flags

    _run(ctx, action)


@main.command()
@click.pass_context
def report(ctx):
    """Recompute the run report from persisted stage artifacts."""

    def action(cfg):
        with stage_guard("report"):
            run_report = build_report(cfg)
        click.echo(f"groups: {run_report['groups']}")
        if run_report["gap_ratio"] is not None:
            click.echo(f"effect magnitude gap ratio: {run_report['gap_ratio']}")
        if run_report["skipped_groups"]:
            click.echo(f"skipped groups: {', '.join(run_report['skipped_groups'])}")
        click.echo(f"report written to {cfg.path('report')}")

    _run(ctx, action)


if __name__ == "__main__":
    main()
