"""Command-line entry points.

There is one subcommand per row of ``pipeline.STAGES``, plus ``pipeline`` and
``report``; global flags select the config file, seed, output directory, and
thread count.  Exit codes: 0 success, 1 validation error, 2 stage failure,
3 success with diagnostic warnings (sampler diagnostics, or no group large
enough for discovery).
"""

from __future__ import annotations

import sys

import click

from .errors import ConfigError, PumpcausalError
from .pipeline import STAGES, PipelineConfig, build_report, load_config, run_pipeline

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_STAGE = 2
EXIT_WARNINGS = 3


@click.group()
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
    ctx.obj = {
        "config_path": config_path,
        "seed": seed,
        "out_dir": out_dir,
        "threads": threads,
    }


def _config(ctx) -> PipelineConfig:
    opts = ctx.obj
    try:
        return load_config(
            opts["config_path"],
            seed=opts["seed"],
            out_dir=opts["out_dir"],
            threads=opts["threads"],
        )
    except ConfigError as exc:
        click.echo(f"validation error: {exc}", err=True)
        sys.exit(EXIT_VALIDATION)


def _execute(stage_fn, cfg) -> list[str]:
    try:
        return stage_fn(cfg) or []
    except ConfigError as exc:
        click.echo(f"validation error: {exc}", err=True)
        sys.exit(EXIT_VALIDATION)
    except PumpcausalError as exc:
        click.echo(f"stage failure: {exc}", err=True)
        sys.exit(EXIT_STAGE)


def _report_flags(flags: list[str]) -> None:
    """Print each diagnostic flag; any flag means exit code 3."""
    for flag in flags:
        click.echo(f"warning: {flag}", err=True)
    if flags:
        sys.exit(EXIT_WARNINGS)


def _stage_command(stage) -> click.Command:
    """The subcommand that runs ``stage`` alone from cached artifacts."""

    @click.pass_context
    def command(ctx):
        cfg = _config(ctx)
        flags = _execute(stage.run, cfg)
        click.echo(f"{stage.name} artifacts written to {cfg.out_dir}")
        _report_flags(flags)

    return click.Command(
        stage.name, callback=command, help=stage.run.__doc__.splitlines()[0]
    )


for _stage in STAGES:
    main.add_command(_stage_command(_stage))


@main.command()
@click.option("--no-cache", is_flag=True, default=False,
              help="Re-run every stage even when cached outputs are valid.")
@click.pass_context
def pipeline(ctx, no_cache):
    """Run all stages in sequence with artifact caching."""
    cfg = _config(ctx)
    flags = _execute(lambda c: run_pipeline(c, use_cache=not no_cache), cfg)
    click.echo(f"pipeline artifacts written to {cfg.out_dir}")
    _report_flags(flags)


@main.command()
@click.pass_context
def report(ctx):
    """Recompute the run report from persisted stage artifacts."""
    cfg = _config(ctx)

    def _build(c):
        run_report = build_report(c)
        click.echo(f"groups: {run_report.groups}")
        if run_report.gap_ratio is not None:
            click.echo(f"effect magnitude gap ratio: {run_report.gap_ratio}")
        if run_report.skipped_groups:
            click.echo(f"skipped groups: {', '.join(run_report.skipped_groups)}")
        return []

    _execute(_build, cfg)
    click.echo(f"report written to {cfg.path('report')}")


if __name__ == "__main__":
    main()
