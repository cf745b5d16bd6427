"""Workflow orchestration: data -> fit -> features -> groups -> discovery.

Each stage reads and writes files under the output directory, so any stage
can be re-run from cached upstream artifacts.  ``STAGES`` lists the stages,
one row each with its runner, files and cache-keying settings.  The pipeline
command records each stage's cache key and output digests in a manifest and
skips a stage whose record still holds: a changed input or setting, or an
output that is corrupted, missing or not left by the stage's last run,
re-runs it.

All outputs are byte-deterministic for fixed (inputs, config, seed) except
``timings.json``, the only timing-bearing artifact.
"""

from __future__ import annotations

import configparser
import dataclasses
import hashlib
import time
import typing
from collections.abc import Callable
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import data as data_mod
from . import features as features_mod
from . import lingam as lingam_mod
from .diagnostics import extract_random_effects
from .errors import (
    ConfigError,
    DataError,
    InsufficientGroupError,
    LingamError,
    PumpcausalError,
    SamplerError,
    StageError,
)
from .grouping import Group, group_datasets, sign_groups
from .hazard import ParamLayout, make_logp_and_grad
from .lingam import LingamConfig
from .nuts import (
    SamplerConfig,
    sample,
    write_diagnostics_json,
    write_draws_csv,
)
from .synth import SynthConfig, generate_hazard_data
from .tables import read_json, read_table, write_json, write_table

FILES = {
    "inspections": "inspections.csv",
    "timeseries": "timeseries.csv",
    "ground_truth": "ground_truth.json",
    "transitions": "transitions.csv",
    "draws": "draws.csv",
    "diagnostics": "diagnostics.json",
    "u_estimates": "u_estimates.csv",
    "features": "features.csv",
    "groups": "groups.csv",
    "report": "report.json",
    "timings": "timings.json",
    "manifest": "manifest.json",
    "u_hist": "u_hist.csv",
}

U_HIST_BINS = 20
U_ESTIMATES_HEADER = ["pump_id", "u_mean", "hdi_low", "hdi_high"]
GROUPS_HEADER = ["pump_id", "u_mean", "group"]
_PER_PUMP = {  # artifacts with one row per pump: header, kinds of the fields
    "u_estimates": (U_ESTIMATES_HEADER, (float,)),
    "groups": (GROUPS_HEADER, (float, Group)),
}


@dataclass(frozen=True)
class PipelineConfig:
    """Every stage's settings plus the output directory and global seed.

    The sampler and LiNGAM defaults are those of ``SamplerConfig`` and
    ``LingamConfig``, whose fields ``sampler_config`` and ``lingam_config``
    copy from here by name; their checks run when this config is built, so a
    bad setting is rejected before any stage runs.
    """

    out_dir: Path = Path("out")
    seed: int = 0
    threads: int = 0  # 0 = all available cores
    source: str = "synth"  # synth | files
    inspections: Path | None = None
    timeseries: Path | None = None
    synth: SynthConfig = SynthConfig()
    n_draws: int = SamplerConfig.n_draws
    n_tune: int = SamplerConfig.n_tune
    n_chains: int = SamplerConfig.n_chains
    target_accept: float = SamplerConfig.target_accept
    max_tree_depth: int = SamplerConfig.max_tree_depth
    use_covariates: bool = True
    feature_window: int = features_mod.DEFAULT_WINDOW
    feature_window_end: int | None = None
    active_features: tuple[str, ...] = features_mod.DEFAULT_ACTIVE_FEATURES
    n_bootstrap: int = LingamConfig.n_bootstrap

    def __post_init__(self):
        if self.source not in ("synth", "files"):
            raise ConfigError(f"source must be 'synth' or 'files', got {self.source}")
        if self.source == "files":
            for label, path in (("inspections", self.inspections), ("timeseries", self.timeseries)):
                if path is None:
                    raise ConfigError(f"source=files requires an {label} path")
                if not Path(path).exists():
                    raise ConfigError(f"{label} file not found: {path}")
        elif self.inspections is not None or self.timeseries is not None:
            raise ConfigError(
                "source=synth reads no inspections or timeseries path; set source = files"
            )
        unknown = [n for n in self.active_features if n not in features_mod.FEATURE_NAMES]
        if unknown:
            raise ConfigError(f"unknown active features: {unknown}")
        if self.feature_window < features_mod.MIN_WINDOW:
            raise ConfigError(
                f"feature window must be >= {features_mod.MIN_WINDOW}, got {self.feature_window}"
            )
        try:
            self.sampler_config()
            self.lingam_config()
        except (SamplerError, LingamError) as exc:
            raise ConfigError(str(exc)) from None

    def _project(self, cls):
        return cls(**{f.name: getattr(self, f.name) for f in dataclasses.fields(cls)})

    def sampler_config(self) -> SamplerConfig:
        return self._project(SamplerConfig)

    def lingam_config(self) -> LingamConfig:
        return self._project(LingamConfig)

    def path(self, key: str) -> Path:
        return Path(self.out_dir) / FILES[key]

    def inspections_path(self) -> Path:
        return Path(self.inspections) if self.source == "files" else self.path("inspections")

    def timeseries_path(self) -> Path:
        return Path(self.timeseries) if self.source == "files" else self.path("timeseries")


# The config file's schema: the keys each section accepts.  A key sets the
# field of the same name (of SynthConfig for [synth], of PipelineConfig
# otherwise) unless _FIELD_FOR_KEY renames it.
_SECTION_KEYS = {
    "pipeline": {"out_dir", "seed", "threads", "source", "inspections", "timeseries"},
    "synth": {
        "n_pumps", "sigma_u", "study_days", "interval_min",
        "interval_max", "ar_coeff", "ar_noise_sd",
    },
    "sampler": {"n_draws", "n_tune", "n_chains", "target_accept", "max_tree_depth"},
    "hazard": {"use_covariates"},
    "features": {"window", "window_end", "active"},
    "lingam": {"n_bootstrap"},
}
_FIELD_FOR_KEY = {
    "window": "feature_window",
    "window_end": "feature_window_end",
    "active": "active_features",
}


def _parse_value(raw: str, kind):
    """Convert a config string to a field's annotated type."""
    if typing.get_origin(kind) is tuple:  # tuple[str, ...]: comma-separated
        return tuple(item.strip() for item in raw.split(",") if item.strip())
    args = typing.get_args(kind)
    if type(None) in args:  # X | None parses as X
        (kind,) = (a for a in args if a is not type(None))
    if kind is bool:  # configparser's boolean words, nothing else
        word = raw.strip().lower()
        if word not in configparser.ConfigParser.BOOLEAN_STATES:
            raise ValueError(f"not a boolean: {raw!r}")
        return configparser.ConfigParser.BOOLEAN_STATES[word]
    return kind(raw)


def load_config(
    path: str | Path | None = None,
    seed: int | None = None,
    out_dir: str | Path | None = None,
    threads: int | None = None,
) -> PipelineConfig:
    """Build a PipelineConfig from an INI-style file plus CLI overrides.

    An absent file, key or blank value keeps the dataclass default;
    ``threads = 0`` means all available cores.
    """
    fields: dict[type, dict] = {SynthConfig: {}, PipelineConfig: {}}
    if path is not None:
        path = Path(path)
        try:
            text = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc.strerror}") from None
        except UnicodeDecodeError:
            raise ConfigError(f"config {path} is not UTF-8 text") from None
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        try:
            parser.read_string(text, source=str(path))
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse config {path}: {exc}") from exc
        for section in parser.sections():
            if section not in _SECTION_KEYS:
                raise ConfigError(f"unknown config section [{section}]")
            owner = SynthConfig if section == "synth" else PipelineConfig
            hints = typing.get_type_hints(owner)
            for key, raw in parser[section].items():
                if key not in _SECTION_KEYS[section]:
                    raise ConfigError(f"unknown key '{key}' in section [{section}]")
                if raw == "":
                    continue
                name = _FIELD_FOR_KEY.get(key, key)
                try:
                    fields[owner][name] = _parse_value(raw, hints[name])
                except ValueError:
                    raise ConfigError(f"bad value for [{section}] {key}: {raw!r}") from None
    overrides = {
        "seed": seed,
        "out_dir": Path(out_dir) if out_dir is not None else None,
        "threads": threads,
    }
    settings = fields[PipelineConfig]
    settings.update({k: v for k, v in overrides.items() if v is not None})
    return PipelineConfig(**settings, synth=SynthConfig(**fields[SynthConfig]))


@contextmanager
def stage_guard(label: str):
    """Re-raise a package error, or an OSError with the file it names, as a
    StageError labelled ``label``, the stage or command that failed."""
    try:
        yield
    except PumpcausalError as exc:
        raise StageError(label, str(exc)) from exc
    except OSError as exc:
        where = f"{exc.filename}: " if exc.filename else ""
        raise StageError(label, f"{where}{exc.strerror or exc}") from exc


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------


def run_synth(cfg: PipelineConfig) -> None:
    """Write synthetic inspections, timeseries, and ground truth."""
    synthesis = generate_hazard_data(cfg.synth, cfg.seed)
    data_mod.write_inspections_csv(synthesis.inspections, cfg.path("inspections"))
    data_mod.write_timeseries_csv(synthesis.covariates, cfg.path("timeseries"))
    synthesis.truth.write(cfg.path("ground_truth"))


def run_fit(cfg: PipelineConfig) -> list[str]:
    """Fit the hazard model and extract per-pump random effects.

    Returns the sampler's soft diagnostic flags.
    """
    inspections = data_mod.ingest_inspections(cfg.inspections_path())
    covariates = data_mod.ingest_timeseries(cfg.timeseries_path()) if cfg.use_covariates else []
    build = data_mod.build_transitions(inspections, covariates)
    data_mod.write_transitions_csv(build.dataset, cfg.path("transitions"))
    layout = ParamLayout.for_dataset(build.dataset)
    target = make_logp_and_grad(build.dataset)
    samples = sample(target, layout.dim, cfg.sampler_config(), init_center=layout.prior_center())
    names = layout.names()
    write_draws_csv(samples, names, cfg.path("draws"))
    data_record = {
        "n_records": len(inspections),
        "n_transitions": len(build.dataset),
        "dropped_decrease": build.dropped_decrease,
        "dropped_absorbing": build.dropped_absorbing,
    }
    summary = write_diagnostics_json(samples, names, cfg.path("diagnostics"), data=data_record)
    u_columns = extract_random_effects(samples, layout)
    write_table(
        cfg.path("u_estimates"),
        U_ESTIMATES_HEADER,
        zip(build.pump_ids, *(c.tolist() for c in u_columns)),
    )
    return summary["flags"]


def run_features(cfg: PipelineConfig) -> None:
    """Extract the active feature set from each pump's trailing window."""
    series = data_mod.ingest_timeseries(cfg.timeseries_path())
    if not series:
        raise DataError(f"{cfg.timeseries_path()}: no series to extract features from")
    window_end = cfg.feature_window_end
    if window_end is None:
        window_end = min(s.end_day - 1 for s in series)
    matrix = features_mod.extract_features(
        series, window_end, cfg.feature_window, cfg.active_features
    )
    features_mod.write_features_csv(matrix, cfg.path("features"))


def _read_per_pump(cfg: PipelineConfig, key: str):
    """The one-row-per-pump artifact ``key``; a repeated pump id, or no
    pump at all, is an error."""
    table = read_table(cfg.path(key), *_PER_PUMP[key])
    table.raise_first(table.repeated_keys() if table.keys else [(2, "no pumps")])
    return table


def _read_with_features(cfg: PipelineConfig):
    """The feature matrix, and the columns after the pump id of
    ``groups.csv`` in the matrix's pump order; the two files must hold the
    same pumps."""
    path = cfg.path("groups")
    table = _read_per_pump(cfg, "groups")
    matrix = features_mod.read_features_csv(cfg.path("features"))
    row = {pid: r for r, pid in enumerate(table.keys)}  # keys do not repeat
    missing = [pid for pid in matrix.pump_ids if pid not in row]
    extra = sorted(set(row).difference(matrix.pump_ids))
    if missing or extra:
        raise DataError(
            f"pump sets differ between {cfg.path('features')} and {path} "
            f"(only in the features: {missing}, only in {path.name}: {extra})"
        )
    order = [row[pid] for pid in matrix.pump_ids]
    return matrix, [c[order] for c in table.columns[1:]]


def run_group(cfg: PipelineConfig) -> None:
    """Assign pumps to sign groups and persist the assignment."""
    table = _read_per_pump(cfg, "u_estimates")  # keys do not repeat: one per row
    _, u_mean, _, _ = table.columns
    write_table(
        cfg.path("groups"),
        GROUPS_HEADER,
        zip(table.keys, u_mean.tolist(), [g.value for g in sign_groups(u_mean)]),
    )


def _write_u_hist(u_mean: np.ndarray, groups: np.ndarray, path: Path) -> None:
    """Histogram counts of u by group: the data behind the distribution figure."""
    lo, hi = float(u_mean.min()), float(u_mean.max())
    if lo == hi:
        hi = lo + 1.0
    edges = np.linspace(lo, hi, U_HIST_BINS + 1)
    counts = [  # positive, then negative
        np.histogram(u_mean[groups == group], bins=edges)[0].tolist() for group in Group
    ]
    write_table(
        path,
        ["bin_low", "bin_high", "count_positive", "count_negative"],
        zip(edges[:-1].tolist(), edges[1:].tolist(), *counts),
    )


def group_artifact_paths(cfg: PipelineConfig, group: Group) -> dict[str, Path]:
    out = Path(cfg.out_dir)
    return {
        "adjacency": out / f"adjacency_{group.value}.csv",
        "order": out / f"order_{group.value}.json",
        "effects": out / f"effects_{group.value}.csv",
        "discovery": out / f"discovery_{group.value}.json",
    }


def _discovery_flags(skipped_groups: list[str]) -> list[str]:
    """A flag when every group was skipped; each group's record says why."""
    if len(skipped_groups) < len(Group):
        return []
    return [f"no group analysed: skipped {', '.join(skipped_groups)} (see discovery_<group>.json)"]


def run_discover(cfg: PipelineConfig) -> list[str]:
    """Run per-group causal discovery and write the run report.

    Also writes the figure data.  A group too small to analyse (below the
    size gate, or with no bootstrap resample that can be fitted) leaves only
    ``discovery_<group>.json``, holding ``{"skipped": <reason>}``.  Returns
    a flag when no group was analysed.
    """
    matrix, (u_mean, groups) = _read_with_features(cfg)
    _write_u_hist(u_mean, groups, cfg.path("u_hist"))
    for group_data in group_datasets(matrix, u_mean, groups):
        paths = group_artifact_paths(cfg, group_data.group)
        for stale in paths.values():
            stale.unlink(missing_ok=True)
        try:
            model = lingam_mod.discover(group_data, cfg.lingam_config())
        except InsufficientGroupError as exc:
            write_json(paths["discovery"], {"skipped": str(exc)})
            continue
        lingam_mod.write_adjacency_csv(model, paths["adjacency"])
        lingam_mod.write_order_json(model, paths["order"])
        lingam_mod.write_effects_csv(model, paths["effects"])
        lingam_mod.write_discovery_json(model, paths["discovery"])
    return _discovery_flags(build_report(cfg)["skipped_groups"])


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def _read_effects_csv(path: Path) -> list[dict]:
    table = read_table(path, lingam_mod.EFFECTS_HEADER, (float,))
    table.raise_first(table.repeated_keys())
    return [
        {
            "feature": feature,
            "effect": effect,
            "ci_low": low,
            "ci_high": high,
            "ci_excludes_zero": low > 0.0 or high < 0.0,
            "sign_stability": stability,
        }
        for feature, effect, low, high, stability in zip(
            table.keys, *(c.tolist() for c in table.columns[1:])
        )
    ]


def build_report(cfg: PipelineConfig) -> dict:
    """Assemble the run report purely from persisted stage artifacts, write
    it and return it; ``discovery_<group>.json`` says if a group was skipped."""
    diag_path = cfg.path("diagnostics")
    sampler_summary = read_json(diag_path)["summary"] if diag_path.exists() else {}
    _, u_mean, groups = _read_per_pump(cfg, "groups").columns
    groups_summary = {}
    for group in Group:
        u = u_mean[groups == group]
        groups_summary[group.value] = {
            "count": len(u),
            "share": len(u) / len(u_mean),
            "u_min": float(u.min()) if len(u) else None,
            "u_max": float(u.max()) if len(u) else None,
        }
    discovery = {g.value: read_json(group_artifact_paths(cfg, g)["discovery"]) for g in Group}
    effects: dict[str, list[dict]] = {}
    max_effect: dict[str, float] = {}
    for group, record in discovery.items():
        if "skipped" not in record:
            effects[group] = _read_effects_csv(group_artifact_paths(cfg, Group(group))["effects"])
            max_effect[group] = max((abs(r["effect"]) for r in effects[group]), default=0.0)
    # null unless both groups were analysed and the smaller largest effect
    # is not zero: a zero there makes the ratio infinite or 0/0
    lo, hi = sorted(max_effect.values()) if len(max_effect) == 2 else (0.0, 0.0)
    gap_ratio = hi / lo if lo > 0.0 else None
    report = {
        "sampler": sampler_summary,
        "groups": groups_summary,
        "effects": effects,
        "gap_ratio": gap_ratio,
        "skipped_groups": sorted(set(discovery) - set(effects)),
        "discovery": discovery,
    }
    write_json(cfg.path("report"), report)
    return report


# ---------------------------------------------------------------------------
# cached pipeline
# ---------------------------------------------------------------------------


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _without_threads(config):
    """``config`` with ``threads`` at its default, which no output depends on."""
    return dataclasses.replace(config, threads=0)


def _files(*keys: str) -> Callable[[PipelineConfig], list[Path]]:
    return lambda cfg: [cfg.path(key) for key in keys]


@dataclass(frozen=True)
class Stage:
    """One pipeline stage: ``run`` reads ``inputs(cfg)`` and writes
    ``outputs(cfg)``; its cache key is its name, the seed, the ``str`` of
    each of ``settings(cfg)`` and the bytes of its inputs."""

    name: str
    run: Callable[[PipelineConfig], list[str] | None]
    outputs: Callable[[PipelineConfig], list[Path]]
    inputs: Callable[[PipelineConfig], list[Path]]
    settings: Callable[[PipelineConfig], tuple]


STAGES = (
    Stage("synth", run_synth, _files("inspections", "timeseries", "ground_truth"),
          inputs=_files(), settings=lambda cfg: (cfg.synth,)),
    Stage("fit", run_fit, _files("transitions", "draws", "diagnostics", "u_estimates"),
          inputs=lambda cfg: [cfg.inspections_path()]
          + ([cfg.timeseries_path()] if cfg.use_covariates else []),
          settings=lambda cfg: (_without_threads(cfg.sampler_config()), cfg.use_covariates)),
    Stage("features", run_features, _files("features"),
          inputs=lambda cfg: [cfg.timeseries_path()],
          settings=lambda cfg: (
              cfg.feature_window, cfg.feature_window_end, ",".join(cfg.active_features))),
    Stage("group", run_group, _files("groups"),
          inputs=_files("u_estimates"), settings=lambda cfg: ()),
    Stage("discover", run_discover,
          lambda cfg: _files("u_hist", "report")(cfg)
          + [path for g in Group for path in group_artifact_paths(cfg, g).values()],
          inputs=_files("groups", "features", "diagnostics"),
          settings=lambda cfg: (_without_threads(cfg.lingam_config()),)),
)


def _stage_entry(cfg: PipelineConfig, stage: Stage) -> dict:
    """A stage's manifest entry: the hash of its cache key, and the digest
    of each of its outputs that exists.  The stage is cached when the entry
    recorded after its last run equals this."""
    parts = [stage.name, str(cfg.seed), *map(str, stage.settings(cfg))]
    for path in stage.inputs(cfg):
        parts.append(_sha256_file(path) if path.exists() else "missing")
    return {
        "inputs": hashlib.sha256("\n".join(parts).encode()).hexdigest(),
        "outputs": {p.name: _sha256_file(p) for p in stage.outputs(cfg) if p.exists()},
    }


def _load_manifest(cfg: PipelineConfig) -> dict:
    """The stage cache; a missing or unreadable manifest is an empty one."""
    try:
        manifest = read_json(cfg.path("manifest"))
    except DataError:
        return {}
    return manifest if isinstance(manifest, dict) else {}


def run_pipeline(cfg: PipelineConfig, use_cache: bool = True) -> list[str]:
    """Run all stages in order, skipping stages whose cache entry is valid.

    Returns the fit stage's diagnostic flags and the discover stage's flag
    (read from their fresh or cached output).  A failure is a StageError
    labelled with the stage; ``timings.json`` is written then too, when it
    can be, with the finished stages and ``failed_stage``.
    """
    manifest = _load_manifest(cfg) if use_cache else {}
    timings: dict[str, float] = {}
    try:
        for stage in STAGES:
            if stage.name == "synth" and cfg.source == "files":
                continue
            with stage_guard(stage.name):
                if stage.name in manifest and manifest[stage.name] == _stage_entry(cfg, stage):
                    timings[f"{stage.name}_cached"] = 0.0
                    continue
                started = time.perf_counter()
                stage.run(cfg)
                timings[stage.name] = time.perf_counter() - started
                manifest[stage.name] = _stage_entry(cfg, stage)
                write_json(cfg.path("manifest"), manifest)
    except BaseException:
        timings["failed_stage"] = stage.name
        with suppress(OSError):  # the stage's own error is the one to report
            write_json(cfg.path("timings"), timings)
        raise
    with stage_guard("pipeline"):
        write_json(cfg.path("timings"), timings)
        report = read_json(cfg.path("report"))
    return list(report["sampler"].get("flags", [])) + _discovery_flags(report["skipped_groups"])
