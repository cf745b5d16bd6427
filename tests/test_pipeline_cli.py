"""Pipeline stages, caching, config parsing, and CLI exit codes."""

import dataclasses
import io
import json
import os
import shutil
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from pumpcausal.cli import main
from pumpcausal.diagnostics import ess, split_rhat
from pumpcausal.errors import ConfigError, PumpcausalError
from pumpcausal.lingam import LingamConfig
from pumpcausal.nuts import (
    PosteriorSamples,
    SamplerConfig,
    diagnostic_summary,
    write_diagnostics_json,
)
from pumpcausal.pipeline import (
    _SECTION_KEYS,
    STAGES,
    PipelineConfig,
    build_report,
    load_config,
    run_synth,
)
from pumpcausal.rng import worker_count
from pumpcausal.tables import read_json

SMALL_CONFIG = """
[pipeline]
out_dir = {out}
seed = 11

[synth]
n_pumps = 25

[sampler]
n_draws = 100
n_tune = 100
n_chains = 2

[features]
active = std, min, recent_change_rate, trend_slope_90d

[lingam]
n_bootstrap = 15
"""


def _write_config(tmp_path, out_name="out", **extra):
    out = tmp_path / out_name
    text = SMALL_CONFIG.format(out=out)
    for section, lines in extra.items():
        text += f"\n[{section}]\n" if f"[{section}]" not in text else ""
        text += "\n".join(lines) + "\n"
    path = tmp_path / f"config_{out_name}.ini"
    path.write_text(text, encoding="utf-8")
    return path, out


def _invoke(args):
    """Run the CLI on ``args``; stdout and stderr share one buffer."""
    buffer = io.StringIO()
    with redirect_stdout(buffer), redirect_stderr(buffer), pytest.raises(SystemExit) as exited:
        main(args)
    return SimpleNamespace(
        exit_code=exited.value.code, output=buffer.getvalue(), exception=exited.value
    )


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("pipe")
    config_path, out = _write_config(tmp_path)
    result = _invoke(["--config", str(config_path), "pipeline"])
    assert result.exit_code in (0, 3), result.output
    return config_path, out


class TestConfigLoading:
    def test_defaults_without_file(self):
        cfg = load_config(None)
        assert cfg.n_draws == 2000
        assert cfg.n_tune == 1000
        assert cfg.n_chains == 8
        assert cfg.target_accept == 0.95
        assert cfg.n_bootstrap == 1000
        assert cfg.feature_window == 90
        assert len(cfg.active_features) == 22

    def test_defaults_are_the_dataclass_defaults(self):
        cfg = load_config(None)
        assert cfg == PipelineConfig()
        assert cfg.sampler_config() == SamplerConfig(seed=cfg.seed)
        assert cfg.lingam_config() == LingamConfig(seed=cfg.seed)
        seeded = load_config(None, seed=7)
        assert seeded.sampler_config() == SamplerConfig(seed=7)
        assert seeded.lingam_config() == LingamConfig(seed=7)

    def test_every_key_sets_its_field(self, tmp_path):
        inspections = tmp_path / "i.csv"
        timeseries = tmp_path / "t.csv"
        inspections.write_text("")
        timeseries.write_text("")
        values = {
            "pipeline": {
                "out_dir": ("elsewhere", "out_dir", Path("elsewhere")),
                "seed": ("5", "seed", 5),
                "threads": ("3", "threads", 3),
                "source": ("files", "source", "files"),
                "inspections": (str(inspections), "inspections", inspections),
                "timeseries": (str(timeseries), "timeseries", timeseries),
                "top_k": ("3", "top_k", 3),
            },
            "synth": {
                "n_pumps": ("12", "n_pumps", 12),
                "sigma_u": ("0.5", "sigma_u", 0.5),
                "study_days": ("400", "study_days", 400),
                "interval_min": ("5", "interval_min", 5),
                "interval_max": ("100", "interval_max", 100),
                "ar_coeff": ("0.5", "ar_coeff", 0.5),
                "ar_noise_sd": ("0.25", "ar_noise_sd", 0.25),
            },
            "sampler": {
                "n_draws": ("7", "n_draws", 7),
                "n_tune": ("9", "n_tune", 9),
                "n_chains": ("3", "n_chains", 3),
                "target_accept": ("0.9", "target_accept", 0.9),
                "max_tree_depth": ("6", "max_tree_depth", 6),
            },
            "hazard": {"use_covariates": ("false", "use_covariates", False)},
            "features": {
                "window": ("60", "feature_window", 60),
                "window_end": ("500", "feature_window_end", 500),
                "active": ("std, min,q25", "active_features", ("std", "min", "q25")),
            },
            "lingam": {
                "n_bootstrap": ("11", "n_bootstrap", 11),
            },
        }
        assert {s: set(keys) for s, keys in values.items()} == _SECTION_KEYS
        path = tmp_path / "all.ini"
        path.write_text(
            "".join(
                f"[{section}]\n" + "".join(f"{k} = {v[0]}\n" for k, v in keys.items())
                for section, keys in values.items()
            )
        )
        cfg = load_config(path)
        for section, keys in values.items():
            owner = cfg.synth if section == "synth" else cfg
            for key, (_, name, expected) in keys.items():
                assert getattr(owner, name) == expected, (section, key)
                assert type(getattr(owner, name)) is type(expected), (section, key)
        blank = tmp_path / "blank.ini"
        blank.write_text("[pipeline]\nthreads =\n[features]\nwindow_end =\n")
        assert load_config(blank) == PipelineConfig()  # blank = default

    def test_seed_from_file_equals_seed_in_code(self, tmp_path):
        # one seed drives the run, whether set in a file or in code
        path = tmp_path / "seed.ini"
        path.write_text("[pipeline]\nseed = 5\n")
        from_file = load_config(path)
        assert from_file == PipelineConfig(seed=5)
        for name, cfg in (("file", from_file), ("code", PipelineConfig(seed=5))):
            run_synth(dataclasses.replace(cfg, out_dir=tmp_path / name))
        written = {(tmp_path / name / "inspections.csv").read_bytes() for name in ("file", "code")}
        assert len(written) == 1

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("no_such_config.ini")

    def test_unknown_section_and_key(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[nope]\nx = 1\n")
        with pytest.raises(ConfigError, match="unknown config section"):
            load_config(bad)
        bad.write_text("[sampler]\nnot_a_key = 1\n")
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(bad)
        # the LiNGAM test scenarios take their size as an argument, not a key
        bad.write_text("[synth]\nscenario_rows = 2000\n")
        with pytest.raises(ConfigError, match=r"unknown key 'scenario_rows' in section \[synth\]"):
            load_config(bad)

    def test_readme_example_matches_the_schema(self, tmp_path):
        # the README's config example loads, and names every key (set or
        # commented out) that the code accepts, and no other
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "readme.ini"
        path.write_text(example, encoding="utf-8")
        load_config(path)
        keys: dict[str, set] = {}
        for line in example.splitlines():
            line = line.strip().lstrip("#").strip()
            if line.startswith("["):
                section = keys.setdefault(line.strip("[]"), set())
            elif "=" in line:
                section.add(line.split("=", 1)[0].strip())
        assert keys == _SECTION_KEYS

    def test_bad_value(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[sampler]\nn_draws = many\n")
        with pytest.raises(ConfigError, match=r"bad value for \[sampler\] n_draws"):
            load_config(bad)
        bad.write_text("[features]\nwindow_end = soon\n")
        with pytest.raises(ConfigError, match=r"bad value for \[features\] window_end"):
            load_config(bad)
        # booleans take configparser's words only; a misspelling is no False
        bad.write_text("[hazard]\nuse_covariates = flase\n")
        with pytest.raises(ConfigError, match=r"bad value for \[hazard\] use_covariates: 'flase'"):
            load_config(bad)
        for word, value in {"Yes": True, "on": True, "OFF": False, "0": False}.items():
            bad.write_text(f"[hazard]\nuse_covariates = {word}\n")
            assert load_config(bad).use_covariates is value, word

    def test_short_feature_window_rejected(self, tmp_path):
        # rejected before the fit runs, not in the features stage after it
        bad = tmp_path / "bad.ini"
        bad.write_text("[features]\nwindow = 20\n")
        with pytest.raises(ConfigError, match="feature window must be >= 31, got 20"):
            load_config(bad)
        bad.write_text("[features]\nwindow = 31\n")
        assert load_config(bad).feature_window == 31

    def test_threads_zero_means_all_cores(self, tmp_path):
        # the same value in code and in a config file, for chains and bootstrap
        path = tmp_path / "threads.ini"
        path.write_text("[pipeline]\nthreads = 0\n")
        for cfg in (PipelineConfig(threads=0), load_config(path)):
            for threads in (cfg.sampler_config().threads, cfg.lingam_config().threads):
                for n in (1, 2, 3, 64):
                    assert worker_count(threads, n) == min(os.cpu_count(), n)

    def test_cli_overrides_take_precedence(self, tmp_path):
        path, _ = _write_config(tmp_path, out_name="o1")
        cfg = load_config(path, seed=99, out_dir=tmp_path / "elsewhere", threads=4)
        assert cfg.seed == 99
        assert cfg.out_dir == tmp_path / "elsewhere"
        assert cfg.threads == 4
        assert cfg.sampler_config().seed == 99  # seed propagates into stage configs
        assert cfg.lingam_config().seed == 99

    def test_files_source_requires_existing_paths(self, tmp_path):
        with pytest.raises(ConfigError, match="inspections"):
            PipelineConfig(source="files", inspections=None, timeseries=None)
        with pytest.raises(ConfigError, match="not found"):
            PipelineConfig(
                source="files",
                inspections=tmp_path / "missing.csv",
                timeseries=tmp_path / "missing2.csv",
            )

    @pytest.mark.parametrize("cls", [SamplerConfig, LingamConfig])
    def test_stage_configs_reject_negative_seed_and_threads(self, cls):
        with pytest.raises(PumpcausalError, match="seed must be >= 0, got -1"):
            cls(seed=-1)
        with pytest.raises(PumpcausalError, match="threads must be >= 0, got -2"):
            cls(threads=-2)


class TestRejectedBeforeAnyStage:
    @pytest.mark.parametrize(
        "line, setting, message",
        [
            ("n_chains = 2", "n_chains = 0", "n_chains must be >= 1"),
            ("n_bootstrap = 15", "n_bootstrap = 0", "n_bootstrap must be >= 1, got 0"),
            # the FastICA tolerance and iteration cap are constants, not settings
            ("n_bootstrap = 15", "n_bootstrap = 15\nica_tol = 1e-4",
             "unknown key 'ica_tol' in section [lingam]"),
            ("n_bootstrap = 15", "n_bootstrap = 15\nica_max_iter = 200",
             "unknown key 'ica_max_iter' in section [lingam]"),
            ("n_pumps = 25", "n_pumps = 25\nar_noise_sd = -0.5", "ar_noise_sd must be >= 0"),
            ("seed = 11", "seed = 11\nthreads = -2", "threads must be >= 0, got -2"),
            ("seed = 11", "seed = -5", "seed must be >= 0, got -5"),
            ("seed = 11", "seed = 11\ninspections = data/inspections.csv",
             "source=synth reads no inspections or timeseries path"),
            ("seed = 11", "seed = 11\ntimeseries = data/timeseries.csv",
             "source=synth reads no inspections or timeseries path"),
        ],
    )
    def test_exit_1_and_no_artifact(self, tmp_path, line, setting, message):
        out = tmp_path / "out"
        config_path = tmp_path / "c.ini"
        config_path.write_text(SMALL_CONFIG.format(out=out).replace(line, setting))
        result = _invoke(["--config", str(config_path), "pipeline"])
        assert result.exit_code == 1, result.output
        assert f"validation error: {message}" in result.output
        assert not out.exists()

    @pytest.mark.parametrize(
        "make, message",
        [
            (Path.mkdir, "cannot read config {}: Is a directory"),
            (lambda path: path.write_bytes(b"[pipeline]\nseed = 1\xff\n"),
             "config {} is not UTF-8 text"),
        ],
    )
    def test_unreadable_config_file(self, tmp_path, make, message):
        out = tmp_path / "out"
        config_path = tmp_path / "c.ini"
        make(config_path)
        result = _invoke(["--config", str(config_path), "--out", str(out), "pipeline"])
        assert result.exit_code == 1, result.output
        assert f"validation error: {message.format(config_path)}" in result.output
        assert not out.exists()

    def test_negative_seed_flag(self, tmp_path):
        config_path, out = _write_config(tmp_path)
        result = _invoke(["--config", str(config_path), "--seed", "-1", "pipeline"])
        assert result.exit_code == 1, result.output
        assert "validation error: seed must be >= 0, got -1" in result.output
        assert not out.exists()


class TestMalformedCommandLine:
    """A command line the parser rejects exits 1, like any validation error."""

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--threads", "abc", "pipeline"], "invalid int value: 'abc'"),
            (["--seed", "x", "pipeline"], "invalid int value: 'x'"),
            (["pipeline", "--bogus"], "unrecognized arguments: --bogus"),
            (["--bogus", "pipeline"], "unrecognized arguments: --bogus"),
            (["nosuch"], "invalid choice: 'nosuch'"),
            ([], "the following arguments are required: command"),
            # no option prefix stands for the option: --thr is left over, so 1
            # is read as the subcommand
            (["--thr", "1", "pipeline"], "invalid choice: '1'"),
            (["pipeline", "--no-c"], "unrecognized arguments: --no-c"),
        ],
    )
    def test_exit_1(self, tmp_path, args, message):
        result = _invoke(["--out", str(tmp_path / "out"), *args])
        assert result.exit_code == 1, result.output
        assert message in result.output
        assert isinstance(result.exception, SystemExit)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("args", [["--help"], ["pipeline", "--help"]])
    def test_help_exits_0(self, args):
        result = _invoke(args)
        assert result.exit_code == 0, result.output
        assert "usage:" in result.output


class TestOutputDirectory:
    """An output directory that cannot be made is a stage failure naming it."""

    @pytest.mark.parametrize("command, stage", [("synth", "synth"), ("pipeline", "synth")])
    def test_out_under_a_regular_file(self, tmp_path, command, stage):
        config_path, _ = _write_config(tmp_path)
        regular = tmp_path / "regular"
        regular.write_text("")
        out = regular / "out"
        result = _invoke(["--config", str(config_path), "--out", str(out), command])
        assert result.exit_code == 2, result.output
        assert f"stage failure: [{stage}] {out}: Not a directory" in result.output
        assert isinstance(result.exception, SystemExit)


class TestSynthCommand:
    def test_writes_documented_files_deterministically(self, tmp_path):
        config_path, out = _write_config(tmp_path, out_name="s1")
        assert _invoke(["--config", str(config_path), "synth"]).exit_code == 0
        names = {"inspections.csv", "timeseries.csv", "ground_truth.json"}
        assert names <= {p.name for p in out.iterdir()}
        first = {n: (out / n).read_bytes() for n in names}
        assert _invoke(["--config", str(config_path), "synth"]).exit_code == 0
        for n in names:
            assert (out / n).read_bytes() == first[n]

    def test_zero_pumps_is_validation_error(self, tmp_path):
        config_path = tmp_path / "zero.ini"
        config_path.write_text("[synth]\nn_pumps = 0\n")
        result = _invoke(["--config", str(config_path), "synth"])
        assert result.exit_code == 1
        assert "validation error" in result.output


class TestFitCommand:
    def test_missing_input_is_stage_failure(self, tmp_path):
        config_path, _ = _write_config(tmp_path, out_name="empty")
        result = _invoke(["--config", str(config_path), "fit"])
        assert result.exit_code == 2
        assert "[fit]" in result.output

    def test_byte_not_utf8_in_a_pump_id(self, tmp_path):
        config_path, out = _write_config(tmp_path, out_name="bad_byte")
        out.mkdir()
        (out / "inspections.csv").write_bytes(b"pump_id,day,state\nP,0,1\nP,30,2\nQ\xff,0,1\n")
        result = _invoke(["--config", str(config_path), "fit"])
        assert result.exit_code == 2, result.output
        assert "inspections.csv line 4: not UTF-8 text" in result.output

    def test_series_not_read_without_covariates(self, tmp_path):
        config_path, out = _write_config(
            tmp_path, out_name="nocov", hazard=["use_covariates = false"]
        )
        assert _invoke(["--config", str(config_path), "synth"]).exit_code == 0
        (out / "timeseries.csv").unlink()
        result = _invoke(["--config", str(config_path), "fit"])
        assert result.exit_code in (0, 3), result.output
        assert (out / "u_estimates.csv").exists()

    def test_seeded_fit_reproducible(self, tmp_path):
        config_path, out = _write_config(tmp_path, out_name="f1")
        assert _invoke(["--config", str(config_path), "synth"]).exit_code == 0
        first = _invoke(["--config", str(config_path), "fit"])
        assert first.exit_code in (0, 3), first.output
        u_first = (out / "u_estimates.csv").read_bytes()
        draws_first = (out / "draws.csv").read_bytes()
        second = _invoke(["--config", str(config_path), "fit"])
        assert second.exit_code == first.exit_code
        assert (out / "u_estimates.csv").read_bytes() == u_first
        assert (out / "draws.csv").read_bytes() == draws_first


class TestPipelineCommand:
    def test_artifacts_present(self, pipeline_run):
        _, out = pipeline_run
        expected = {
            "inspections.csv", "timeseries.csv", "ground_truth.json",
            "transitions.csv", "draws.csv", "diagnostics.json", "u_estimates.csv",
            "features.csv", "groups.csv", "u_hist.csv", "report.json",
            "timings.json", "manifest.json",
        }
        assert expected <= {p.name for p in out.iterdir()}

    def test_report_consistent_with_artifacts(self, pipeline_run):
        _, out = pipeline_run
        report = json.loads((out / "report.json").read_text())
        groups_csv = (out / "groups.csv").read_text().splitlines()[1:]
        n_positive = sum(1 for line in groups_csv if line.endswith(",positive"))
        n_negative = sum(1 for line in groups_csv if line.endswith(",negative"))
        assert report["groups"]["positive"]["count"] == n_positive
        assert report["groups"]["negative"]["count"] == n_negative
        assert report["groups"]["positive"]["share"] == pytest.approx(
            n_positive / (n_positive + n_negative)
        )
        diag = json.loads((out / "diagnostics.json").read_text())
        assert report["sampler"] == diag["summary"]

    def test_report_is_strict_json(self, pipeline_run):
        _, out = pipeline_run

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        report = json.loads((out / "report.json").read_text(), parse_constant=reject)
        # at seed 11 the positive group's causal order puts u first, so its
        # effects on u are all zero and the gap ratio is undefined
        assert report["groups"]["positive"]["count"] > 0
        assert report["gap_ratio"] is None

    def test_every_json_artifact_is_strict(self, pipeline_run):
        _, out = pipeline_run

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        names = {path.name for path in out.glob("*.json")}
        assert names >= {
            "ground_truth.json", "diagnostics.json", "report.json", "manifest.json",
            "timings.json", *(f"{kind}_{g}.json" for kind in ("order", "discovery")
                              for g in ("positive", "negative")),
        }
        for name in names:
            text = (out / name).read_text(encoding="utf-8")
            json.loads(text, parse_constant=reject)
            assert text.endswith("\n") and not text.endswith("\n\n"), name

    def test_build_report_returns_what_it_writes(self, pipeline_run):
        config_path, _ = pipeline_run
        cfg = load_config(config_path)
        report = build_report(cfg)
        assert report == read_json(cfg.path("report"))
        assert list(report) == [
            "sampler", "groups", "effects", "gap_ratio", "skipped_groups", "discovery"
        ]

    def test_diagnostics_record_chains_and_data(self, pipeline_run):
        _, out = pipeline_run
        diag = json.loads((out / "diagnostics.json").read_text())
        assert len(diag["chains"]) == 2
        for chain in diag["chains"]:
            assert 0.0 <= chain["accept_mean"] <= 1.0
            assert chain["n_grad_evals"] > 0
            assert 0 <= chain["max_tree_depth_hits"] <= 100
        data = diag["data"]
        transitions = (out / "transitions.csv").read_text().splitlines()[1:]
        inspections = (out / "inspections.csv").read_text().splitlines()[1:]
        assert data["n_transitions"] == len(transitions)
        assert data["n_records"] == len(inspections)
        # each of the 25 pumps' consecutive inspection pairs is a transition
        # unless it was dropped
        dropped = data["dropped_decrease"] + data["dropped_absorbing"]
        assert data["n_transitions"] + dropped == data["n_records"] - 25

    def test_rerun_uses_cache_and_report_identical(self, pipeline_run):
        config_path, out = pipeline_run
        report_before = (out / "report.json").read_bytes()
        result = _invoke(["--config", str(config_path), "pipeline"])
        assert result.exit_code in (0, 3)
        timings = json.loads((out / "timings.json").read_text())
        assert "fit_cached" in timings
        assert (out / "report.json").read_bytes() == report_before

    def test_cache_does_not_depend_on_threads(self, pipeline_run):
        config_path, out = pipeline_run
        for threads in ("1", "2"):
            result = _invoke(["--config", str(config_path), "--threads", threads, "pipeline"])
            assert result.exit_code in (0, 3), result.output
        timings = json.loads((out / "timings.json").read_text())
        assert "fit_cached" in timings and "discover_cached" in timings

    def test_corrupted_cache_invalidated(self, pipeline_run):
        config_path, out = pipeline_run
        report_before = (out / "report.json").read_bytes()
        (out / "u_estimates.csv").write_text("corrupted\n")
        result = _invoke(["--config", str(config_path), "pipeline"])
        assert result.exit_code in (0, 3)
        timings = json.loads((out / "timings.json").read_text())
        assert "fit" in timings  # stage re-ran rather than using the cache
        assert (out / "report.json").read_bytes() == report_before

    def test_restored_file_of_a_skipped_group_is_deleted(self, pipeline_run, tmp_path):
        # the default 22 features need 25 members, so both groups are skipped;
        # a file of a skipped group put back afterwards is not a cached output
        _, out = pipeline_run
        copy = tmp_path / "out"
        shutil.copytree(out, copy)
        stale = (copy / "effects_positive.csv").read_bytes()
        config_path = tmp_path / "c.ini"
        config_path.write_text(
            SMALL_CONFIG.format(out=copy).replace(
                "active = std, min, recent_change_rate, trend_slope_90d", "active ="
            )
        )
        assert _invoke(["--config", str(config_path), "pipeline"]).exit_code == 3
        assert not (copy / "effects_positive.csv").exists()
        (copy / "effects_positive.csv").write_bytes(stale)
        result = _invoke(["--config", str(config_path), "pipeline"])
        assert result.exit_code == 3, result.output
        timings = json.loads((copy / "timings.json").read_text())
        assert "discover" in timings and "fit_cached" in timings
        assert not (copy / "effects_positive.csv").exists()
        result = _invoke(["--config", str(config_path), "report"])
        assert result.exit_code == 0, result.output
        assert "skipped groups: negative, positive" in result.output

    def test_report_command_recomputes_identical_report(self, pipeline_run):
        config_path, out = pipeline_run
        before = (out / "report.json").read_bytes()
        result = _invoke(["--config", str(config_path), "report"])
        assert result.exit_code == 0, result.output
        assert (out / "report.json").read_bytes() == before

    def test_report_before_discover_names_the_missing_record(self, pipeline_run, tmp_path):
        # the output directory as `group` leaves it: no group has a record
        # yet, which says nothing of the groups' sizes
        config_path, out = pipeline_run
        copy = tmp_path / "out"
        shutil.copytree(out, copy)
        (discover,) = (stage for stage in STAGES if stage.name == "discover")
        for path in discover.outputs(load_config(config_path, out_dir=copy)):
            path.unlink()
        result = _invoke(["--config", str(config_path), "--out", str(copy), "report"])
        assert result.exit_code == 2, result.output
        assert f"[report] {copy / 'discovery_positive.json'}: file not found" in result.output
        assert "skipped groups" not in result.output
        assert not (copy / "report.json").exists()


class TestStageCacheKeys:
    """A changed setting re-runs the stage it keys and every stage after it
    whose input files change; the rest stay cached."""

    @pytest.mark.parametrize(
        "line, setting, reran",
        [
            ("n_bootstrap = 15", "n_bootstrap = 16", {"discover"}),
            ("seed = 11", "seed = 11\ntop_k = 3", {"discover"}),
            ("[features]", "[features]\nwindow = 60", {"features", "group", "discover"}),
            ("n_draws = 100", "n_draws = 101", {"fit", "group", "discover"}),
            ("[lingam]", "[hazard]\nuse_covariates = false\n[lingam]",
             {"fit", "group", "discover"}),
            ("n_pumps = 25", "n_pumps = 26", {"synth", "fit", "features", "group", "discover"}),
        ],
        ids=["n_bootstrap", "top_k", "window", "n_draws", "use_covariates", "n_pumps"],
    )
    def test_setting_reruns_exactly_its_stages(self, pipeline_run, tmp_path, line, setting, reran):
        _, out = pipeline_run
        copy = tmp_path / "out"
        shutil.copytree(out, copy)
        config_path = tmp_path / "c.ini"
        config_path.write_text(SMALL_CONFIG.format(out=copy).replace(line, setting))
        result = _invoke(["--config", str(config_path), "pipeline"])
        assert result.exit_code in (0, 3), result.output
        timings = json.loads((copy / "timings.json").read_text())
        stages = ("synth", "fit", "features", "group", "discover")
        assert set(timings) == {s if s in reran else f"{s}_cached" for s in stages}


def _stuck_chains(n_draws: int = 10) -> PosteriorSamples:
    """Two chains of one parameter, constant at 0 and at 1."""
    draws = np.zeros((2, n_draws, 1))
    draws[1] = 1.0
    return PosteriorSamples(
        draws=draws,
        divergences=np.zeros(2, int),
        step_sizes=np.ones(2),
        accept_means=np.ones(2),
        grad_evals=np.ones(2, int),
        max_depth_hits=np.zeros(2, int),
        rhat=np.array([split_rhat(draws[:, :, 0])]),
        ess_bulk=np.array([ess(draws[:, :, 0])]),
    )


class TestNonFiniteDiagnostics:
    def test_infinite_rhat_is_null_and_flagged(self, tmp_path):
        # two chains, each constant, at different values: split R-hat is inf
        samples = _stuck_chains()
        assert samples.rhat[0] == np.inf
        cfg = PipelineConfig(out_dir=tmp_path)
        write_diagnostics_json(samples, ["x"], cfg.path("diagnostics"))
        cfg.path("groups").write_text(
            "pump_id,u_mean,group\nP000,0.5,positive\nP001,-0.5,negative\n"
        )
        for group in ("positive", "negative"):
            (tmp_path / f"discovery_{group}.json").write_text(
                json.dumps({"skipped": f"group {group}: 1 members < 10 required for 1 features"})
            )
        build_report(cfg)

        def reject(constant):
            raise ValueError(f"{constant} is not valid JSON")

        diagnostics = json.loads(cfg.path("diagnostics").read_text(), parse_constant=reject)
        report = json.loads(cfg.path("report").read_text(), parse_constant=reject)
        assert diagnostics["parameters"]["x"]["rhat"] is None
        assert report["sampler"] == diagnostics["summary"]
        assert report["sampler"]["max_rhat"] is None
        assert "max split R-hat inf >= 1.01" in report["sampler"]["flags"]
        assert report["skipped_groups"] == ["negative", "positive"]

    @pytest.mark.parametrize("n_draws", [10, 1000])
    def test_chains_stuck_at_different_values_raise_ess_flag(self, n_draws):
        # every autocorrelation is 1, so ESS is 2n / (2n - 1), not the draw
        # count 2n (which at n = 1000 would clear the 800 threshold)
        samples = _stuck_chains(n_draws)
        assert samples.ess_bulk[0] == pytest.approx(2 * n_draws / (2 * n_draws - 1))
        flags = diagnostic_summary(samples)["flags"]
        assert "min ESS 1 below 400 per chain (800 total)" in flags


class TestMalformedArtifacts:
    """A malformed artifact read back is a stage failure naming its line."""

    @pytest.mark.parametrize(
        "name, commands, message",
        [
            ("groups.csv", ("report", "discover"),
             "group 'positve' is not one of positive, negative"),
            ("u_estimates.csv", ("group",), "u_mean 'high' is not a number"),
            ("features.csv", ("group",), "pump_id P000 repeats line 2"),
        ],
    )
    def test_exit_2_with_file_and_line(self, pipeline_run, tmp_path, name, commands, message):
        config_path, out = pipeline_run
        copy = tmp_path / "out"
        shutil.copytree(out, copy)
        path = copy / name
        lines = path.read_text().splitlines(keepends=True)
        pump_id, u_mean, *rest = lines[-1].split(",")
        corrupt = {  # the last line of each file, malformed
            "groups.csv": f"{pump_id},{u_mean},positve\n",
            "u_estimates.csv": ",".join([pump_id, "high", *rest]),
            "features.csv": lines[1],  # the first pump's row again
        }
        lines[-1] = corrupt[name]
        path.write_text("".join(lines))
        for command in commands:
            result = _invoke(["--config", str(config_path), "--out", str(copy), command])
            assert result.exit_code == 2, result.output
            assert f"{path} line {len(lines)}: {message}" in result.output
            assert result.exception is None or isinstance(result.exception, SystemExit)


    @pytest.mark.parametrize("command", ["report", "discover"])
    def test_malformed_json_artifact(self, pipeline_run, tmp_path, command):
        # the report is built by either command, and labelled with the command
        config_path, out = pipeline_run
        copy = tmp_path / "out"
        shutil.copytree(out, copy)
        path = copy / "diagnostics.json"
        path.write_text("{\n{broken\n")
        result = _invoke(["--config", str(config_path), "--out", str(copy), command])
        assert result.exit_code == 2, result.output
        assert f"stage failure: [{command}] {path} line 2: " in result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)

    def test_header_only_groups_file(self, pipeline_run, tmp_path):
        # the u histogram of no pumps used to end in a traceback
        config_path, out = pipeline_run
        copy = tmp_path / "out"
        shutil.copytree(out, copy)
        path = copy / "groups.csv"
        path.write_text(path.read_text().splitlines(keepends=True)[0])
        result = _invoke(["--config", str(config_path), "--out", str(copy), "discover"])
        assert result.exit_code == 2, result.output
        assert f"{path} line 2: no pumps" in result.output


class TestPumpSets:
    """Per-pump artifacts are matched to the feature matrix by pump id."""

    def _copy(self, pipeline_run, tmp_path):
        config_path, out = pipeline_run
        copy = tmp_path / "out"
        shutil.copytree(out, copy)

        def invoke(command):
            return _invoke(["--config", str(config_path), "--out", str(copy), command])

        return copy, invoke

    def test_missing_pump_in_u_estimates(self, pipeline_run, tmp_path):
        copy, invoke = self._copy(pipeline_run, tmp_path)
        path = copy / "u_estimates.csv"
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:-1]))
        missing = lines[-1].split(",")[0]
        result = invoke("group")
        assert result.exit_code == 2, result.output
        assert "pump sets differ" in result.output
        assert f"only in the features: ['{missing}']" in result.output

    def test_extra_pump_in_groups(self, pipeline_run, tmp_path):
        copy, invoke = self._copy(pipeline_run, tmp_path)
        path = copy / "groups.csv"
        path.write_text(path.read_text() + "X999,0.5,positive\n")
        result = invoke("discover")
        assert result.exit_code == 2, result.output
        assert "pump sets differ" in result.output
        assert "only in groups.csv: ['X999']" in result.output

    def test_shuffled_u_estimates_follow_the_features(self, pipeline_run, tmp_path):
        copy, invoke = self._copy(pipeline_run, tmp_path)
        path = copy / "u_estimates.csv"
        header, *rows = path.read_text().splitlines(keepends=True)
        shuffled = [rows[i] for i in np.random.default_rng(0).permutation(len(rows))]
        assert shuffled != rows
        path.write_text(header + "".join(shuffled))
        before = (copy / "groups.csv").read_bytes()
        (copy / "groups.csv").unlink()
        assert invoke("group").exit_code == 0
        u_mean = {r.split(",")[0]: r.split(",")[1] for r in rows}
        feature_ids = [r.split(",")[0] for r in (copy / "features.csv").read_text().splitlines()[1:]]
        groups = [r.split(",") for r in (copy / "groups.csv").read_text().splitlines()[1:]]
        assert [g[0] for g in groups] == feature_ids
        assert all(g[1] == u_mean[g[0]] for g in groups)
        assert (copy / "groups.csv").read_bytes() == before


class TestPipelineFailure:
    @pytest.mark.parametrize("flags", [[], ["--no-cache"]], ids=["cached", "no_cache"])
    def test_unwritable_artifact_is_a_stage_failure(self, pipeline_run, tmp_path, flags):
        # with the cache the fit's outputs are hashed, without it draws.csv is
        # written; either way the directory in its place fails the fit
        config_path, out = pipeline_run
        copy = tmp_path / "out"
        shutil.copytree(out, copy)
        draws = copy / "draws.csv"
        draws.unlink()
        draws.mkdir()
        result = _invoke(["--config", str(config_path), "--out", str(copy), "pipeline", *flags])
        assert result.exit_code == 2, result.output
        assert f"stage failure: [fit] {draws}: Is a directory" in result.output
        assert isinstance(result.exception, SystemExit)
        timings = json.loads((copy / "timings.json").read_text())
        assert timings["failed_stage"] == "fit"
        assert "fit" not in timings and "fit_cached" not in timings

    def test_timings_name_the_failed_stage(self, tmp_path):
        inspections = tmp_path / "inspections.csv"
        timeseries = tmp_path / "timeseries.csv"
        inspections.write_text("pump,day,state\nP1,0,1\n")
        timeseries.write_text("pump_id,day,value\nP1,0,1.0\n")
        out = tmp_path / "out"
        config_path = tmp_path / "c.ini"
        config_path.write_text(
            f"[pipeline]\nout_dir = {out}\nsource = files\n"
            f"inspections = {inspections}\ntimeseries = {timeseries}\n"
        )
        result = _invoke(["--config", str(config_path), "pipeline"])
        assert result.exit_code == 2, result.output
        assert "[fit]" in result.output
        assert json.loads((out / "timings.json").read_text()) == {"failed_stage": "fit"}


class TestFeaturesCommand:
    def test_header_only_series_is_stage_failure(self, tmp_path):
        inspections = tmp_path / "inspections.csv"
        timeseries = tmp_path / "timeseries.csv"
        inspections.write_text("pump,day,state\nP1,0,1\n")
        timeseries.write_text("pump_id,day,value\n")
        out = tmp_path / "out"
        config_path = tmp_path / "c.ini"
        config_path.write_text(
            f"[pipeline]\nout_dir = {out}\nsource = files\n"
            f"inspections = {inspections}\ntimeseries = {timeseries}\n"
        )
        result = _invoke(["--config", str(config_path), "features"])
        assert result.exit_code == 2, result.output
        assert "[features]" in result.output
        assert str(timeseries) in result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)


class TestDiscoverSkipsSmallGroups:
    def test_small_group_recorded_not_fatal(self, tmp_path):
        # 22 active features need 25 members; 25 pumps split two ways cannot
        # reach that in both groups, so at least one group is skipped (at
        # seed 11 the split is 11 / 14 and both are)
        out = tmp_path / "out"
        config_path = tmp_path / "c.ini"
        config_path.write_text(
            SMALL_CONFIG.format(out=out).replace(
                "active = std, min, recent_change_rate, trend_slope_90d", "active ="
            )
        )
        result = _invoke(["--config", str(config_path), "pipeline"])
        assert result.exit_code in (0, 3), result.output
        report = json.loads((out / "report.json").read_text())
        assert report["skipped_groups"] == ["negative", "positive"]
        assert report["gap_ratio"] is None
        # discovery produced nothing, which is flagged with exit code 3
        flag = "no group analysed: skipped negative, positive"
        assert result.exit_code == 3 and flag in result.output
        # each group leaves only its record, holding the size gate's message
        for group in ("negative", "positive"):
            count = report["groups"][group]["count"]
            record = {"skipped": f"group {group}: {count} members < 25 required for 22 features"}
            assert json.loads((out / f"discovery_{group}.json").read_text()) == record
            assert report["discovery"][group] == record
        alone = _invoke(["--config", str(config_path), "discover"])
        assert alone.exit_code == 3, alone.output
        assert flag in alone.output
        for group in ("negative", "positive"):
            assert [p.name for p in out.glob(f"*_{group}.*")] == [f"discovery_{group}.json"]


class TestCollinearDefaultFeatures:
    def test_default_features_discover_at_120_pumps(self, tmp_path):
        # iqr and trend_intercept are exact combinations of earlier default
        # features; they are dropped so the covariance is not singular
        out = tmp_path / "out"
        config_path = tmp_path / "c.ini"
        config_path.write_text(
            f"[pipeline]\nout_dir = {out}\nseed = 11\nthreads = 1\n"
            "[synth]\nn_pumps = 120\n"
            "[sampler]\nn_draws = 50\nn_tune = 100\nn_chains = 2\n"
            "[lingam]\nn_bootstrap = 10\n"
        )
        with pytest.warns(UserWarning, match="dependent columns.*: iqr, trend_intercept"):
            result = _invoke(["--config", str(config_path), "pipeline", "--no-cache"])
        assert result.exit_code in (0, 3), result.output
        report = json.loads((out / "report.json").read_text())
        assert report["effects"]
        analysed = set(report["effects"]) - set(report["skipped_groups"])
        for group in analysed:
            order = json.loads((out / f"order_{group}.json").read_text())
            assert "iqr" not in order and "trend_intercept" not in order
            assert {"q25", "q75", "mean", "trend_slope_90d", "u"} <= set(order)
        # each group's discovery record names the dropped columns and why
        assert set(report["discovery"]) == {"positive", "negative"}
        for group, record in report["discovery"].items():
            assert record == json.loads((out / f"discovery_{group}.json").read_text())
            assert record["dropped_columns"] == dict.fromkeys(
                ("iqr", "trend_intercept"), "linear combination of earlier columns"
            )
            assert record["bootstrap"]["n_resamples"] == 10
            assert record["ica"]["iterations"] >= 1


class TestHelp:
    def test_top_level_help_lists_subcommands(self):
        result = _invoke(["--help"])
        assert result.exit_code == 0
        for name in ("synth", "fit", "features", "group", "discover", "pipeline", "report"):
            assert name in result.output
