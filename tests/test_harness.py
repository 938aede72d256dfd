"""Experiment driver: config validation, determinism, report diffing."""

import json
import math
import re
from pathlib import Path

import pytest

from hyperind.core import write_file
from hyperind.errors import InvalidArguments, PreconditionFailed, SchemaError
from hyperind.generators import gen_gnp
from hyperind.harness import ExperimentConfig, diff_reports, run_experiment
from hyperind.rng import stream
from hyperind.solvers import SOLVERS


def base_config(**overrides):
    data = {
        "name": "smoke",
        "seed": 11,
        "trials": 3,
        "generator": "gnp",
        "generator_params": {"n": 40, "k": 3, "p": 0.02},
        "algorithms": [
            {"algorithm": "greedy"},
            {"algorithm": "spencer"},
        ],
    }
    data.update(overrides)
    return data


def test_config_validation():
    with pytest.raises(InvalidArguments, match="missing"):
        ExperimentConfig.from_dict({"name": "x"})
    with pytest.raises(InvalidArguments, match="unknown keys"):
        ExperimentConfig.from_dict(base_config(extra=1))
    with pytest.raises(InvalidArguments, match="trials"):
        ExperimentConfig.from_dict(base_config(trials=0))
    with pytest.raises(InvalidArguments, match="generator"):
        ExperimentConfig.from_dict(base_config(generator="magic"))
    with pytest.raises(InvalidArguments, match="lacks"):
        ExperimentConfig.from_dict(base_config(algorithms=[{"params": {}}]))
    with pytest.raises(InvalidArguments, match="unknown algorithm"):
        ExperimentConfig.from_dict(
            base_config(algorithms=[{"algorithm": "magic"}])
        )


@pytest.mark.parametrize(
    "overrides, name",
    [
        ({"algorithms": [{"algorithm": "spencer", "params": {"sampels": 50}}]}, "sampels"),
        ({"generator": "girth5", "generator_params": {"n": 30, "k": 3, "t": 2.0, "tt": 3}}, "tt"),
        ({"algorithms": [{"algorithm": "greedy", "params": {"samples": 20}}]}, "samples"),
        ({"algorithms": [{"algorithm": "pkm2", "params": {"d": 4.0, "akpss_retries": 4}}]}, "akpss_retries"),
        ({"algorithms": [{"algorithm": "appA", "params": {"d": 4.0, "delta": None}}]}, "delta"),
        ({"algorithms": [{"algorithm": "greedy", "prams": {"order": "random"}}]}, "prams"),
    ],
)
def test_config_rejects_names_the_entry_does_not_take(overrides, name):
    # each once loaded, and the run silently used the defaults
    with pytest.raises(InvalidArguments, match=name):
        ExperimentConfig.from_dict(base_config(**overrides))


def test_config_from_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(base_config()), encoding="utf-8")
    cfg = ExperimentConfig.from_json(path)
    assert cfg.name == "smoke"
    assert cfg.trials == 3
    assert cfg.generator_params["n"] == 40


def test_run_writes_deterministic_outputs(tmp_path):
    cfg = ExperimentConfig.from_dict(base_config())
    report1 = run_experiment(cfg, tmp_path / "a")
    report2 = run_experiment(cfg, tmp_path / "b")

    csv1 = (tmp_path / "a" / "smoke.csv").read_bytes()
    csv2 = (tmp_path / "b" / "smoke.csv").read_bytes()
    assert csv1 == csv2

    assert report1["schema_version"] == 1
    rows = report1["rows"]
    assert len(rows) == 3 * 2
    assert rows == sorted(
        rows, key=lambda r: (r["trial"], r["algorithm"])
    )
    assert all(r["verified"] for r in rows)
    agg = report1["aggregates"]
    assert set(agg) == {"greedy", "spencer"}
    assert agg["greedy"]["all_verified"]
    assert agg["greedy"]["runs"] == 3
    assert diff_reports(report1, report2) == []


def test_reference_falls_back_to_trivial_on_edgeless_input(tmp_path):
    cfg = ExperimentConfig.from_dict(
        base_config(generator_params={"n": 15, "k": 3, "p": 0.0}, trials=1)
    )
    report = run_experiment(cfg, tmp_path)
    for row in report["rows"]:
        assert row["reference_kind"] == "trivial"
        assert row["reference"] == 15.0
        assert row["size"] == 15
        assert row["ratio"] == 1.0


def test_file_generator_round_trip(tmp_path):
    H = gen_gnp(25, 3, 0.03, stream(4, "file-gen"))
    path = tmp_path / "input.hg"
    write_file(H, path)
    cfg = ExperimentConfig.from_dict(
        base_config(
            generator="file",
            generator_params={"path": str(path)},
            trials=2,
            algorithms=[{"algorithm": "greedy"}],
        )
    )
    report = run_experiment(cfg, tmp_path / "out")
    rows = report["rows"]
    assert len(rows) == 2
    # same file every trial, deterministic mindegree greedy: equal rows
    assert rows[0]["size"] == rows[1]["size"]
    assert rows[0]["n"] == 25


def test_akpss_on_two_layer_bouquet(tmp_path):
    cfg = ExperimentConfig.from_dict(
        base_config(
            name="rounds",
            generator="bouquet",
            generator_params={"n": 30, "k": 2, "counts": {"2": 5}},
            trials=2,
            algorithms=[
                {
                    "algorithm": "akpss",
                    "params": {"T": math.e ** 2, "retries": 2},
                }
            ],
        )
    )
    report = run_experiment(cfg, tmp_path)
    assert all(r["verified"] for r in report["rows"])
    assert all(r["reference_kind"] == "main" for r in report["rows"])


def test_algorithm_errors_carry_trial_context(tmp_path):
    cfg = ExperimentConfig.from_dict(
        base_config(
            generator_params={"n": 20, "k": 3, "p": 0.1},
            trials=1,
            algorithms=[
                {"algorithm": "akpss", "params": {"T": math.e ** 2}}
            ],
        )
    )
    with pytest.raises(PreconditionFailed, match="trial 0, akpss"):
        run_experiment(cfg, tmp_path)


def test_diff_flags_changed_fields(tmp_path):
    cfg = ExperimentConfig.from_dict(base_config(trials=1))
    report = run_experiment(cfg, tmp_path)
    other = json.loads(json.dumps(report))
    other["rows"][0]["size"] += 1
    diffs = diff_reports(report, other)
    assert len(diffs) >= 1
    assert any("rows[0].size" in d for d in diffs)


def test_diff_ignores_volatile_fields(tmp_path):
    cfg = ExperimentConfig.from_dict(base_config(trials=1))
    report = run_experiment(cfg, tmp_path)
    other = json.loads(json.dumps(report))
    other["runtimes"] = []
    other["threads"] = 64
    assert diff_reports(report, other) == []


def test_diff_rejects_schema_mismatch():
    with pytest.raises(SchemaError):
        diff_reports({"schema_version": 1}, {"schema_version": 2})


def test_readme_solver_table_matches_the_solver_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `(\w+)` \| (.+?) \| `(\w+)` \|$", readme, re.M)
    assert [name for name, _, _ in rows] == list(SOLVERS)
    for name, required, reference in rows:
        assert re.findall(r"`(\w+)`", required) == list(SOLVERS[name].required)
        assert reference == SOLVERS[name].reference
