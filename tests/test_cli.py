"""End-to-end runs of the command line tool via main(argv)."""

import copy
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from hyperind.algorithms.akpss import MAX_RETRIES
from hyperind.algorithms.basic import MAX_SAMPLES
from hyperind.cli import main
from hyperind.core import LayeredHypergraph, read_file, write_file


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_and_check_clean_instance(tmp_path, capsys):
    path = tmp_path / "g5.hg"
    code, out, _ = run(
        capsys, "gen", "--kind", "girth5", "--n", 60, "--k", 3,
        "--t", 2.0, "--seed", 4, "--out", path,
    )
    assert code == 0
    assert "wrote" in out
    H = read_file(path)
    assert H.k == 3

    code, out, _ = run(capsys, "check", path)
    assert code == 0
    assert "all hold" in out


def test_check_flags_violations_and_json(tmp_path, capsys):
    H = LayeredHypergraph(9, 3)
    H.add_edge((0, 1, 4))
    H.add_edge((1, 2, 5))
    H.add_edge((0, 2, 6))  # unsupported linear triangle
    path = tmp_path / "bad.hg"
    write_file(H, path)

    code, out, _ = run(capsys, "check", path)
    assert code == 1
    assert "violated" in out

    code, out, _ = run(capsys, "check", path, "--json")
    assert code == 1
    data = json.loads(out)
    assert data["holds"] is False
    assert data["violations"]
    assert data["linear_three_seen"]


@pytest.mark.parametrize("limit", [0, -2])
def test_check_limit_below_one_exits_2_before_reading(tmp_path, capsys, limit):
    path = tmp_path / "g.hg"
    write_file(LayeredHypergraph(4, 3), path)
    for target in (path, tmp_path / "missing.hg"):
        code, out, err = run(capsys, "check", target, "--limit", limit)
        assert code == 2
        assert out == ""
        assert "--limit must lie in 1.., got" in err


def test_schedule_output(capsys):
    code, out, _ = run(
        capsys, "schedule", "--n", 100000, "--T", math.e ** 9, "--k", 4
    )
    assert code == 0
    assert "rounds M=4" in out

    code, out, _ = run(
        capsys, "schedule", "--n", 100000, "--T", math.e ** 9, "--k", 4,
        "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["M"] == 4
    assert len(data["alpha"]) == 5

    code, _, err = run(capsys, "schedule", "--n", 100, "--T", 0.5, "--k", 3)
    assert code == 2
    assert "error:" in err


def test_solve_greedy_writes_certificate(tmp_path, capsys):
    path = tmp_path / "cliques.hg"
    run(
        capsys, "gen", "--kind", "cliques", "--n", 20, "--k", 3, "--s", 5,
        "--out", path,
    )
    cert = tmp_path / "cert.txt"
    code, out, _ = run(
        capsys, "solve", path, "--algorithm", "greedy", "--out", cert,
    )
    assert code == 0
    assert "found 8 of 20" in out
    lines = cert.read_text().splitlines()
    assert lines[0].startswith("# algorithm=greedy")
    assert "size=8" in lines[0]
    assert len(lines) == 9  # header plus eight vertices


def test_solve_spencer(tmp_path, capsys):
    path = tmp_path / "gnp.hg"
    run(
        capsys, "gen", "--kind", "gnp", "--n", 60, "--k", 3,
        "--p", 30 / math.comb(60, 3), "--seed", 2, "--out", path,
    )
    code, out, _ = run(capsys, "solve", path, "--algorithm", "spencer")
    assert code == 0
    assert "verified" in out


def test_solve_akpss_two_layer(tmp_path, capsys):
    path = tmp_path / "pairs.hg"
    run(
        capsys, "gen", "--kind", "bouquet", "--n", 40, "--k", 2,
        "--counts", '{"2": 6}', "--seed", 3, "--out", path,
    )
    code, out, _ = run(
        capsys, "solve", path, "--algorithm", "akpss",
        "--T", math.e ** 2, "--retries", 2,
    )
    assert code == 0
    assert "verified" in out


def test_solve_pipelines(tmp_path, capsys):
    sparse = tmp_path / "sparse4.hg"
    run(
        capsys, "gen", "--kind", "gnp", "--n", 150, "--k", 4,
        "--p", 25 / math.comb(150, 4), "--seed", 5, "--out", sparse,
    )
    code, out, _ = run(
        capsys, "solve", sparse, "--algorithm", "pkm2", "--d", 16,
    )
    assert code == 0 and "verified" in out

    code, out, _ = run(
        capsys, "solve", sparse, "--algorithm", "appA", "--d", 1,
        "--epsilon", 1 / 16,
    )
    assert code == 0 and "verified" in out

    clean = tmp_path / "clean4.hg"
    run(
        capsys, "gen", "--kind", "girth5", "--n", 200, "--k", 4,
        "--t", 1.5, "--seed", 6, "--out", clean,
    )
    code, out, _ = run(
        capsys, "solve", clean, "--algorithm", "appB", "--t", 3,
        "--epsilon", 0.5,
    )
    assert code == 0 and "verified" in out


def test_solve_missing_parameter(tmp_path, capsys):
    path = tmp_path / "x.hg"
    run(
        capsys, "gen", "--kind", "gnp", "--n", 20, "--k", 3, "--p", 0.01,
        "--out", path,
    )
    code, _, err = run(capsys, "solve", path, "--algorithm", "akpss")
    assert code == 2
    assert "needs --T" in err


def test_solve_skips_the_flags_of_other_solvers(tmp_path, capsys):
    path = tmp_path / "x.hg"
    run(capsys, "gen", "--kind", "gnp", "--n", 20, "--k", 3, "--p", 0.01, "--out", path)
    other = ("--samples", 30, "--T", 5, "--d", 2, "--t", 3, "--epsilon", 0.5, "--case", 2, "--strict")
    code, out, _ = run(capsys, "solve", path, "--algorithm", "greedy", *other)
    assert code == 0 and "verified" in out


def test_gen_missing_parameter(tmp_path, capsys):
    code, _, err = run(
        capsys, "gen", "--kind", "gnp", "--n", 10, "--k", 3,
        "--out", tmp_path / "y.hg",
    )
    assert code == 2
    assert "needs --p" in err


def test_experiment_and_diff(tmp_path, capsys):
    cfg = {
        "name": "cli-smoke",
        "seed": 5,
        "trials": 2,
        "generator": "gnp",
        "generator_params": {"n": 30, "k": 3, "p": 0.02},
        "algorithms": [{"algorithm": "greedy"}],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")

    code, out, _ = run(
        capsys, "experiment", cfg_path, "--out-dir", tmp_path / "a"
    )
    assert code == 0
    assert "greedy: 2 runs" in out
    code, _, _ = run(
        capsys, "experiment", cfg_path, "--out-dir", tmp_path / "b"
    )
    assert code == 0

    left = tmp_path / "a" / "cli-smoke.json"
    right = tmp_path / "b" / "cli-smoke.json"
    code, out, _ = run(capsys, "diff", left, right)
    assert code == 0
    assert "reports match" in out

    mutated = json.loads(right.read_text())
    mutated["rows"][0]["size"] += 3
    right.write_text(json.dumps(mutated), encoding="utf-8")
    code, out, _ = run(capsys, "diff", left, right)
    assert code == 1
    assert "differences" in out


def test_missing_input_file_reports_error(capsys):
    code, _, err = run(capsys, "check", "/nonexistent/input.hg")
    assert code == 2
    assert err.startswith("error:")


def test_malformed_config_reports_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("not json", encoding="utf-8")
    code, _, err = run(capsys, "experiment", bad, "--out-dir", tmp_path / "o")
    assert code == 2
    assert "not valid JSON" in err

    code, _, err = run(capsys, "diff", bad, bad)
    assert code == 2
    assert "not valid JSON" in err


def test_gen_malformed_json_counts_exit_2(tmp_path, capsys):
    out = tmp_path / "b.hg"
    for flags in (
        ("--counts", "{bad"),
        ("--counts", "[1, 2]"),
        ("--counts", '{"2": 3}', "--vertex-caps", '{"2": "x"}'),
        ("--counts", '{"2": 1.5, "3": true}'),
        ("--counts", '{"two": 3}'),
    ):
        code, _, err = run(
            capsys, "gen", "--kind", "bouquet", "--n", 20, "--k", 3,
            *flags, "--out", out,
        )
        assert code == 2
        assert err.startswith("error: --")
        assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("caps", ['{"7": 1}', '{"1": 1}', '{"2": -1}'])
def test_gen_vertex_caps_out_of_range_exit_2(tmp_path, capsys, caps):
    out = tmp_path / "b.hg"
    code, _, err = run(
        capsys, "gen", "--kind", "bouquet", "--n", 10, "--k", 3,
        "--counts", '{"2": 3}', "--vertex-caps", caps, "--out", out,
    )
    assert code == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert not out.exists()


def test_schedule_non_finite_T_exit_2(capsys):
    for T in ("inf", "nan"):
        code, _, err = run(capsys, "schedule", "--n", 100, "--k", 3, "--T", T)
        assert code == 2
        assert "T must be a finite real number" in err
        assert "Traceback" not in err


def test_solve_huge_header_exit_2(tmp_path, capsys):
    path = tmp_path / "huge.hg"
    path.write_text("H k=3 n=1000000000000\n0 1 2\n", encoding="utf-8")
    code, _, err = run(capsys, "solve", path, "--algorithm", "greedy")
    assert code == 2
    assert "line 1" in err and "exceeds the limit" in err
    assert "Traceback" not in err


def test_solve_strict_reaches_pipelines(tmp_path, capsys):
    H = LayeredHypergraph(8, 4)
    H.add_edge((0, 1, 2, 3))
    H.add_edge((0, 1, 2, 4))  # triple (0,1,2) has degree 2 > t/(log t)^5
    path = tmp_path / "caps.hg"
    write_file(H, path)
    argv = ("solve", path, "--algorithm", "appB", "--t", 3, "--epsilon", 0.5)
    code, out, err = run(capsys, *argv, "--strict")
    assert code == 2
    assert "exceeds cap" in err
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert "warning: max 3-set degree 2 exceeds cap" in out


MALFORMED_CONFIGS = {
    "appA without d": {"algorithms": [{"algorithm": "appA", "params": {}}]},
    "akpss without T": {"algorithms": [{"algorithm": "akpss", "params": {"retries": 2}}]},
    "gnp without n": {"generator_params": {"k": 3, "p": 0.05}},
    "samples not an integer": {
        "algorithms": [{"algorithm": "spencer", "params": {"samples": "abc"}}]
    },
    "seed not an integer": {"seed": "x"},
    "algorithms not a list": {"algorithms": 5},
    "params not an object": {"algorithms": [{"algorithm": "greedy", "params": [1]}]},
    "name with a NUL byte": {"name": "a\0b"},
    "name with a directory": {"name": "../up"},
    "misspelled solver param": {"algorithms": [{"algorithm": "spencer", "params": {"sampels": 50}}]},
    "misspelled generator param": {"generator_params": {"n": 10, "k": 3, "p": 0.05, "pp": 1}},
}


def small_config(**overrides):
    cfg = {
        "name": "fuzz",
        "seed": 5,
        "trials": 2,
        "generator": "gnp",
        "generator_params": {"n": 10, "k": 3, "p": 0.05},
        "algorithms": [{"algorithm": "greedy"}, {"algorithm": "spencer"}],
    }
    cfg.update(overrides)
    return cfg


@pytest.mark.parametrize("case", sorted(MALFORMED_CONFIGS))
def test_malformed_config_fields_exit_2(tmp_path, capsys, case):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(small_config(**MALFORMED_CONFIGS[case])), encoding="utf-8")
    code, _, err = run(capsys, "experiment", path, "--out-dir", tmp_path / "o")
    assert code == 2
    assert err.startswith("error:")
    assert not (tmp_path / "o").exists()  # rejected before any trial ran


def fuzz_main(argv) -> int:
    """main's exit code; argparse's usage errors count as exit 2."""
    try:
        return main([str(a) for a in argv])
    except SystemExit as exc:
        return exc.code


# what a mutation may put in a flag or a config field; integers stay small
# because a config's n, k and trials size its instances, and check_bouquet
# on a dense instance takes seconds at n=10, k=5
FUZZ_VALUES = st.one_of(
    st.integers(-2, 5),
    st.floats(-1e3, 1e3),
    st.sampled_from(
        [0.0625, math.e ** 2, math.nan, math.inf, -math.inf, 1e300, "", "abc",
         "1.5", "true", None, True, [1], {"2": 1.5}, {"2": 3}]
    ),
)


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    base = tmp_path_factory.mktemp("fuzz")
    paths = {}
    for name, argv in (
        ("k3", ("--kind", "gnp", "--n", 40, "--k", 3, "--p", 0.002)),
        ("k4", ("--kind", "gnp", "--n", 60, "--k", 4, "--p", 0.0003)),
        ("pairs", ("--kind", "bouquet", "--n", 30, "--k", 2, "--counts", '{"2": 5}')),
    ):
        paths[name] = base / f"{name}.hg"
        assert main(["gen", *map(str, argv), "--out", str(paths[name])]) == 0
    return base, paths


SOLVE_BASE = {
    "greedy": ("k3",),
    "spencer": ("k3",),
    "akpss": ("pairs", "--T", math.e ** 2, "--retries", 2),
    "pkm2": ("k4", "--d", 16),
    "appA": ("k4", "--d", 1, "--epsilon", 0.0625),
    "appB": ("k4", "--t", 3, "--epsilon", 0.5),
}
SOLVE_FLAGS = ("--seed", "--order", "--samples", "--retries", "--T", "--d", "--t",
               "--epsilon", "--case", "--strict", "--trust", "--algorithm", "--out")


@pytest.mark.parametrize("value", [0, -3, "cap+1"])
@pytest.mark.parametrize("algorithm", ["pkm2", "appA", "appB", "akpss", "spencer"])
def test_solve_loop_counts_out_of_range_exit_2(fuzz_inputs, capsys, algorithm, value):
    _, paths = fuzz_inputs
    instance, *flags = SOLVE_BASE[algorithm]
    flag, cap = ("--samples", MAX_SAMPLES) if algorithm == "spencer" else ("--retries", MAX_RETRIES)
    if value == "cap+1":
        value = cap + 1
    code, _, err = run(capsys, "solve", paths[instance], "--algorithm", algorithm, *flags, flag, value)
    assert code == 2
    assert str(value) in err


def test_gen_girth5_bad_t_exits_2_at_small_n(tmp_path, capsys):
    out = tmp_path / "g.hg"
    code, _, err = run(capsys, "gen", "--kind", "girth5", "--n", 2, "--k", 3, "--t", -1, "--out", out)
    assert code == 2
    assert "t must exceed 0" in err
    assert not out.exists()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fuzz_solve_argv_never_raises(fuzz_inputs, data):
    base, paths = fuzz_inputs
    algorithm = data.draw(st.sampled_from(sorted(SOLVE_BASE)))
    instance, *flags = SOLVE_BASE[algorithm]
    argv = ["solve", paths[instance], "--algorithm", algorithm, *flags]
    for _ in range(data.draw(st.integers(1, 3))):
        flag = data.draw(st.sampled_from(SOLVE_FLAGS))
        if flag in ("--strict", "--trust"):
            argv.append(flag)
        elif flag == "--out":
            argv += [flag, base / "cert.txt"]
        else:
            argv += [flag, data.draw(FUZZ_VALUES)]
    assert fuzz_main(argv) in (0, 1, 2)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fuzz_experiment_config_never_raises(fuzz_inputs, data):
    base, paths = fuzz_inputs
    cfg = small_config(
        algorithms=[
            {"algorithm": "greedy", "params": {"order": "random"}},
            {"algorithm": "spencer", "params": {"samples": 20}},
            {"algorithm": "akpss", "params": {"T": math.e ** 2, "retries": 2}},
            {"algorithm": "appB", "params": {"t": 3, "epsilon": 0.5, "retries": 2}},
        ],
    )
    cfg = data.draw(st.sampled_from([
        cfg,
        {**cfg, "generator": "bouquet",
         "generator_params": {"n": 10, "k": 2, "counts": {"2": 3}}},
        {**cfg, "generator": "file", "generator_params": {"path": str(paths["k4"])}},
    ]))
    cfg = json.loads(json.dumps(cfg))
    for _ in range(data.draw(st.integers(1, 3))):
        owners = [cfg, cfg.get("generator_params")]
        if isinstance(cfg.get("algorithms"), list):
            owners += [a.get("params") for a in cfg["algorithms"] if isinstance(a, dict)]
        owner = data.draw(st.sampled_from([o for o in owners if isinstance(o, dict) and o]))
        key = data.draw(st.sampled_from(sorted(owner)))
        if data.draw(st.booleans()):
            del owner[key]
        else:
            owner[key] = copy.deepcopy(data.draw(FUZZ_VALUES))  # later steps may edit it
    path = base / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert fuzz_main(["experiment", path, "--out-dir", base / "out"]) in (0, 1, 2)
