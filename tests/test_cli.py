"""End-to-end runs of the command line tool via main(argv)."""

import json
import math

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


def test_schedule_non_finite_T_exit_2(capsys):
    for T in ("inf", "nan"):
        code, _, err = run(capsys, "schedule", "--n", 100, "--k", 3, "--T", T)
        assert code == 2
        assert "T must be finite" in err
        assert "Traceback" not in err


def test_solve_huge_header_exit_2(tmp_path, capsys):
    path = tmp_path / "huge.hg"
    path.write_text("H k=3 n=1000000000000\n0 1 2\n", encoding="utf-8")
    code, _, err = run(capsys, "solve", path, "--algorithm", "greedy")
    assert code == 2
    assert "line 1" in err and "exceeds the limit" in err
    assert "Traceback" not in err
