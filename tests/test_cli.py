"""End-to-end command-line runs: exit codes, reports, manifests, fixtures."""

import json
from pathlib import Path

import numpy as np

from konus.cli import CounterexampleFixture, RunManifest, intersection_demands, main

TWO_PERIOD_PRICES = "period,g1,g2\nt1,1,2\nt2,2,1\n"
TWO_PERIOD_QUANTITIES = "period,g1,g2\nt1,1,1\nt2,2,1\n"


def write_two_period(tmp_path: Path):
    prices = tmp_path / "prices.csv"
    quantities = tmp_path / "quantities.csv"
    prices.write_text(TWO_PERIOD_PRICES)
    quantities.write_text(TWO_PERIOD_QUANTITIES)
    return str(prices), str(quantities)


def emit_fixture(tmp_path: Path, epsilon=0.0):
    out = tmp_path / "fixture"
    code = main(["fixture", "appendix2", "--epsilon", str(epsilon), "--out", str(out)])
    assert code == 0
    return out


def test_intersection_demands_values():
    np.testing.assert_allclose(intersection_demands(CounterexampleFixture(0.0)), [2.0, 2.0, 2.0])
    np.testing.assert_allclose(intersection_demands(CounterexampleFixture(0.5)), [1.0, 1.0, 1.0])


def test_intersection_demands_scale_linearly():
    fix = CounterexampleFixture(0.25)
    half = CounterexampleFixture(0.25)
    object.__setattr__(half, "expenditure_new", fix.expenditure_new / 2.0)
    np.testing.assert_allclose(intersection_demands(half), intersection_demands(fix) / 2.0)


def test_fixture_emits_consistent_panel(tmp_path, capsys):
    out = emit_fixture(tmp_path)
    for name in ("prices.csv", "quantities.csv", "polytope.csv", "vertices.csv",
                 "intersection_demands.csv", "manifest.json"):
        assert (out / name).exists()
    code = main(["test", str(out / "prices.csv"), str(out / "quantities.csv"),
                 "--axiom", "both", "--out", str(tmp_path / "verdict")])
    assert code == 0
    assert "satisfied" in capsys.readouterr().out


def test_fixture_vertices_match_segment(tmp_path):
    out = emit_fixture(tmp_path)
    rows = (out / "vertices.csv").read_text().strip().splitlines()[1:]
    vertices = np.array([[float(v) for v in row.split(",")] for row in rows])
    np.testing.assert_allclose(vertices, [[0.0, 0.0, 2.0], [2.0, 0.0, 0.0]], atol=1e-9)


def test_fixture_check_inclusion(tmp_path, capsys):
    for epsilon in (0.0, 0.5):
        out = tmp_path / f"eps{epsilon}"
        code = main(["fixture", "appendix2", "--epsilon", str(epsilon),
                     "--check-inclusion", "--out", str(out)])
        assert code == 0
        text = (out / "inclusion.txt").read_text()
        assert "strictly contained" in text
    capsys.readouterr()


def test_fixture_unknown_name(tmp_path, capsys):
    assert main(["fixture", "nope", "--out", str(tmp_path / "x")]) == 2
    assert "unknown fixture" in capsys.readouterr().err


def test_test_command_violation_exit_code(tmp_path, capsys):
    prices, quantities = write_two_period(tmp_path)
    code = main(["test", prices, quantities, "--axiom", "harp", "--out", str(tmp_path / "v")])
    assert code == 1
    assert "violated" in capsys.readouterr().out
    code = main(["test", prices, quantities, "--axiom", "garp", "--out", str(tmp_path / "v2")])
    assert code == 0
    capsys.readouterr()


def test_test_command_input_error(tmp_path, capsys):
    assert main(["test", str(tmp_path / "missing.csv"), str(tmp_path / "also.csv"),
                 "--out", str(tmp_path / "o")]) == 2
    capsys.readouterr()


def test_irrationality_command(tmp_path, capsys):
    prices, quantities = write_two_period(tmp_path)
    code = main(["irrationality", prices, quantities, "--out", str(tmp_path / "irr")])
    assert code == 0
    out = capsys.readouterr().out
    assert "1.118033" in out
    assert "0.75" in out and "not attained" in out


def test_indices_command(tmp_path, capsys):
    out = emit_fixture(tmp_path)
    index_dir = tmp_path / "indices"
    code = main(["indices", str(out / "prices.csv"), str(out / "quantities.csv"),
                 "--out", str(index_dir)])
    assert code == 0
    rows = (index_dir / "index_series.csv").read_text().strip().splitlines()
    assert rows[0] == "period,consumption_index,price_index"
    first = rows[1].split(",")
    assert float(first[1]) == 2.0 and float(first[2]) == 1.0
    capsys.readouterr()


def test_indices_command_rejects_inconsistent_panel(tmp_path, capsys):
    prices, quantities = write_two_period(tmp_path)
    assert main(["indices", prices, quantities, "--out", str(tmp_path / "i")]) == 1
    assert "axiom violated" in capsys.readouterr().err


def test_forecast_command(tmp_path, capsys):
    out = emit_fixture(tmp_path)
    fdir = tmp_path / "forecast"
    code = main(["forecast", str(out / "prices.csv"), str(out / "quantities.csv"),
                 "--new-price", "1,1,1", "--expenditure", "2",
                 "--size-trials", "400", "--seed", "0", "--out", str(fdir)])
    assert code == 0
    gamma_rows = (fdir / "gamma.csv").read_text().strip().splitlines()[1:]
    gammas = [float(r.split(",")[1]) for r in gamma_rows]
    np.testing.assert_allclose(gammas, [0.5, 0.5, 1.0])
    assert (fdir / "polytope.csv").exists() and (fdir / "vertices.csv").exists()
    size_rows = (fdir / "forecast_size.csv").read_text().strip().splitlines()[1:]
    assert size_rows[0].startswith("garp,400,")
    capsys.readouterr()


def test_forecast_command_requires_work(tmp_path, capsys):
    out = emit_fixture(tmp_path)
    assert main(["forecast", str(out / "prices.csv"), str(out / "quantities.csv"),
                 "--out", str(tmp_path / "f2")]) == 2
    capsys.readouterr()


def test_power_and_groups_commands(tmp_path, capsys):
    rng = np.random.default_rng(0)
    from konus import cobb_douglas_statistics
    from konus.cli import _write_statistics_csv

    ts = cobb_douglas_statistics(6, 4, seed=8)
    _write_statistics_csv(ts, tmp_path / "p.csv", tmp_path / "q.csv")
    pdir = tmp_path / "power"
    assert main(["power", str(tmp_path / "p.csv"), str(tmp_path / "q.csv"),
                 "--trials", "200", "--seed", "4", "--out", str(pdir)]) == 0
    header, row = (pdir / "power.csv").read_text().strip().splitlines()
    assert header == "trials,w_hat_g,w_hat_h,seed"
    gdir = tmp_path / "groups"
    assert main(["groups", str(tmp_path / "p.csv"), str(tmp_path / "q.csv"),
                 "--sizes", "2,4", "--samples", "30", "--seed", "4", "--out", str(gdir)]) == 0
    lines = (gdir / "groups.csv").read_text().strip().splitlines()
    assert lines[0] == "size,samples,p_garp,p_harp,skipped"
    assert len(lines) == 3
    capsys.readouterr()


def test_hierarchy_command(tmp_path, capsys):
    out = emit_fixture(tmp_path, epsilon=0.5)
    tree = {"name": "root", "goods": ["g3"], "children": [{"name": "ab", "goods": ["g1", "g2"]}]}
    tree_path = tmp_path / "tree.json"
    tree_path.write_text(json.dumps(tree))
    hdir = tmp_path / "hier"
    code = main(["hierarchy", str(out / "prices.csv"), str(out / "quantities.csv"),
                 "--tree", str(tree_path), "--out", str(hdir)])
    assert code == 0
    nodes = (hdir / "hierarchy_nodes.csv").read_text()
    assert "root" in nodes and "ab" in nodes
    assert (hdir / "tree.txt").exists()
    capsys.readouterr()


def test_manifest_replay_reproduces_outputs(tmp_path, capsys):
    out = emit_fixture(tmp_path)
    fdir = tmp_path / "run"
    argv = ["forecast", str(out / "prices.csv"), str(out / "quantities.csv"),
            "--new-price", "1,1,1", "--expenditure", "2",
            "--size-trials", "300", "--seed", "5", "--out", str(fdir)]
    assert main(argv) == 0
    replay_dir = tmp_path / "replayed"
    assert main(["replay", str(fdir / "manifest.json"), "--out", str(replay_dir)]) == 0
    for name in ("gamma.csv", "polytope.csv", "vertices.csv", "forecast_size.csv"):
        assert (replay_dir / name).read_bytes() == (fdir / name).read_bytes()
    capsys.readouterr()


def test_manifest_roundtrip(tmp_path):
    manifest = RunManifest("test", {"axiom": "harp", "omega": 1.0, "tolerance": 0.0,
                                    "positional": ["p.csv", "q.csv"]})
    manifest.write(tmp_path)
    loaded = RunManifest.load(tmp_path / "manifest.json")
    assert loaded.command == "test"
    argv = loaded.to_argv(out_dir="somewhere")
    assert argv[0] == "test" and "p.csv" in argv and "--out" in argv


def test_fixture_good_ids_are_stable(tmp_path):
    out = emit_fixture(tmp_path)
    header = (out / "prices.csv").read_text().splitlines()[0]
    assert header == "period,g1,g2,g3"


def test_invalid_level_fails_before_any_output(tmp_path, capsys):
    prices, quantities = write_two_period(tmp_path)
    for extra in (["--omega", "nan"], ["--omega", "inf"], ["--tolerance", "-1"]):
        out = tmp_path / "invalid"
        code = main(["test", prices, quantities, *extra, "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "must be finite" in captured.err
        assert not out.exists()
