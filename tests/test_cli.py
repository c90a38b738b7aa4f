"""End-to-end command-line runs: exit codes, reports, manifests, fixtures."""

import json
from pathlib import Path

import numpy as np
import pytest

from konus import (
    axioms,
    cobb_douglas_statistics,
    garp_irrationality,
    harp_irrationality,
    random_statistics,
    semiring,
)
from konus.cli import RunManifest, _panel_files, _write_files, main
from konus.forecast import CounterexampleFixture, intersection_demands

from conftest import planted_cycle_panel, replace_everywhere
from test_axioms import telescoping_panel

TWO_PERIOD_PRICES = "period,g1,g2\nt1,1,2\nt2,2,1\n"
TWO_PERIOD_QUANTITIES = "period,g1,g2\nt1,1,1\nt2,2,1\n"


def write_two_period(tmp_path: Path):
    prices = tmp_path / "prices.csv"
    quantities = tmp_path / "quantities.csv"
    prices.write_text(TWO_PERIOD_PRICES)
    quantities.write_text(TWO_PERIOD_QUANTITIES)
    return str(prices), str(quantities)


def write_power_panel(tmp_path: Path):
    _write_files(tmp_path, _panel_files(cobb_douglas_statistics(6, 4, seed=8)))
    return str(tmp_path / "prices.csv"), str(tmp_path / "quantities.csv")


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
    # some homothetic vertices lie on the support set's boundary; at no slack, rounding alone
    # pushed one out at 10 of these epsilons
    for epsilon in [k / 20 for k in range(20)]:  # 0, 0.05, ..., 0.95
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


def test_test_command_reports_a_multi_link_garp_chain(tmp_path, capsys):
    # the planted panel's only violations close a chain through all eight periods
    _write_files(tmp_path, _panel_files(planted_cycle_panel(8)))
    out = tmp_path / "v"
    code = main(["test", str(tmp_path / "prices.csv"), str(tmp_path / "quantities.csv"),
                 "--axiom", "garp", "--out", str(out)])
    assert code == 1
    lines = (out / "verdicts.csv").read_text().splitlines()
    assert lines == ["axiom,omega,status,witness",
                     'garp,1.0,violated,"chain t1 -> t2 -> t3 -> t4 -> t5 -> t6 -> t7 -> t8; closing '
                     'comparison fails: expenditure(t8) > 1.0 * cross value(t8, t1)"']
    assert "garp(omega=1.0): violated [chain t1 -> t2 -> t3" in capsys.readouterr().out


def test_test_command_input_error(tmp_path, capsys):
    assert main(["test", str(tmp_path / "missing.csv"), str(tmp_path / "also.csv"),
                 "--out", str(tmp_path / "o")]) == 2
    capsys.readouterr()


@pytest.mark.filterwarnings("ignore:overflow encountered in matmul:RuntimeWarning")
def test_test_command_refuses_overflowing_cross_values(tmp_path, capsys):
    prices, quantities = tmp_path / "prices.csv", tmp_path / "quantities.csv"
    prices.write_text("period,g1,g2\nt1,1e300,1\nt2,1,1\n")
    quantities.write_text("period,g1,g2\nt1,1e300,1\nt2,1,1\n")
    out = tmp_path / "o"
    code = main(["test", str(prices), str(quantities), "--axiom", "both", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "cross-value matrix must be finite" in captured.err
    assert not out.exists()


def test_irrationality_command(tmp_path, capsys):
    prices, quantities = write_two_period(tmp_path)
    code = main(["irrationality", prices, quantities, "--out", str(tmp_path / "irr")])
    assert code == 0
    out = capsys.readouterr().out
    assert "1.118033" in out
    assert "0.75" in out and "not attained" in out


def test_irrationality_command_searches_no_witness(tmp_path, capsys, monkeypatch):
    # the planted panel's critical cycle runs through all 200 periods, the worst case of a witness search
    ts = planted_cycle_panel(200)
    omega_g, attained_g = garp_irrationality(ts)
    _write_files(tmp_path, _panel_files(ts))

    def no_witness_search(*args, **kwargs):
        raise AssertionError("witness search")

    for function in (semiring.shortest_cycle_above, semiring._shortest_cycle, axioms.check_harp,
                     axioms.check_garp):
        replace_everywhere(monkeypatch, function, no_witness_search)
    code = main(["irrationality", str(tmp_path / "prices.csv"), str(tmp_path / "quantities.csv"),
                 "--out", str(tmp_path / "irr")])
    assert code == 0
    lines = (tmp_path / "irr" / "irrationality.csv").read_text().splitlines()
    assert lines == ["omega_g,attained_g,omega_h", f"{omega_g!r},{attained_g},{harp_irrationality(ts)!r}"]
    capsys.readouterr()


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


def test_indices_command_within_tol_only_exits_violated(tmp_path, capsys):
    # the panel holds at tol 1e-6 just below its index, where no multipliers exist: exit 1, not 3
    ts = random_statistics(6, 3, seed=5)
    _write_files(tmp_path, _panel_files(ts))
    omega = harp_irrationality(ts) * (1.0 - 1e-8)
    code = main(["indices", str(tmp_path / "prices.csv"), str(tmp_path / "quantities.csv"),
                 "--omega", repr(omega), "--tolerance", "1e-6", "--out", str(tmp_path / "i")])
    assert code == 1
    assert "axiom violated: homotheticity holds only within tol=1e-06" in capsys.readouterr().err


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
    prices, quantities = write_power_panel(tmp_path)
    pdir = tmp_path / "power"
    assert main(["power", prices, quantities,
                 "--trials", "200", "--seed", "4", "--out", str(pdir)]) == 0
    header, row = (pdir / "power.csv").read_text().strip().splitlines()
    assert header == "trials,w_hat_g,w_hat_h,seed"
    gdir = tmp_path / "groups"
    assert main(["groups", prices, quantities,
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


def test_hierarchy_with_a_single_good_leaf(tmp_path, capsys):
    # every cycle of a one-good panel has product one; Karp's table certifies the leaf at T=30
    _write_files(tmp_path, _panel_files(cobb_douglas_statistics(30, 6, 3)))
    tree = {"name": "root", "children": [{"name": "l1", "goods": ["g1"]},
                                         {"name": "l2", "goods": ["g2", "g3", "g4", "g5", "g6"]}]}
    (tmp_path / "tree.json").write_text(json.dumps(tree))
    hdir = tmp_path / "hier"
    code = main(["hierarchy", str(tmp_path / "prices.csv"), str(tmp_path / "quantities.csv"),
                 "--tree", str(tmp_path / "tree.json"), "--out", str(hdir)])
    assert code == 0
    lines = (hdir / "hierarchy_nodes.csv").read_text().splitlines()
    statuses = {line.split(",")[0]: line.split(",")[-1] for line in lines[1:]}
    assert statuses == {"root": "ok", "l1": "ok", "l2": "ok"}
    capsys.readouterr()


def test_test_command_passes_a_telescoping_panel(tmp_path, capsys):
    # rounding alone diverges the closure on this panel; the cycle search finds no violating cycle
    _write_files(tmp_path, _panel_files(telescoping_panel(40, 4, 0)))
    code = main(["test", str(tmp_path / "prices.csv"), str(tmp_path / "quantities.csv"),
                 "--axiom", "harp", "--out", str(tmp_path / "verdict")])
    assert code == 0
    lines = (tmp_path / "verdict" / "verdicts.csv").read_text().splitlines()
    assert lines[1].split(",")[:3] == ["harp", "1.0", "satisfied"]
    capsys.readouterr()


def test_hierarchy_with_single_good_leaves_beyond_the_table_bound(tmp_path, capsys):
    # the leaves g4 and g5 (max|log C| 2.5 and 2.9) are too long for Karp's table to certify;
    # the closure diverges on them, and the cycle search passes them
    _write_files(tmp_path, _panel_files(cobb_douglas_statistics(30, 6, 3)))
    tree = {"name": "root", "children": [{"name": "l4", "goods": ["g4"]}, {"name": "l5", "goods": ["g5"]}]}
    (tmp_path / "tree.json").write_text(json.dumps(tree))
    hdir = tmp_path / "hier"
    code = main(["hierarchy", str(tmp_path / "prices.csv"), str(tmp_path / "quantities.csv"),
                 "--tree", str(tmp_path / "tree.json"), "--out", str(hdir)])
    assert code == 0
    lines = (hdir / "hierarchy_nodes.csv").read_text().splitlines()
    statuses = {line.split(",")[0]: line.split(",")[-1] for line in lines[1:]}
    assert statuses["l4"] == statuses["l5"] == "ok"
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


def test_replay_from_another_directory_finds_the_inputs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["fixture", "appendix2", "--out", "fx"]) == 0
    Path("tree.json").write_text('{"name": "root", "children": [{"name": "all", "goods": ["g1", "g2", "g3"]}]}')
    assert main(["test", "fx/prices.csv", "fx/quantities.csv", "--out", "t1"]) == 0
    assert main(["hierarchy", "fx/prices.csv", "fx/quantities.csv", "--tree", "tree.json", "--out", "h1"]) == 0
    params = json.loads(Path("h1/manifest.json").read_text())["params"]
    assert params["positional"] == ["../fx/prices.csv", "../fx/quantities.csv"]
    assert params["tree"] == "../tree.json"
    (tmp_path / "sub").mkdir()
    monkeypatch.chdir(tmp_path / "sub")
    for run in ("t1", "h1"):
        assert main(["replay", f"../{run}/manifest.json"]) == 0  # into sub/<run>, the recorded out_dir
        names = sorted(path.name for path in (tmp_path / run).iterdir())
        assert names == sorted(path.name for path in Path(run).iterdir())
        for name in names:
            if name != "manifest.json":
                assert Path(run, name).read_bytes() == (tmp_path / run / name).read_bytes(), name
    # the replayed manifests name the same inputs, now from sub/<run>
    assert json.loads(Path("h1/manifest.json").read_text())["params"]["tree"] == "../../tree.json"
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


@pytest.mark.parametrize("prices, message", [
    # float() reads 1_0 as 10
    ("period,g1,g2\nt1,1_0,2\nt2,2,1\n", "unparseable cell '1_0' in price table (row 't1', column 'g1')"),
    ("period,g1,\nt1,1,2\nt2,2,1\n", "empty good id in price table header (row 1, column 3)"),
    ("period,g1,g1\nt1,1,2\nt2,2,1\n", "duplicate good id 'g1' in price table header (row 1, column 3)"),
    # a blank line is skipped but counted, so the row is the line of the file
    ("period,g1,g2\nt1,1,2\n\nt1,2,1\n", "duplicate period id 't1' in price table (row 4)"),
], ids=["underscore_numeral", "empty_good_id", "duplicate_good_id", "duplicate_period_id"])
def test_ambiguous_table_fails_before_any_output(tmp_path, capsys, prices, message):
    _, quantities = write_two_period(tmp_path)
    (tmp_path / "prices.csv").write_text(prices)
    out = tmp_path / "refused"
    code = main(["test", str(tmp_path / "prices.csv"), quantities, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert message in captured.err
    assert not out.exists()


def test_empty_period_id_fails_before_any_output(tmp_path, capsys):
    # both tables carry the same blank id, so their period labels agree and only the id can refuse them
    prices, quantities = tmp_path / "prices.csv", tmp_path / "quantities.csv"
    prices.write_text("period,g1,g2\nt1,1,2\n ,2,1\n")
    quantities.write_text("period,g1,g2\nt1,1,0\n ,0,1\n")
    out = tmp_path / "refused"
    code = main(["test", str(prices), str(quantities), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "empty period id in price table (row 3)" in captured.err
    assert not out.exists()


def test_workers_option_is_refused_before_any_output(tmp_path, capsys):
    prices, quantities = write_power_panel(tmp_path)
    runs = [["forecast", prices, quantities, "--size-trials", "10", "--seed", "1"],
            ["power", prices, quantities, "--trials", "10", "--seed", "1"],
            ["groups", prices, quantities, "--sizes", "2", "--samples", "1", "--seed", "1"]]
    for argv in runs:
        out = tmp_path / "refused"
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "--workers", "2", "--out", str(out)])
        captured = capsys.readouterr()
        assert exit_info.value.code == 2
        assert captured.out == ""
        assert "unrecognized arguments: --workers 2" in captured.err
        assert not out.exists()


def test_non_finite_new_price_fails_before_any_output(tmp_path, capsys):
    prices, quantities = write_two_period(tmp_path)
    out = tmp_path / "invalid"
    code = main(["forecast", prices, quantities, "--new-price", "nan,1", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "new price must be finite and strictly positive" in captured.err
    assert not out.exists()


def test_out_naming_an_existing_file_fails_before_any_output(tmp_path, capsys):
    prices, quantities = write_two_period(tmp_path)
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    for out in (afile, afile / "sub"):
        code = main(["test", prices, quantities, "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"{afile} is not a directory" in captured.err
        assert afile.read_text() == "kept\n"


def test_expenditure_without_new_price_fails_before_any_output(tmp_path, capsys):
    prices, quantities = write_power_panel(tmp_path)
    out = tmp_path / "fc"
    code = main(["forecast", prices, quantities, "--expenditure", "2", "--size-trials", "10",
                 "--seed", "1", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--expenditure needs --new-price" in captured.err
    assert not out.exists()


def test_replay_ignores_the_workers_key_of_older_manifests(tmp_path, capsys):
    prices, quantities = write_power_panel(tmp_path)
    direct = tmp_path / "direct"
    assert main(["power", prices, quantities, "--trials", "200", "--seed", "4", "--out", str(direct)]) == 0
    old = {"command": "power", "out_dir": str(tmp_path / "old"), "version": "0",
           "params": {"trials": 200, "seed": 4, "workers": 2, "positional": [prices, quantities]}}
    (tmp_path / "old.json").write_text(json.dumps(old))
    replayed = tmp_path / "replayed"
    assert main(["replay", str(tmp_path / "old.json"), "--out", str(replayed)]) == 0
    assert (replayed / "power.csv").read_bytes() == (direct / "power.csv").read_bytes()
    manifests = [json.loads((d / "manifest.json").read_text()) for d in (direct, replayed)]
    assert manifests[0]["params"] == manifests[1]["params"]
    assert "workers" not in manifests[1]["params"]
    capsys.readouterr()


def test_groups_without_a_valid_group_exit_two(tmp_path, capsys):
    # at epsilon 0 every pair of goods leaves some period with an all-zero demand row
    out = emit_fixture(tmp_path)
    capsys.readouterr()
    groups_out = tmp_path / "groups"
    code = main(["groups", str(out / "prices.csv"), str(out / "quantities.csv"),
                 "--sizes", "2", "--samples", "40", "--seed", "1", "--out", str(groups_out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "input error: no valid groups of size 2" in captured.err


def write_tree(tmp_path: Path, text: str) -> str:
    path = tmp_path / "tree.json"
    path.write_text(text)
    return str(path)


def write_random_panel(tmp_path: Path):
    """A panel that fails homotheticity at level 0.5."""
    _write_files(tmp_path, _panel_files(random_statistics(8, 3, seed=2)))
    return str(tmp_path / "prices.csv"), str(tmp_path / "quantities.csv")


def fixture_panel(tmp_path: Path):
    out = emit_fixture(tmp_path)
    return str(out / "prices.csv"), str(out / "quantities.csv")


TREE = {"name": "root", "goods": ["g4"], "children": [{"name": "ab", "goods": ["g1", "g2", "g3"]}]}

# command -> (arguments after the panel, manifest params other than the panel)
MANIFEST_CASES = {
    "test": ([], {"axiom": "both", "omega": 1.0, "tolerance": 0.0}),
    "indices": (["--omega", "1.5", "--tolerance", "0.001"], {"omega": 1.5, "tolerance": 0.001}),
    "irrationality": ([], {}),
    "forecast": (["--new-price", "1,1,1,1", "--expenditure", "2", "--size-trials", "50", "--seed", "3"],
                 {"omega": 1.0, "new_price": "1,1,1,1", "expenditure": 2.0, "size_trials": 50, "seed": 3}),
    "power": (["--trials", "50", "--seed", "3"], {"trials": 50, "seed": 3}),
    "groups": (["--sizes", "2,3", "--samples", "20", "--seed", "3"], {"sizes": "2,3", "samples": 20, "seed": 3}),
    "hierarchy": (["--tree", "TREE"], {"tree": "TREE", "omega": 1.0}),
}


@pytest.mark.parametrize("command", [*MANIFEST_CASES, "fixture", "fixture-inclusion"])
def test_manifest_lists_every_option_and_replays_every_file(tmp_path, command, capsys):
    if command.startswith("fixture"):
        extra = ["--check-inclusion"] if command == "fixture-inclusion" else []
        argv = ["fixture", "appendix2", "--epsilon", "0.25", *extra]
        expected = {"epsilon": 0.25, "check_inclusion": bool(extra), "positional": ["appendix2"]}
    else:
        panel = list(write_power_panel(tmp_path))
        tree = write_tree(tmp_path, json.dumps(TREE))
        extra, params = MANIFEST_CASES[command]
        argv = [command, *panel, *(tree if arg == "TREE" else arg for arg in extra)]
        expected = {key: tree if value == "TREE" else value for key, value in params.items()}
        expected["positional"] = panel
    run = tmp_path / "run"
    assert main([*argv, "--out", str(run)]) == 0
    manifest = json.loads((run / "manifest.json").read_text())
    assert manifest["command"] == argv[0]
    assert manifest["params"] == expected
    assert manifest["out_dir"] == str(run)
    replayed = tmp_path / "replayed"
    assert main(["replay", str(run / "manifest.json"), "--out", str(replayed)]) == 0
    names = sorted(path.name for path in run.iterdir())
    assert names == sorted(path.name for path in replayed.iterdir())
    assert len(names) > 1
    for name in names:
        if name != "manifest.json":
            assert (replayed / name).read_bytes() == (run / name).read_bytes(), name
    assert json.loads((replayed / "manifest.json").read_text())["params"] == expected
    capsys.readouterr()


# case -> (argv without --out, built in a scratch directory; exit code)
FAILING_RUNS = {
    "indices-inconsistent": (lambda d: ["indices", *write_two_period(d)], 1),
    "power-no-trials": (lambda d: ["power", *write_power_panel(d), "--trials", "0", "--seed", "1"], 2),
    "groups-size-above-goods": (
        lambda d: ["groups", *write_power_panel(d), "--sizes", "9", "--samples", "5", "--seed", "1"], 2),
    "forecast-negative-size-trials": (
        lambda d: ["forecast", *write_power_panel(d), "--size-trials", "-3", "--seed", "1"], 2),
    "forecast-size-trials-without-seed": (
        lambda d: ["forecast", *write_power_panel(d), "--size-trials", "10"], 2),
    "forecast-unparseable-new-price": (
        lambda d: ["forecast", *write_power_panel(d), "--new-price", "1,one,1,1"], 2),
    "hierarchy-truncated-tree": (
        lambda d: ["hierarchy", *write_power_panel(d), "--tree", write_tree(d, '{"name": "root", "goods": [')], 2),
    "hierarchy-missing-tree": (
        lambda d: ["hierarchy", *write_power_panel(d), "--tree", str(d / "missing.json")], 2),
    "groups-no-valid-group": (
        lambda d: ["groups", *fixture_panel(d), "--sizes", "2", "--samples", "40", "--seed", "1"], 2),
    "forecast-omega-below-one": (
        lambda d: ["forecast", *write_random_panel(d), "--omega", "0.5", "--new-price", "1,1,1"], 2),
}


@pytest.mark.parametrize("case", FAILING_RUNS)
def test_failed_command_leaves_no_output_directory(tmp_path, case, capsys):
    build, expected_code = FAILING_RUNS[case]
    argv = build(tmp_path)
    capsys.readouterr()
    out = tmp_path / "out"
    code = main([*argv, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == expected_code
    assert captured.out == ""
    assert captured.err != ""
    assert not out.exists()


@pytest.mark.parametrize("manifest", [
    "{}",
    "[1, 2]",
    '{"command": "power"}',
    '{"command": "power", "params": [1]}',
    '{"command": "power", "params": {"positional": 5}}',
    '{"command": "power", "params": {}, "out_dir": 5}',
    '{"command": "replay", "params": {"positional": ["manifest.json"]}}',  # a replay reruns a run, not a replay
])
def test_replay_of_a_malformed_manifest_is_an_input_error(tmp_path, monkeypatch, manifest, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "manifest.json").write_text(manifest)
    code = main(["replay", "manifest.json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "input error: manifest.json is not a run manifest" in captured.err
    assert [path.name for path in tmp_path.iterdir()] == ["manifest.json"]
