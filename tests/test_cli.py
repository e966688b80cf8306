"""End-to-end checks of the command line interface."""

import csv
import importlib.resources
import json
import math

import jsonschema
import pytest

from pursuit import __version__, cli
from pursuit.bounds import chernoff_relative, g_eps, psi, zigzag
from pursuit.cli import main
from pursuit.graph import read_edge_list
from pursuit.models import gnp


def run(tmp_path, name, argv, fmt=None):
    """Invoke the CLI writing to a temp file, return the text."""
    out = tmp_path / name
    full = list(argv) + ["--out", str(out)]
    if fmt:
        full += ["--format", fmt]
    assert main(full) == 0
    return out.read_text()


def parse_csv(text):
    meta = [ln for ln in text.splitlines() if ln.startswith("#")]
    body = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    rows = list(csv.DictReader(body))
    return meta, rows


def load_schema():
    ref = importlib.resources.files("pursuit") / "schema" / "output.schema.json"
    return json.loads(ref.read_text())


class TestGen:
    def test_gnp_roundtrip(self, tmp_path):
        run(tmp_path, "g.edges", ["gen", "--model", "gnp", "--n", "40", "--p", "0.2", "--seed", "7"])
        g = read_edge_list(tmp_path / "g.edges")
        ref = gnp(40, 0.2, 7)
        assert g.n == ref.n
        assert sorted(map(tuple, g.edges().tolist())) == sorted(map(tuple, ref.edges().tolist()))

    def test_gen_deterministic(self, tmp_path):
        a = run(tmp_path, "a.edges", ["gen", "--model", "gnp", "--n", "30", "--p", "0.3", "--seed", "5"])
        b = run(tmp_path, "b.edges", ["gen", "--model", "gnp", "--n", "30", "--p", "0.3", "--seed", "5"])
        assert a == b

    def test_gnm_exact_edges(self, tmp_path):
        run(tmp_path, "m.edges", ["gen", "--model", "gnm", "--n", "25", "--m", "60", "--seed", "3"])
        g = read_edge_list(tmp_path / "m.edges")
        assert g.num_edges == 60

    def test_regular_degrees(self, tmp_path):
        run(tmp_path, "r.edges", ["gen", "--model", "regular", "--n", "20", "--d", "3", "--seed", "11"])
        g = read_edge_list(tmp_path / "r.edges")
        assert all(g.degree(v) == 3 for v in range(20))

    def test_gnp_missing_p(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["gen", "--model", "gnp", "--n", "10", "--out", str(tmp_path / "x")])

    def test_regular_rejects_fractional_degree(self, tmp_path):
        with pytest.raises(SystemExit, match="integer --d"):
            main(["gen", "--model", "regular", "--n", "10", "--d", "3.5",
                  "--out", str(tmp_path / "x")])
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("model, flags, message", [
        ("regular", ["--n", "5", "--d", "3"], "n\\*d must be even"),
        ("gnp", ["--n", "5", "--p", "1.5"], "p must be in"),
        ("gnm", ["--n", "5", "--m", "20"], "m must be in"),
        ("gnp", ["--n", "-5", "--p", "0.5"], "n must be non-negative"),
    ])
    def test_model_rejection_exits(self, tmp_path, model, flags, message):
        with pytest.raises(SystemExit, match=f"gen --model {model}: {message}"):
            main(["gen", "--model", model, *flags, "--out", str(tmp_path / "x")])
        assert not (tmp_path / "x").exists()


class TestExact:
    def test_petersen_json(self, tmp_path):
        text = run(tmp_path, "p.json", ["exact", "--graph", "petersen"], fmt="json")
        doc = json.loads(text)
        assert doc["command"] == "exact"
        assert doc["version"] == __version__
        assert doc["results"]["cop_number"] == 3
        assert doc["results"]["dismantlable"] is False
        assert doc["results"]["capture_time"] >= 1

    def test_path_is_copwin(self, tmp_path):
        doc = json.loads(run(tmp_path, "p5.json", ["exact", "--graph", "path-5"], fmt="json"))
        assert doc["results"]["cop_number"] == 1
        assert doc["results"]["dismantlable"] is True

    def test_csv_variant(self, tmp_path):
        text = run(tmp_path, "p.csv", ["exact", "--graph", "cycle-6"])
        meta, rows = parse_csv(text)
        assert rows[0]["cop_number"] == "2"

    def test_graph_file_input(self, tmp_path):
        run(tmp_path, "g.edges", ["gen", "--model", "gnp", "--n", "12", "--p", "0.5", "--seed", "2"])
        doc = json.loads(
            run(tmp_path, "gf.json", ["exact", "--graph-file", str(tmp_path / "g.edges")], fmt="json")
        )
        assert doc["results"]["n"] == 12

    def test_unknown_name(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["exact", "--graph", "moebius-7", "--out", str(tmp_path / "x")])

    @pytest.mark.parametrize("name, message", [
        ("path-abc", "bad graph name 'path-abc'"),
        ("grid-3x", "bad graph name 'grid-3x'"),
        ("cycle-2", "at least 3 vertices"),
        ("path-0", "no vertices"),
    ], ids=["path-abc", "grid-3x", "cycle-2", "path-0"])
    def test_bad_name_exits(self, tmp_path, name, message):
        with pytest.raises(SystemExit, match=message):
            main(["exact", "--graph", name, "--out", str(tmp_path / "x")])

    def test_empty_graph_file_exits(self, tmp_path):
        empty = tmp_path / "empty.edges"
        empty.write_text("0 0\n")
        with pytest.raises(SystemExit, match="no vertices"):
            main(["exact", "--graph-file", str(empty), "--out", str(tmp_path / "x")])

    def test_missing_graph_file_exits(self, tmp_path):
        with pytest.raises(SystemExit, match="bad graph file"):
            main(["exact", "--graph-file", str(tmp_path / "absent.edges"),
                  "--out", str(tmp_path / "x")])

    def test_graph_required(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["exact", "--out", str(tmp_path / "x")])

    def test_budget_exceeded_clean_exit(self, tmp_path):
        # cycle-20 at k=1 is 800 positions, k=2 is 8400: budget 1000
        # admits the losing k=1 level and must trip cleanly on k=2.
        with pytest.raises(SystemExit, match="exceed budget"):
            main(["exact", "--graph", "cycle-20", "--k-max", "2",
                  "--budget", "1000", "--out", str(tmp_path / "x")])


class TestSimulate:
    def test_dense_rows(self, tmp_path):
        text = run(
            tmp_path, "d.csv",
            ["simulate", "--regime", "dense", "--n", "200", "--trials", "3",
             "--seed", "1", "--horizon", "60"],
        )
        meta, rows = parse_csv(text)
        assert meta[0] == "# pursuit simulate"
        assert meta[1].startswith("# version=")
        assert meta[2].startswith("# params: ")
        assert len(rows) == 3
        for row in rows:
            assert row["captured"] in ("0", "1")
            assert int(row["cops_used"]) > 0

    def test_sparse_rows(self, tmp_path):
        text = run(
            tmp_path, "s.csv",
            ["simulate", "--regime", "sparse", "--n", "800", "--trials", "2",
             "--seed", "2", "--C", "16", "--horizon", "250"],
        )
        _, rows = parse_csv(text)
        assert len(rows) == 2
        for row in rows:
            assert row["error"] == "" or row["error"] is None or row["captured"] in ("0", "1")

    def test_rerun_byte_identical(self, tmp_path):
        argv = ["simulate", "--regime", "dense", "--n", "150", "--trials", "3",
                "--seed", "9", "--horizon", "50"]
        a = run(tmp_path, "a.csv", argv)
        b = run(tmp_path, "b.csv", argv)
        assert a == b

    def test_jobs_match_serial(self, tmp_path):
        # every TRIALS entry and scaling, through the pickled process pool
        for argv in (
            ["simulate", "--regime", "dense", "--n", "150", "--trials", "4",
             "--seed", "9", "--horizon", "50"],
            ["simulate", "--regime", "sparse", "--n", "300", "--trials", "3",
             "--seed", "9", "--C", "16", "--horizon", "60"],
            ["verify-expansion", "--regime", "dense", "--n", "200", "--trials", "3",
             "--count", "10", "--seed", "9"],
            ["verify-expansion", "--regime", "sparse", "--n", "300", "--trials", "3",
             "--count", "10", "--seed", "9"],
            ["scaling", "--sizes", "64,100", "--Cs", "1,8", "--trials", "2",
             "--seed", "9", "--horizon", "30"],
        ):
            serial = run(tmp_path, "s1.csv", argv)
            parallel = run(tmp_path, "s2.csv", argv + ["--jobs", "2"])
            assert serial == parallel, argv

    def test_json_envelope_and_schema(self, tmp_path):
        text = run(
            tmp_path, "d.json",
            ["simulate", "--regime", "dense", "--n", "150", "--trials", "2",
             "--seed", "3", "--horizon", "50"],
            fmt="json",
        )
        doc = json.loads(text)
        jsonschema.validate(doc, load_schema())
        assert doc["params"]["trials"] == 2
        assert len(doc["results"]) == 2


class TestVerifyExpansion:
    def test_dense(self, tmp_path):
        text = run(
            tmp_path, "vd.csv",
            ["verify-expansion", "--regime", "dense", "--n", "400", "--trials", "2",
             "--count", "25", "--seed", "4"],
        )
        _, rows = parse_csv(text)
        assert len(rows) == 2
        for row in rows:
            # ratio checks may be skipped per probe, never more than asked
            assert int(row["checked"]) == 25
            assert 0 <= int(row["skipped"]) <= 25
            assert row["passed"] in ("0", "1")

    def test_sparse(self, tmp_path):
        text = run(
            tmp_path, "vs.csv",
            ["verify-expansion", "--regime", "sparse", "--n", "600", "--trials", "1",
             "--count", "20", "--seed", "5"],
        )
        _, rows = parse_csv(text)
        row = rows[0]
        assert int(row["upper_checked"]) > 0
        assert int(row["witnesses_emitted"]) >= int(row["witnesses_ok"])
        assert int(row["witness_verify_errors"]) == 0

    def test_sparse_json_schema(self, tmp_path):
        text = run(
            tmp_path, "vs.json",
            ["verify-expansion", "--regime", "sparse", "--n", "500", "--trials", "1",
             "--count", "10", "--seed", "6"],
            fmt="json",
        )
        jsonschema.validate(json.loads(text), load_schema())

    @pytest.mark.parametrize("flags", [
        ["--eps", "0.5", "--delta", "0.1"],
        ["--eps", "1.5"],
        ["--delta", "0"],
    ])
    def test_sparse_rejects_eps_delta_before_the_graph(self, tmp_path, monkeypatch, flags):
        def forbidden(*args):
            raise AssertionError("graph built before the check")

        monkeypatch.setattr(cli, "gnp", forbidden)
        with pytest.raises(SystemExit, match=r"needs 0 < --eps <= 1 and 0 < --delta < --eps/6, got --eps"):
            main(["verify-expansion", "--regime", "sparse", "--n", "400", "--d", "8",
                  "--trials", "1", "--count", "15", *flags, "--out", str(tmp_path / "x")])
        assert not (tmp_path / "x").exists()


class TestBounds:
    def test_relative(self, tmp_path):
        doc = json.loads(
            run(tmp_path, "b.json",
                ["bounds", "--kind", "relative", "--mean", "50", "--dev-eps", "0.2"],
                fmt="json")
        )
        assert doc["results"]["value"] == pytest.approx(chernoff_relative(50, 0.2).value)

    def test_psi(self, tmp_path):
        doc = json.loads(
            run(tmp_path, "psi.json", ["bounds", "--kind", "psi", "--x", "-1"], fmt="json")
        )
        assert doc["results"]["value"] == pytest.approx(psi(-1.0))

    def test_geps(self, tmp_path):
        doc = json.loads(
            run(tmp_path, "g.json", ["bounds", "--kind", "geps", "--eps", "0.6"], fmt="json")
        )
        assert doc["results"]["value"] == pytest.approx(g_eps(0.6))

    def test_csv_form(self, tmp_path):
        text = run(tmp_path, "b.csv", ["bounds", "--kind", "additive", "--n", "100", "--p", "0.5", "--a", "10"])
        _, rows = parse_csv(text)
        assert float(rows[0]["value"]) <= 2.0

    @pytest.mark.parametrize("kind, flags", [
        ("relative", "--mean --dev-eps"),
        ("additive", "--n --p --a"),
        ("lower", "--mean --t"),
        ("bernstein", "--mean --x"),
        ("psi", "--x"),
        ("feps", "--eps --x"),
        ("geps", "--eps"),
    ])
    def test_missing_flag_exits(self, tmp_path, kind, flags):
        # --x alone leaves bernstein and feps one flag short and the rest
        # none given; psi, which needs only --x, gets nothing
        given = ["--x", "1"] if kind != "psi" else []
        with pytest.raises(SystemExit, match=f"^bounds --kind {kind} needs {flags}$"):
            main(["bounds", "--kind", kind, *given, "--out", str(tmp_path / "x")])
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("argv, message", [
        (["relative", "--mean", "5", "--dev-eps", "2"], r"dev_eps must lie in \(0, 3/2\)"),
        (["additive", "--n", "0", "--p", "0.5", "--a", "1"], "n must be positive"),
        (["lower", "--mean", "5", "--t", "6"], r"t must lie in \[0, mean\]"),
        (["bernstein", "--mean", "5", "--x", "-1"], "x must be non-negative"),
        (["psi", "--x", "-2"], "psi is defined for x >= -1"),
        (["feps", "--eps", "0.6", "--x", "2"], r"x must be in \(0, 1/eps\]"),
        (["geps", "--eps", "0"], r"eps must be in \(0, 1\]"),
    ])
    def test_rejected_value_exits(self, tmp_path, argv, message):
        with pytest.raises(SystemExit, match=f"^bounds --kind {argv[0]}: {message}$"):
            main(["bounds", "--kind", *argv, "--out", str(tmp_path / "x")])
        assert not (tmp_path / "x").exists()


class TestZigzag:
    def test_single_point(self, tmp_path):
        text = run(tmp_path, "z.csv", ["zigzag", "--x", "0.25"])
        _, rows = parse_csv(text)
        assert float(rows[0]["value"]) == pytest.approx(zigzag(0.25))

    def test_grid(self, tmp_path):
        text = run(tmp_path, "zg.csv", ["zigzag", "--points", "8"])
        _, rows = parse_csv(text)
        assert len(rows) == 8
        for row in rows:
            assert float(row["value"]) == pytest.approx(zigzag(float(row["x"])))

    def test_json_schema(self, tmp_path):
        text = run(tmp_path, "z.json", ["zigzag", "--points", "5"], fmt="json")
        jsonschema.validate(json.loads(text), load_schema())

    def test_rejected_x_exits(self, tmp_path):
        with pytest.raises(SystemExit, match=r"^zigzag: x must be in \(0, 1\]$"):
            main(["zigzag", "--x", "2", "--out", str(tmp_path / "x")])
        assert not (tmp_path / "x").exists()


class TestScaling:
    def test_single_size(self, tmp_path):
        text = run(
            tmp_path, "sc.csv",
            ["scaling", "--sizes", "64", "--Cs", "8", "--trials", "2",
             "--target", "0.0", "--seed", "1", "--horizon", "40"],
        )
        _, rows = parse_csv(text)
        assert len(rows) == 1
        row = rows[0]
        assert row["chosen"] == "1"
        assert float(row["ratio_to_sqrt_n"]) == pytest.approx(
            float(row["mean_cops"]) / math.sqrt(64)
        )


class TestSmallN:
    """The p rule d/(n-1) dense, d/n sparse needs n >= 2 dense, n >= 1 sparse."""

    @pytest.mark.parametrize("argv", [
        ["simulate", "--regime", "dense", "--n", "1"],
        ["simulate", "--regime", "dense", "--n", "0"],
        ["simulate", "--regime", "sparse", "--n", "0"],
        ["verify-expansion", "--regime", "dense", "--n", "1"],
        ["verify-expansion", "--regime", "sparse", "--n", "0"],
    ])
    def test_trial_commands_reject_n(self, tmp_path, argv):
        with pytest.raises(SystemExit, match="needs --n >= "):
            main(argv + ["--out", str(tmp_path / "x")])
        assert not (tmp_path / "x").exists()

    def test_scaling_rejects_sizes(self, tmp_path):
        with pytest.raises(SystemExit, match="--sizes entry >= 2"):
            main(["scaling", "--sizes", "64,1", "--Cs", "1", "--out", str(tmp_path / "x")])
        assert not (tmp_path / "x").exists()

    def test_sparse_n1_reports_the_schedule(self, tmp_path):
        _, rows = parse_csv(run(tmp_path, "s.csv",
                                ["simulate", "--regime", "sparse", "--n", "1", "--trials", "1"]))
        assert rows[0]["error"] == "schedule: schedule needs d >= 2"
        assert rows[0]["captured"] == "0"


class TestConfig:
    def test_config_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("trials=2\nseed=5\n# comment\n")
        text = run(
            tmp_path, "c.csv",
            ["simulate", "--regime", "dense", "--n", "150", "--horizon", "50",
             "--config", str(cfg)],
        )
        _, rows = parse_csv(text)
        assert len(rows) == 2

    def test_cli_overrides_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("trials=5\n")
        text = run(
            tmp_path, "o.csv",
            ["simulate", "--regime", "dense", "--n", "150", "--horizon", "50",
             "--trials", "1", "--config", str(cfg)],
        )
        _, rows = parse_csv(text)
        assert len(rows) == 1

    def test_malformed_config(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("trials\n")
        with pytest.raises(SystemExit):
            main(["simulate", "--regime", "dense", "--n", "100",
                  "--config", str(cfg), "--out", str(tmp_path / "x")])


class TestParser:
    def test_no_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_stdout_default(self, capsys):
        assert main(["zigzag", "--x", "0.5"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# pursuit zigzag")

    def test_params_line_sorted(self, tmp_path):
        text = run(tmp_path, "ps.csv", ["zigzag", "--points", "4"])
        params_line = [ln for ln in text.splitlines() if ln.startswith("# params: ")][0]
        keys = [tok.split("=")[0] for tok in params_line[len("# params: "):].split()]
        assert keys == sorted(keys)
