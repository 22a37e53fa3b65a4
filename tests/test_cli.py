import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import boltzq as bq
from boltzq import fileio
from boltzq.cli import main
from boltzq.errors import NumericFailureError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_child(*args):
    """Run Python in a child process that imports this boltzq, so a hang
    fails the test after 60 s (subprocess.TimeoutExpired) instead of
    stalling the suite."""
    src = str(pathlib.Path(bq.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=env,
                          timeout=60)
    return done.returncode, done.stdout, done.stderr


def run_cli_process(*argv):
    return run_child("-m", "boltzq.cli", *argv)


#: game files whose payoffs are not grids of numbers, each with a valid
#: grid in the other matrix (``tools/output_digests.py`` reads them)
MALFORMED_PAYOFFS = [
    {"name": "f", "A": 5, "B": [[1, 2], [3, 4]]},
    {"name": "f", "A": [[1, 2], [3, 4]], "B": [None, [3, 4]]},
    {"name": "f", "A": [[1, 2], [3, 4]], "B": [[1, 2], 3]},
    {"name": "f", "A": [[1, 10 ** 400], [3, 4]], "B": [[1, 2], [3, 4]]},
]


class TestClassifyCommand:
    def test_matching_pennies_region(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--fixture",
                               "matching_pennies")
        assert code == 0
        payload = json.loads(out)
        assert payload["region"]["label"] == "SingleRestPointOnly"
        assert payload["risk_dominant"] == "not_applicable"
        assert payload["nash_equilibria"] == [
            {"x": 0.5, "y": 0.5, "kind": "mixed"}]

    def test_stag_hunt_region_and_risk(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--fixture", "stag_hunt")
        assert code == 0
        payload = json.loads(out)
        assert payload["region"]["label"] == "MultiNE_TriplePossible"
        assert payload["risk_dominant"] == {"x": 1.0, "y": 1.0}

    def test_hawk_dove_times_two_to_the_fifteen(self, tmp_path):
        # the payoffs' scale changes no equilibrium; the mixed one's
        # deviation gains round at about 1e-11 here
        payoffs = [[-65536.0, 65536.0], [0.0, 32768.0]]
        path = tmp_path / "hawk_dove_2_15.json"
        path.write_text(json.dumps({"name": "hawk_dove_2_15", "A": payoffs,
                                    "B": payoffs}))
        code, out, err = run_cli_process("classify", "--game", str(path))
        assert code == 0, err
        _, unit, _ = run_cli_process("classify", "--fixture", "hawk_dove")
        found = json.loads(out)["nash_equilibria"]
        assert len(found) == 3
        assert found == json.loads(unit)["nash_equilibria"]

    def test_corner_bound_at_a_subnormal_tail(self, capsys, tmp_path):
        # d/c = -1e-315: the bound's tail is subnormal
        path = tmp_path / "subnormal.json"
        path.write_text(json.dumps({"name": "subnormal",
                                    "A": [[0, -0.1], [1.1, 0]],
                                    "B": [[0, -1e-315], [1, 0]]}))
        code, out, _ = run_cli(capsys, "classify", "--game", str(path))
        assert code == 0
        region = json.loads(out)["region"]
        assert region["boundary"] == pytest.approx(-160.50525207266189,
                                                   rel=1e-14)

    def test_malformed_game_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        code, _, err = run_cli(capsys, "classify", "--game", str(bad))
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("data", MALFORMED_PAYOFFS,
                             ids=["scalar_a", "null_row", "scalar_row",
                                  "huge_int"])
    def test_payoffs_that_are_not_a_grid_exit_2(self, tmp_path, capsys, data):
        path = tmp_path / "f.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "classify", "--game", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: payoff entries are not numeric")
        assert err.count("\n") == 1

    def test_wrong_dimension_exits_2(self, tmp_path, capsys):
        big = tmp_path / "big.json"
        big.write_text(json.dumps({"name": "g3",
                                   "A": np.eye(3).tolist(),
                                   "B": np.eye(3).tolist()}))
        code, _, _ = run_cli(capsys, "classify", "--game", str(big))
        assert code == 2

    def test_overflowing_payoffs_exit_2(self, tmp_path, capsys):
        huge = tmp_path / "huge.json"
        rows = [[1e308, -1e308], [-1e308, 1e308]]
        huge.write_text(json.dumps({"name": "huge", "A": rows, "B": rows}))
        code, _, err = run_cli(capsys, "classify", "--game", str(huge))
        assert code == 2
        assert "finite" in err

    def test_missing_game_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "classify")
        assert code == 2

    def test_game_and_fixture_together_exit_2(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(bq.fixture("stag_hunt").to_dict()))
        code, out, err = run_cli(capsys, "classify", "--game", str(path),
                                 "--fixture", "stag_hunt")
        assert (code, out) == (2, "")
        assert err == "error: pass either --game or --fixture, not both\n"


class TestSimulateCommand:
    def test_trajectory_round_trips(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        code, _, _ = run_cli(capsys, "simulate", "--fixture",
                             "matching_pennies", "--x0", "0.9", "--y0", "0.1",
                             "--out", str(out))
        assert code == 0
        rows = fileio.parse_trajectory_csv(out.read_text())
        t_end, x_end, y_end = rows[-1]
        assert abs(x_end - 0.5) < 1e-6 and abs(y_end - 0.5) < 1e-6
        # 17 significant digits round-trip exactly
        again = fileio.parse_trajectory_csv(
            fileio.trajectory_csv(bq.integrate(
                (0.9, 0.1), bq.reduce_payoffs(bq.fixture("matching_pennies"),
                                              bq.Temperatures(1, 1)))))
        assert again == rows

    def test_nan_horizon_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--fixture", "stag_hunt",
                               "--t-max", "nan")
        assert code == 2 and "max_time" in err

    def test_start_at_rest_point_single_row(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        code, _, _ = run_cli(capsys, "simulate", "--fixture",
                             "matching_pennies", "--x0", "0.5", "--y0", "0.5",
                             "--out", str(out))
        assert code == 0
        assert len(fileio.parse_trajectory_csv(out.read_text())) == 1

    @pytest.mark.parametrize("text,line", [
        ("t,x,y\n1,2\n", 2),
        ("t,x,y\n0,0.5,0.5\n1,2,3,4\n", 3),
        ("t,x,y\n0,0.5,nope\n", 2),
        ("x,y\n0,0.5\n", 1),
    ])
    def test_bad_trajectory_csv_names_the_line(self, text, line):
        with pytest.raises(bq.DomainError, match=f"line {line} "):
            fileio.parse_trajectory_csv(text)

    def test_multistart_terminals_identical(self, tmp_path, capsys):
        out = tmp_path / "terminals.csv"
        code, _, _ = run_cli(capsys, "simulate", "--fixture",
                             "prisoners_dilemma", "--starts", "100",
                             "--seed", "7", "--out", str(out))
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "start_x,start_y,x,y"
        finals = np.array([[float(v) for v in ln.split(",")[2:]]
                           for ln in lines[1:]])
        assert finals.shape == (100, 2)
        spread = finals.max(axis=0) - finals.min(axis=0)
        assert np.max(spread) < 1e-6

    def test_seeded_runs_byte_identical(self, tmp_path, capsys):
        paths = []
        for tag in ("a", "b"):
            out = tmp_path / f"{tag}.csv"
            run_cli(capsys, "simulate", "--fixture", "prisoners_dilemma",
                    "--starts", "12", "--seed", "99", "--out", str(out))
            paths.append(out.read_bytes())
        assert paths[0] == paths[1]


class TestAgentsCommand:
    def test_trace_and_sidecar(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        code, _, _ = run_cli(capsys, "agents", "--fixture",
                             "matching_pennies", "--rounds", "300",
                             "--batch", "25", "--seed", "4",
                             "--record-every", "50", "--out", str(out))
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "round,x,y"
        assert lines[1].startswith("0,0.5,0.5")
        meta = json.loads((tmp_path / "trace.csv.meta.json").read_text())
        assert meta["seed"] == 4
        assert meta["batch"] == 25
        assert meta["generator"] == bq.GENERATOR_ID
        assert meta["temps"] == [1.0, 1.0]

    def test_byte_identical_for_same_seed(self, tmp_path, capsys):
        blobs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{tag}.csv"
            run_cli(capsys, "agents", "--fixture", "stag_hunt",
                    "--rounds", "200", "--batch", "10", "--seed", "21",
                    "--out", str(out))
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]


class TestRestpointsCommand:
    def test_report_schema(self, capsys):
        code, out, _ = run_cli(capsys, "restpoints", "--fixture", "stag_hunt",
                               "--tx", "0.5", "--ty", "0.5")
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 3
        for entry in payload:
            assert set(entry) == {"x", "y", "u", "v", "eig", "stability",
                                  "residual"}
            assert len(entry["eig"]) == 2
            assert entry["residual"] < 1e-10
        assert payload[1]["stability"] == "saddle_unstable"


class TestSweepCommand:
    def test_csv_and_summary(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code, _, err = run_cli(capsys, "sweep", "--fixture", "stag_hunt",
                               "--t-min", "0.3", "--t-max", "1.5",
                               "--steps", "40", "--out", str(out))
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "T,x,y,stability,branch_id"
        summary = json.loads(err.strip().splitlines()[-1])
        assert summary["pitchfork_kind"] == "discontinuous"
        assert len(summary["critical_temperatures"]) == 1
        # three-branch region below the critical temperature, one above
        t_c = summary["critical_temperatures"][0]
        rows = [ln.split(",") for ln in lines[1:]]
        below = {r[4] for r in rows if float(r[0]) < t_c - 0.05}
        above = {r[4] for r in rows if float(r[0]) > t_c + 0.05}
        assert len(below) == 3
        assert len(above) == 1


class TestCriticalCommand:
    def test_window_csv_with_empty_fields(self, tmp_path, capsys):
        out = tmp_path / "critical.csv"
        code, _, err = run_cli(capsys, "critical", "--fixture",
                               "dominant_coordination",
                               "--fixed-min", "0.001", "--fixed-max", "1.5",
                               "--fixed-steps", "6", "--out", str(out))
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "T_fixed,Tc_minus,Tc_plus"
        first = lines[1].split(",")
        assert float(first[1]) < float(first[2])
        last = lines[-1].split(",")
        assert last[1] == "" and last[2] == ""
        summary = json.loads(err.strip().splitlines()[-1])
        assert 0.9 < summary["closing_temperature"] < 1.1

    def test_open_windows_print_zero_lower_end(self, capsys):
        # stag hunt has three rest points all the way down to tx -> 0
        code, out, _ = run_cli(capsys, "critical", "--fixture", "stag_hunt")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert len(rows) == 12
        for _, lo, hi in rows:
            assert lo == "0" and float(hi) > 0.0

    def test_infinite_fixed_max_exits_2(self):
        code, _, err = run_cli_process("critical", "--fixture",
                                       "dominant_coordination",
                                       "--fixed-max", "inf")
        assert code == 2
        assert "temperature must be finite and > 0" in err

    @pytest.mark.parametrize("flag", ["--fixed-min", "--fixed-max"])
    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    def test_bad_grid_end_exits_2(self, flag, value):
        code, out, err = run_cli_process("critical", "--fixture", "stag_hunt",
                                         flag, value)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "Traceback" not in err and "Warning" not in err


class TestPortraitCommand:
    def test_svg_parses_and_basins_split(self, tmp_path, capsys):
        svg_path = tmp_path / "portrait.svg"
        csv_path = tmp_path / "portrait.csv"
        code, _, _ = run_cli(capsys, "portrait", "--fixture", "stag_hunt",
                             "--tx", "0.5", "--ty", "0.5", "--grid", "5",
                             "--out", str(svg_path), "--csv", str(csv_path))
        assert code == 0
        root = ET.parse(svg_path).getroot()
        assert root.tag.endswith("svg")
        polylines = [el for el in root.iter()
                     if el.tag.endswith("polyline")]
        assert len(polylines) == 25
        # trajectories split between the two stable basins
        rows = csv_path.read_text().strip().splitlines()[1:]
        finals = {}
        for row in rows:
            idx, _, x, y = row.split(",")
            finals[idx] = (float(x), float(y))
        pts = bq.find_rest_points(bq.reduce_payoffs(
            bq.fixture("stag_hunt"), bq.Temperatures(0.5, 0.5)))
        stable = [p for p in pts if p.stability != "saddle_unstable"]
        count = {0: 0, 1: 0}
        for x, y in finals.values():
            dists = [math.hypot(x - p.x, y - p.y) for p in stable]
            assert min(dists) < 1e-4
            count[dists.index(min(dists))] += 1
        assert count[0] > 0 and count[1] > 0

    @pytest.mark.parametrize("title", [
        "plain", "a & b", "<tag>", "x<y>z&&", "&amp; stays escaped once",
        "'single' and \"double\" quotes", "Nash–Gleichgewicht μ ≥ 0 ☃", ""])
    def test_escape_matches_saxutils(self, title):
        from xml.sax.saxutils import escape

        from boltzq import svg
        assert svg.escape(title) == escape(title)

    # md5 of ``portrait --fixture NAME --grid 3`` as written while the
    # title was escaped by xml.sax.saxutils
    @pytest.mark.parametrize("name, md5", [
        ("battle_coordination", "bb03275117d1f7393cd1aea1211e99e5"),
        ("dominant_coordination", "7487d13e91b90416bfce34e326e098f7"),
        ("hawk_dove", "62a0dc1f4af011424d7f85e2c031c36a"),
        ("matching_pennies", "73258f91bc81bf94bd9ced9c635efe29"),
        ("prisoners_dilemma", "8868d686462ea54564256bf72c0125fc"),
        ("stag_hunt", "277c29c00c127394d39af9d2817f2e35"),
    ])
    def test_fixture_svgs_unchanged(self, capsys, name, md5):
        code, out, _ = run_cli(capsys, "portrait", "--fixture", name,
                               "--grid", "3")
        assert code == 0
        assert hashlib.md5(out.encode()).hexdigest() == md5


class TestExitCodes:
    def test_numeric_failure_maps_to_3(self, capsys, monkeypatch):
        # the parser binds command functions at build time inside main(),
        # so patching the module attribute reroutes dispatch
        import boltzq.cli as cli

        def boom(args):
            raise NumericFailureError("synthetic blow-up")

        monkeypatch.setattr(cli, "cmd_classify", boom)
        code = cli.main(["classify", "--fixture", "matching_pennies"])
        assert code == 3
        assert "numeric failure" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag, value", [
        ("portrait", "--grid", "-1"), ("portrait", "--grid", "0"),
        ("simulate", "--starts", "0"), ("simulate", "--starts", "-1"),
        ("critical", "--fixed-steps", "-2"), ("critical", "--fixed-steps", "0"),
    ])
    def test_counts_below_one_exit_2(self, command, flag, value):
        code, out, err = run_cli_process(command, "--fixture", "stag_hunt",
                                         flag, value)
        assert "Traceback" not in err
        assert (code, out) == (2, "")
        assert err == f"error: {flag} must be >= 1, got {value}\n"

    @pytest.mark.parametrize("argv, name", [
        (["simulate", "--starts", "2"], "--seed"), (["agents"], "seed"),
    ], ids=["simulate", "agents"])
    def test_negative_seed_exits_2(self, capsys, argv, name):
        code, out, err = run_cli(capsys, *argv, "--fixture", "stag_hunt",
                                 "--seed", "-1")
        assert (code, out) == (2, "")
        assert err == f"error: {name} must be >= 0, got -1\n"

    @pytest.mark.parametrize("command", ["sweep", "critical"])
    @pytest.mark.parametrize("flag", ["--tx", "--ty"])
    def test_sweep_and_critical_take_no_temperatures(self, capsys, command,
                                                     flag):
        # they choose their own temperatures, so the flags would be ignored
        with pytest.raises(SystemExit) as exc:
            main([command, "--fixture", "stag_hunt", flag, "0.3"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 0.3" in capsys.readouterr().err

    def test_not_applicable_maps_to_2(self, capsys):
        code = main(["critical", "--fixture", "matching_pennies",
                     "--fixed-min", "0.1", "--fixed-max", "1.0",
                     "--fixed-steps", "3"])
        assert code == 2


#: the first calls of ``perfbench``'s ``region_atlas`` setup child
REGION_ATLAS_SETUP = (
    "c = bq.reduce_payoffs(bq.fixture('stag_hunt'), bq.Temperatures(0.5, 0.5))\n"
    "bq.classify_region(c)\n"
    "bq.find_rest_points(c)\n")
#: a corner-quadrant region, whose bound comes from the bifurcation module
CORNER_REGION = (
    "assert 'boltzq.bifurcation' not in sys.modules\n"
    "g = bq.Game.from_matrices('corner', [[0, -0.1], [1.1, 0]],\n"
    "                          [[0, -0.5], [1, 0]])\n"
    "r = bq.classify_region(bq.reduce_payoffs(g, bq.Temperatures(1, 1)))\n"
    "assert r.label is bq.GameRegionLabel.NUMERIC_BOUNDARY\n")
#: the boltzq modules, beyond the package and its errors, that a region and
#: its rest points load, and that every CLI command loads
REGION_MODULES = {"fixtures", "games", "numerics", "restpoints"}
CLI_MODULES = {"fileio", "fixtures", "games", "numerics"}
#: each CLI command, the boltzq modules it loads beyond CLI_MODULES, and
#: whether it loads decimal (for geomspace)
CLI_LOADS = [
    (["classify", "--fixture", "stag_hunt"], set(), False),
    (["restpoints", "--fixture", "stag_hunt"], {"restpoints"}, False),
    (["sweep", "--fixture", "stag_hunt", "--steps", "5"],
     {"bifurcation", "restpoints"}, True),
    (["critical", "--fixture", "stag_hunt", "--fixed-steps", "3"],
     {"bifurcation", "restpoints"}, True),
    (["simulate", "--fixture", "stag_hunt"], {"dynamics", "restpoints"},
     False),
    (["portrait", "--fixture", "stag_hunt", "--grid", "2"],
     {"dynamics", "restpoints", "svg"}, False),
    (["agents", "--fixture", "stag_hunt", "--rounds", "10"],
     {"dynamics", "simulate"}, False),
]


class TestRuntimeImports:
    def test_import_and_restpoints_load_no_scipy(self):
        # scipy is a test-only oracle; `import boltzq` and a CLI run in a
        # fresh interpreter must not pull in any of its modules
        script = (
            "import runpy, sys\n"
            "import boltzq\n"
            "sys.argv = ['boltzq.cli', 'restpoints',\n"
            "            '--fixture', 'stag_hunt']\n"
            "try:\n"
            "    runpy.run_module('boltzq.cli', run_name='__main__')\n"
            "except SystemExit as exc:\n"
            "    assert not exc.code, exc.code\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.partition('.')[0] == 'scipy'))\n")
        code, out, err = run_child("-c", script)
        assert code == 0, err
        *report, loaded = out.splitlines()
        assert json.loads("\n".join(report))  # the rest points
        assert loaded == "[]"

    @pytest.mark.parametrize("argv", [
        [], ["restpoints", "--fixture", "stag_hunt"],
        ["classify", "--fixture", "stag_hunt"],
        ["sweep", "--fixture", "stag_hunt"],
        ["critical", "--fixture", "stag_hunt"],
    ], ids=["import", "restpoints", "classify", "sweep", "critical"])
    def test_scalar_commands_load_no_numpy(self, argv):
        # `import boltzq` and the scalar commands, in a fresh interpreter,
        # load no numpy and none of what xml.sax.saxutils pulls in; the
        # modules the interpreter loaded before boltzq do not count
        script = (
            "import runpy, sys\n"
            "before = set(sys.modules)\n"
            "import boltzq\n"
            f"argv = {argv!r}\n"
            "if argv:\n"
            "    sys.argv = ['boltzq.cli', *argv]\n"
            "    try:\n"
            "        runpy.run_module('boltzq.cli', run_name='__main__')\n"
            "    except SystemExit as exc:\n"
            "        assert not exc.code, exc.code\n"
            "print(sorted(m for m in set(sys.modules) - before\n"
            "             if m.partition('.')[0] in ('numpy', 'urllib')\n"
            "             or m == 'xml.sax' or m.startswith('xml.sax.')))\n")
        code, out, err = run_child("-c", script)
        assert code == 0, err
        assert out.splitlines()[-1] == "[]"

    @pytest.mark.parametrize("calls, loads, json_loads, decimal_loads", [
        ("", set(), False, False),
        (REGION_ATLAS_SETUP, REGION_MODULES, False, False),
        (REGION_ATLAS_SETUP + CORNER_REGION,
         REGION_MODULES | {"bifurcation"}, False, False),
        *((f"cli({argv!r})", CLI_MODULES | extra, True, decimal)
          for argv, extra, decimal in CLI_LOADS),
    ], ids=["import", "region_atlas_setup", "corner_region",
            *(argv[0] for argv, _, _ in CLI_LOADS)])
    def test_each_entry_loads_only_what_it_calls(self, calls, loads,
                                                 json_loads, decimal_loads):
        # in a fresh interpreter, `import boltzq` then the entry's calls
        # load exactly these boltzq modules beyond the package and its
        # errors; json and decimal load only with the code that uses them
        script = (
            "import runpy, sys\n"
            "before = set(sys.modules)\n"
            "import boltzq as bq\n"
            "def cli(argv):\n"
            "    sys.argv = ['boltzq.cli', *argv]\n"
            "    try:\n"
            "        runpy.run_module('boltzq.cli', run_name='__main__')\n"
            "    except SystemExit as exc:\n"
            "        assert not exc.code, exc.code\n"
            f"{calls}\n"
            "new = set(sys.modules) - before\n"
            "print(sorted(m for m in new if m.startswith('boltzq.')),\n"
            "      'json' in new, 'decimal' in new)\n")
        code, out, err = run_child("-c", script)
        assert code == 0, err
        expected = sorted(f"boltzq.{m}" for m in {"errors", *loads})
        assert out.splitlines()[-1] == (
            f"{expected} {json_loads} {decimal_loads}")

    def test_every_submodule_resolves(self):
        # before any lookup, dir() lists every lazy name and submodule;
        # each submodule attribute then imports that submodule
        script = (
            "import sys\n"
            "import boltzq as bq\n"
            "subs = sorted(set(bq._LAZY.values()))\n"
            "assert {*bq.__all__, *subs} <= set(dir(bq))\n"
            "for sub in subs:\n"
            "    assert getattr(bq, sub) is sys.modules['boltzq.' + sub]\n"
            "print(*subs)\n")
        code, out, err = run_child("-c", script)
        assert code == 0, err
        assert out.split() == ["bifurcation", "dynamics", "fixtures", "games",
                               "restpoints", "simulate"]

    def test_integrate_loads_numpy_on_first_use(self):
        script = (
            "import sys\n"
            "import boltzq as bq\n"
            "assert 'numpy' not in sys.modules\n"
            "assert 'integrate' not in vars(bq)\n"
            "coeffs = bq.reduce_payoffs(bq.fixture('stag_hunt'),\n"
            "                           bq.Temperatures(0.5, 0.5))\n"
            "traj = bq.integrate((0.2, 0.7), coeffs)\n"
            "assert 'numpy' in sys.modules\n"
            "assert vars(bq)['integrate'] is bq.dynamics.integrate\n"
            "assert 'boltzq.simulate' not in sys.modules\n"
            "assert bq.simulate.run_two_agents is bq.run_two_agents\n"
            "print(traj.terminal_reason)\n")
        code, out, err = run_child("-c", script)
        assert code == 0, err
        assert out == "converged\n"

    def test_every_public_name_resolves(self):
        script = (
            "import boltzq as bq\n"
            "names = {}\n"
            "exec('from boltzq import *', names)\n"
            "assert set(bq.__all__) <= set(names), set(bq.__all__) - set(names)\n"
            "assert all(names[n] is getattr(bq, n) for n in bq.__all__)\n"
            "assert set(bq.__all__) <= set(dir(bq))\n"
            "print(len(bq.__all__))\n")
        code, out, err = run_child("-c", script)
        assert code == 0, err
        assert int(out) == len(bq.__all__)
        with pytest.raises(AttributeError, match="no_such_name"):
            bq.no_such_name
