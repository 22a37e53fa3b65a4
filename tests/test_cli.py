import json
import math
import os
import pathlib
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np

import boltzq as bq
from boltzq import fileio
from boltzq.cli import main
from boltzq.errors import NumericFailureError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_process(*argv):
    """Run the CLI in a child process, so a hang fails the test after 60 s
    (subprocess.TimeoutExpired) instead of stalling the suite."""
    src = str(pathlib.Path(bq.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-m", "boltzq.cli", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=60)
    return done.returncode, done.stdout, done.stderr


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

    def test_malformed_game_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        code, _, err = run_cli(capsys, "classify", "--game", str(bad))
        assert code == 2
        assert "error" in err

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

    def test_infinite_fixed_max_exits_2(self):
        code, _, err = run_cli_process("critical", "--fixture",
                                       "dominant_coordination",
                                       "--fixed-max", "inf")
        assert code == 2
        assert "temperature must be finite and > 0" in err


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

    def test_not_applicable_maps_to_2(self, capsys):
        code = main(["critical", "--fixture", "matching_pennies",
                     "--fixed-min", "0.1", "--fixed-max", "1.0",
                     "--fixed-steps", "3"])
        assert code == 2
