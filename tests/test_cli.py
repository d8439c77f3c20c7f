import cmath
import csv
import json
import math
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from camscat.cli import build_parser, main

BS_MEDIUM = {
    "r0": 0.5, "R": 2.0,
    "V": {"kind": "step", "params": [0.3], "support": [0.5, 2.0]},
    "B": {"kind": "bump", "flux_over_2pi": 0.3, "support": [0.8, 1.6]},
}
ZERO_MEDIUM = {"r0": 0.5, "R": 2.0, "V": {"kind": "zero"}, "B": {"kind": "zero"}}
AB_MEDIUM = {
    "r0": 0.5, "R": 0.45, "V": {"kind": "zero"},
    "B": {"kind": "bump", "flux_over_2pi": 0.5, "support": [0.1, 0.4]},
}


@pytest.fixture()
def medium_file(tmp_path):
    def write(doc, name="m.json"):
        p = tmp_path / name
        p.write_text(json.dumps(doc))
        return str(p)
    return write


class TestDirect:
    def test_zero_medium_matches_free_shifts(self, medium_file, tmp_path):
        from camscat.scattering import sigma_free
        out = tmp_path / "t.csv"
        code = main(["direct", "--medium", medium_file(ZERO_MEDIUM),
                     "--lmax", "6", "--out", str(out)])
        assert code == 0
        rows = list(csv.DictReader(open(out)))
        assert [int(r["l"]) for r in rows] == list(range(-6, 7))
        for r in rows:
            l = int(r["l"])
            got = complex(float(r["re_sigma"]), float(r["im_sigma"]))
            assert abs(got - sigma_free(l, 0.0, 0.5)) <= 1e-8
            # delta solves sigma = e^{2 i delta}
            assert abs(got - cmath.exp(2j * float(r["delta"]))) <= 1e-8

    def test_flux_only_medium_tails(self, medium_file, tmp_path, capsys):
        out = tmp_path / "ab.csv"
        code = main(["direct", "--medium", medium_file(AB_MEDIUM),
                     "--lmax", "20", "--out", str(out)])
        assert code == 0
        rows = {int(r["l"]): r for r in csv.DictReader(open(out))}
        # 2 delta -> +- pi gamma mod 2pi along the two tails
        up = 2 * float(rows[20]["delta"]) % (2 * math.pi)
        dn = 2 * float(rows[-20]["delta"]) % (2 * math.pi)
        assert abs(up - math.pi * 0.5) <= 0.05 or abs(up - math.pi * 0.5 - 2 * math.pi) <= 0.05
        assert abs(dn - (2 * math.pi - math.pi * 0.5)) <= 0.05

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["direct", "--medium", str(bad), "--lmax", "2",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path):
        code = main(["direct", "--medium", str(tmp_path / "nope.json"),
                     "--lmax", "2", "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_lmax_cap_exits_2(self, medium_file, tmp_path):
        code = main(["direct", "--medium", medium_file(ZERO_MEDIUM),
                     "--lmax", "70", "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_json_format(self, medium_file, tmp_path):
        out = tmp_path / "t.json"
        code = main(["direct", "--medium", medium_file(ZERO_MEDIUM),
                     "--lmax", "3", "--format", "json", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["schema_version"] == 1
        assert len(doc["records"]) == 7

    def test_determinism_and_thread_invariance(self, medium_file, tmp_path):
        m = medium_file(BS_MEDIUM)
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            code = main(["direct", "--medium", m, "--lmax", "8", "--out", str(out)])
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]          # identical runs: byte-identical


class TestFlux:
    def test_recovers_flux(self, medium_file, capsys):
        code = main(["flux", "--medium", medium_file(BS_MEDIUM),
                     "--lmax", "40", "--rtol", "1e-10"])
        assert code == 0
        line = capsys.readouterr().out.splitlines()[0]
        val = float(line.split("=")[1])
        assert abs(val - 0.3) <= 1e-3

    def test_tail_only_estimate(self, medium_file, tmp_path, capsys):
        out = tmp_path / "f.json"
        code = main(["flux", "--medium", medium_file(BS_MEDIUM),
                     "--lmax", "40", "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[0] == \
            "flux_over_2pi (mod 2) = 0.300000000"
        assert json.loads(out.read_text())["l_used"] == list(range(31, 41))

    def test_unsettled_tail_exits_2(self, medium_file, capsys):
        # R = 20: sigma(l) has not reached its limit at l = 20..29
        wide = {"r0": 0.01, "R": 20.0,
                "V": {"kind": "step", "params": [0.3], "support": [0.01, 20.0]},
                "B": {"kind": "bump", "flux_over_2pi": 2.5, "support": [1.0, 12.0]}}
        assert main(["flux", "--medium", medium_file(wide), "--lmax", "29"]) == 2
        assert "has not reached its limit" in capsys.readouterr().err


class TestCamScan:
    def test_scan_grid(self, medium_file, tmp_path):
        out = tmp_path / "scan.json"
        code = main(["cam-scan", "--medium", medium_file(ZERO_MEDIUM),
                     "--scan", "0.5:2.5:3,-1:1:3", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc["points"]) == 9

    def test_bad_scan_spec_exits_2(self, medium_file, tmp_path):
        code = main(["cam-scan", "--medium", medium_file(ZERO_MEDIUM),
                     "--scan", "oops", "--out", str(tmp_path / "s.json")])
        assert code == 2


class TestDiscriminate:
    def test_identical_media(self, medium_file, tmp_path, capsys):
        m = medium_file(ZERO_MEDIUM)
        out = tmp_path / "d.csv"
        code = main(["discriminate", "--medium", m, "--medium-b", m,
                     "--lmax", "40", "--rtol", "1e-10", "--out", str(out)])
        assert code == 0
        assert "identical" in capsys.readouterr().out

    def test_distinct_same_flux(self, medium_file, tmp_path, capsys):
        a = medium_file(ZERO_MEDIUM, "a.json")
        b = medium_file({**ZERO_MEDIUM,
                         "V": {"kind": "step", "params": [0.5],
                               "support": [0.5, 2.0]}}, "b.json")
        out = tmp_path / "d.csv"
        code = main(["discriminate", "--medium", a, "--medium-b", b,
                     "--lmax", "40", "--rtol", "1e-10", "--out", str(out)])
        assert code == 0
        assert "distinct" in capsys.readouterr().out

    def test_flux_mismatch_exits_4(self, medium_file, tmp_path, capsys):
        a = medium_file(ZERO_MEDIUM, "a.json")
        b = medium_file(BS_MEDIUM, "b.json")
        code = main(["discriminate", "--medium", a, "--medium-b", b,
                     "--lmax", "40", "--rtol", "1e-10",
                     "--out", str(tmp_path / "d.csv")])
        assert code == 4
        err = capsys.readouterr()
        assert "flux" in err.err or "flux" in err.out


class TestArgumentChecks:
    """Bad --lmax / --scan / --out exit 2 before any solve."""

    @pytest.mark.parametrize("argv", [
        ["direct", "--lmax", "-3", "--out", "x.csv"],
        ["flux", "--lmax", "-3"],
        ["direct", "--lmax", "70", "--out", "x.csv"],
        ["flux", "--lmax", "70"],
        ["discriminate", "--lmax", "70", "--out", "F.csv"],
        ["flux", "--lmax", "28"],
        ["discriminate", "--lmax", "28", "--out", "F.csv"],
        ["cam-scan", "--scan", "0:70:3,0:0:1", "--out", "s.json"],
        ["cam-scan", "--scan", "0:1:0,0:1:3", "--out", "s.json"],
        ["cam-scan", "--scan", "0:1:3,0:1:0", "--out", "s.json"],
        ["direct", "--out", "missing/x.csv"],
        ["cam-scan", "--scan", "1:2:2,0:0:1", "--out", "missing/s.json"],
        ["flux", "--out", "missing/f.json"],
        ["discriminate", "--out", "missing/F.csv"],
        ["verify", "--out", "missing/v.json"],
    ])
    def test_exits_2_without_solving(self, argv, medium_file, tmp_path,
                                      monkeypatch, capsys):
        import camscat.cli as cli

        def no_solve(*args, **kwargs):
            raise AssertionError("a solve ran before the argument check")

        for name in ("phase_shifts", "cam_scan", "run_verification"):
            monkeypatch.setattr(cli, name, no_solve)
        monkeypatch.chdir(tmp_path)
        m = medium_file(BS_MEDIUM)
        extra = ["--medium-b", m] if argv[0] == "discriminate" else []
        code = main(argv[:1] + ["--medium", m] + extra + argv[1:])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

    def test_tail_fraction_is_not_an_option(self, medium_file, capsys):
        code = main(["flux", "--medium", medium_file(BS_MEDIUM),
                     "--tail-fraction", "nan"])
        assert code == 2
        assert "unrecognized arguments: --tail-fraction" in capsys.readouterr().err

    def test_medium_beyond_bessel_window_exits_2(self, medium_file, tmp_path,
                                                 monkeypatch, capsys):
        import camscat.cli as cli

        def no_solve(*args, **kwargs):
            raise AssertionError("a solve ran before the medium check")

        monkeypatch.setattr(cli, "phase_shifts", no_solve)
        doc = dict(BS_MEDIUM, R=25.0)
        code = main(["direct", "--medium", medium_file(doc),
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "R_MAX" in capsys.readouterr().err

    def test_grid_is_not_an_option(self, medium_file, tmp_path, monkeypatch, capsys):
        # the discriminator's grid follows from the two media
        monkeypatch.chdir(tmp_path)
        m = medium_file(BS_MEDIUM)
        code = main(["discriminate", "--medium", m, "--medium-b", m,
                     "--grid", "1024", "--out", "F.csv"])
        assert code == 2
        assert "unrecognized arguments: --grid" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["direct", "cam-scan", "flux", "discriminate"])
    @pytest.mark.parametrize("rtol", ["2", "1", "0", "-1e-11", "nan", "inf"])
    def test_bad_rtol_exits_2_without_solving(self, command, rtol, medium_file,
                                               tmp_path, monkeypatch, capsys):
        import camscat.cli as cli

        def no_solve(*args, **kwargs):
            raise AssertionError("a solve ran before the --rtol check")

        for name in ("phase_shifts", "cam_scan", "discriminator_F"):
            monkeypatch.setattr(cli, name, no_solve)
        monkeypatch.chdir(tmp_path)
        m = medium_file(BS_MEDIUM)
        extra = {"direct": ["--out", "x.csv"],
                 "cam-scan": ["--scan", "1:2:2,0:0:1", "--out", "s.json"],
                 "flux": [],
                 "discriminate": ["--medium-b", m, "--out", "F.csv"]}[command]
        code = main([command, "--medium", m, f"--rtol={rtol}"] + extra)
        assert code == 2
        assert "configuration error: rtol" in capsys.readouterr().err


class TestVerify:
    def test_default_reference_passes(self, capsys):
        code = main(["verify"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 7

    def test_full_profile_reference_passes(self, capsys):
        code = main(["verify", "--full"])
        assert code == 0
        assert capsys.readouterr().out.count("[PASS]") == 7

    def test_zero_medium_passes(self, medium_file):
        code = main(["verify", "--medium", medium_file(ZERO_MEDIUM)])
        assert code == 0

    def test_corrupted_tolerance_fails(self, medium_file, capsys):
        code = main(["verify", "--medium", medium_file(ZERO_MEDIUM),
                     "--tol", "wronskian=1e-30"])
        assert code == 1
        assert "[FAIL] wronskian" in capsys.readouterr().out

    def test_unknown_tolerance_group_exits_2(self):
        assert main(["verify", "--tol", "nonsense=1"]) == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_bad_tolerance_value_exits_2_without_running(self, value, monkeypatch,
                                                         capsys):
        import camscat.cli as cli

        def no_run(*args, **kwargs):
            raise AssertionError("a group ran before the --tol check")

        monkeypatch.setattr(cli, "run_verification", no_run)
        assert main(["verify", "--tol", f"wronskian={value}"]) == 2
        assert "configuration error: tolerance" in capsys.readouterr().err

    def test_report_file(self, tmp_path):
        out = tmp_path / "verify.json"
        code = main(["verify", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc["groups"]) == 7
        assert all(g["pass"] for g in doc["groups"])


class TestBessel:
    def test_point_evaluation(self, capsys):
        code = main(["bessel", "--nu", "0.5", "--r", "1.0"])
        assert code == 0
        out = capsys.readouterr().out
        fields = {ln.split()[0]: (float(ln.split()[1]), float(ln.split()[2]))
                  for ln in out.splitlines()}
        # J_{1/2}(1) = sqrt(2/pi) sin(1)
        assert abs(fields["J"][0] - math.sqrt(2 / math.pi) * math.sin(1.0)) <= 1e-10

    def test_gamma_mode(self, capsys):
        code = main(["bessel", "--nu", "3", "--gamma"])
        assert code == 0
        out = capsys.readouterr().out
        assert float(out.split()[1]) == pytest.approx(2.0, rel=1e-12)

    def test_bad_order_exits_2(self):
        assert main(["bessel", "--nu", "zzz"]) == 2

    @pytest.mark.parametrize("argv", [
        ["--nu", "1", "--r", "25"],
        ["--nu", "1", "--r", "0"],
        ["--nu", "100", "--r", "1"],
        ["--gamma", "--nu", "0"],
        ["--gamma", "--nu", "-3"],
    ], ids=["r_beyond_window", "r_zero", "order_beyond_cap", "gamma_pole_0",
            "gamma_pole_-3"])
    def test_out_of_domain_input_exits_2(self, argv, capsys):
        assert main(["bessel"] + argv) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_series_overflow_exits_2(self, capsys):
        assert main(["bessel", "--nu", "59", "--r", "1e-8"]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "radius 1e-08" in err
        assert main(["bessel", "--nu", "30", "--r", "1e-8"]) == 0
        values = [float(x) for ln in capsys.readouterr().out.splitlines()
                  for x in ln.split()[1:]]
        assert len(values) == 14 and all(math.isfinite(v) for v in values)


def test_module_entry_point(tmp_path):
    doc = tmp_path / "m.json"
    doc.write_text(json.dumps(ZERO_MEDIUM))
    proc = subprocess.run(
        [sys.executable, "-m", "camscat", "direct", "--medium", str(doc),
         "--lmax", "2", "--out", str(tmp_path / "o.csv")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "flux_over_2pi" in proc.stdout


def test_readme_cli_lines_parse():
    # Every command line in README's CLI block must be accepted by the parser,
    # with optional [brackets] taken as given and trailing comments dropped.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [ln for ln in block.splitlines() if ln.startswith("camscat ")]
    assert len(lines) >= 6
    parser = build_parser()
    for ln in lines:
        argv = shlex.split(ln.replace("[", "").replace("]", ""), comments=True)
        parser.parse_args(argv[1:])


def test_readme_quick_start_runs(capsys):
    # README's library quick start runs as written and prints the flux estimate
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Library quick start", 1)[1].split("```python", 1)[1]
    exec(block.split("```", 1)[0], {})
    assert abs(float(capsys.readouterr().out) - 0.3) <= 1e-6
