import json
import math

import mpmath
import numpy as np
import pytest

import fracspec as fs
from fracspec import cli
from fracspec.cli import ingest_signal, main, read_signal_csv, run, write_signal_csv


def file_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestIngest:
    def test_synthetic_gaussian(self):
        sig = ingest_signal('{"gaussian": {"width": 1}, "N": 1024, "T": 12}')
        assert sig.n == 1024
        assert np.isclose(sig.dt, 24.0 / 1023)
        assert np.isclose(sig.samples[512].real, np.exp(-sig.t_grid[512] ** 2 / 2))

    def test_csv_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        t = np.linspace(-1, 1, 64)
        vals = rng.normal(size=64) + 1j * rng.normal(size=64)
        path = tmp_path / "sig.csv"
        write_signal_csv(path, t, vals)
        sig = read_signal_csv(path)
        assert np.array_equal(sig.samples, vals)
        path2 = tmp_path / "sig2.csv"
        write_signal_csv(path2, sig.t_grid, sig.samples)
        assert file_bytes(path) == file_bytes(path2)

    def test_jittered_grid_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,re,im\n0.0,1.0,0.0\n0.1,1.0,0.0\n0.25,1.0,0.0\n")
        with pytest.raises(fs.NonUniformGrid):
            read_signal_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(fs.MalformedCSV):
            read_signal_csv(path)


    def test_one_row_file(self, tmp_path, capsys):
        path = tmp_path / "one.csv"
        path.write_text("t,re,im\n0.0,1.0,0.0\n")
        assert exit_code(["frft", "--alpha", "1.0", "--input", str(path),
                          "--output", str(tmp_path / "out")]) == 2
        assert "at least 2 samples" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    def test_header_only_file_warns_nothing(self, tmp_path):
        # the refusal is the only message: np.loadtxt's "input contained no
        # data" UserWarning used to precede it on stderr
        import os
        import subprocess
        import sys
        path = tmp_path / "hdr.csv"
        path.write_text("t,re,im\n")
        src = os.path.dirname(os.path.dirname(fs.__file__))
        proc = subprocess.run([sys.executable, "-m", "fracspec.cli", "frft", "--alpha", "1.0",
                               "--input", str(path), "--output", str(tmp_path / "out")],
                              capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 2
        assert proc.stderr == "error: signal file needs at least 2 samples\n"
        assert not (tmp_path / "out.csv").exists()

    def test_non_finite_field_rejected(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("t,re,im\n0.0,1.0,0.0\n0.1,nan,0.0\n0.2,1.0,0.0\n")
        with pytest.raises(fs.MalformedCSV):
            read_signal_csv(path)
        assert exit_code(["frft", "--alpha", "1.0", "--input", str(path),
                          "--output", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("times", [(1.0, 1.0, 1.0), (2.0, 1.0, 0.0)])
    def test_time_column_not_increasing(self, tmp_path, capsys, times):
        # a malformed file (exit 2), not a usage error about a t0 and dt
        # the user never gave
        path = tmp_path / "flat.csv"
        path.write_text("t,re,im\n" + "".join(f"{t},1.0,0.0\n" for t in times))
        with pytest.raises(fs.MalformedCSV, match="time column t"):
            read_signal_csv(path)
        assert exit_code(["frft", "--alpha", "1.0", "--input", str(path),
                          "--output", str(tmp_path / "out")]) == 2
        assert "time column t is not strictly increasing" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()


SYNTH = '{"gaussian": {"width": 1}, "N": 512, "T": 8}'


def exit_code(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code


class TestUsageErrors:
    def test_empty_x_axis(self, tmp_path):
        # an empty axis is a usage error, not a header-only CSV
        out = tmp_path / "empty"
        assert exit_code(["frst", "--alpha", "1.0", "--window", "hermite1",
                          "--input", SYNTH, "--x=-1:1:0", "--output", str(out)]) == 1
        assert not (tmp_path / "empty.csv").exists()

    def test_single_point_xi_axis(self, tmp_path):
        # one xi point per sign is a usage error, caught before any numerics
        assert exit_code(["invert", "--transform", "frst", "--alpha", "1.0",
                          "--window", "mexican-hat", "--psi", "modulated:dog:6:-1.1883951057781212",
                          "--input", SYNTH, "--xi", "0.5:2:1",
                          "--output", str(tmp_path / "inv")]) == 1

    def test_invert_frst_needs_psi(self, tmp_path, capsys):
        # C_{g,g,c2} diverges for every unmodulated library window, so the
        # synthesis window is asked for, not defaulted to the analysis window
        args = ["invert", "--transform", "frst", "--alpha", "1.0", "--window", "hermite1",
                "--input", SYNTH, "--output", str(tmp_path / "inv")]
        assert exit_code(args) == 1
        assert "--psi required with --transform frst" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())
        # the window's own name keeps psi = g: its divergent constant is refused
        assert exit_code(args + ["--psi", "hermite1"]) == 2
        assert "C_gpsi[hermite1,hermite1]" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd, window", [("frst", "hermite1"), ("frwt", "mexican-hat")])
    def test_decreasing_x_axis_refused_before_the_kernel(self, tmp_path, monkeypatch,
                                                          cmd, window):
        def kernel(*args):
            raise AssertionError("the grid kernel ran on a bad axis")

        monkeypatch.setattr(fs.frst, "_correlate", kernel)
        monkeypatch.setattr(fs.frwt, "_correlate", kernel)
        assert exit_code([cmd, "--alpha", "1.0", "--window", window, "--input", SYNTH,
                          "--x=2:-2:4", "--output", str(tmp_path / "g")]) == 1
        assert not (tmp_path / "g.csv").exists()

    @pytest.mark.parametrize("cmd", [["frst", "--window", "hermite1"],
                                     ["frwt", "--window", "mexican-hat"],
                                     ["invert", "--transform", "frwt", "--window", "mexican-hat"]])
    @pytest.mark.parametrize("spec", ["0:4:8", "-1:4:8"])
    def test_non_positive_log_xi_bound(self, tmp_path, monkeypatch, cmd, spec):
        # refused before any log or kernel runs (the suite makes
        # RuntimeWarnings errors, so a log of a non-positive bound fails here)
        def kernel(*args):
            raise AssertionError("the grid kernel ran on a bad axis")

        monkeypatch.setattr(fs.frst, "_correlate", kernel)
        monkeypatch.setattr(fs.frwt, "_correlate", kernel)
        assert exit_code(cmd + ["--alpha", "1.0", "--input", SYNTH, f"--xi={spec}",
                                "--output", str(tmp_path / "g")]) == 1
        assert not (tmp_path / "g.csv").exists()

    def test_non_finite_axis_bound(self, tmp_path):
        assert exit_code(["frft", "--alpha", "1.0", "--input", SYNTH, "--xi=nan:1:5",
                          "--output", str(tmp_path / "f")]) == 1
        assert not (tmp_path / "f.csv").exists()

    @pytest.mark.parametrize("spec", [
        '{"gaussian": {"width": 1}, "N": 1, "T": 8}',
        '{"gaussian": {"width": 0}, "N": 64, "T": 8}',
        '{"gaussian": 1, "N": 64, "T": 8}',
        '{"gaussian": {"width": 1}, "N": 64, "T": NaN}',
        '{"gaussian": {"width": null}, "N": 64, "T": 4}',
        '{"gaussian": {"width": 1}, "N": null, "T": 4}',
        '{"gaussian": {"width": 1}, "N": 64, "T": [4]}',
        '{"gaussian": {"width": true}, "N": 64, "T": 4}',
        '{"gaussian": {"width": 1}, "N": 64.7, "T": 4}',
    ])
    def test_bad_synthetic_spec(self, tmp_path, spec):
        assert exit_code(["frft", "--alpha", "1.0", "--input", spec,
                          "--output", str(tmp_path / "f")]) == 1

    @pytest.mark.parametrize("argv, spec", [
        (["frft", "--xi=a"], "'a'"),
        (["frft", "--xi=1:2:x"], "'1:2:x'"),
        (["bridge", "--window", "hermite1", "--points=-1:1:2"], "'-1:1:2'"),
        (["bridge", "--window", "hermite1", "--points=-1:1:2x0.5:1:2x3"],
         "'-1:1:2x0.5:1:2x3'"),
    ])
    def test_malformed_axis_spec_names_its_form(self, tmp_path, capsys, argv, spec):
        assert exit_code(argv + ["--alpha", "1.0", "--input", SYNTH,
                                 "--output", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert spec in err
        assert ("lo:hi:nxlo:hi:m" if argv[0] == "bridge" else "lo:hi:n") in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("dist", [
        '{"kind":"delta","terms":[[0,1.5,1.0]]}',
        '{"kind":"delta","terms":[[0,-1,1.0]]}',
        '{"kind":"delta","terms":[[NaN,1,1.0]]}',
        '{"kind":"delta","terms":[[0,1,[NaN,0]]]}',
        '{"kind":"homogeneous","pattern":"abs","degree":NaN}',
        '{"kind":"delta","terms":[[0,null,1.0]]}',
        '{"kind":"delta","terms":5}',
        '{"kind":"homogeneous","pattern":"abs","degree":"x"}',
        '{"kind":"delta","terms":[[0,"1",1.0]]}',
        '{"kind":"delta","terms":[[0,true,1.0]]}',
        '{"kind":"delta","terms":[["0.5",1,[1,2]]]}',
        '{"kind":"delta","terms":[[0.5,1,["1",2]]]}',
        '{"kind":"homogeneous","pattern":"abs","degree":"0.5"}',
        '{"kind":"delta","terms":[[0,1,[]]]}',
        '{"kind":"delta","terms":[[0,1,[2.0]]]}',
        '[1, 2]',
        '{"kind":"homogeneous","pattern":"abs","degree":0.5,"log_power":2}',
        '{"kind":"homogeneous","pattern":"abs","degree":0.5,"log_power":-1}',
        '{"kind":"homogeneous","pattern":"abs","degree":0.5,"log_power":0.5}',
        '{"kind":"homogeneous","pattern":"abs","degree":0.5,"log_power":1.0}',
        '{"kind":"homogeneous","pattern":"abs","degree":0.5,"log_power":true}',
        '{"kind":"homogeneous","pattern":"abs","degree":0.5,"log_power":"1"}',
        '{"kind":"homogeneous","pattern":"abs","degree":0.5,"log_power":null}',
        '{"kind":"homogeneous","pattern":"both","degree":0.5}',
    ])
    def test_bad_descriptor(self, tmp_path, dist):
        assert exit_code(["verify", "rez1", "--alpha", "1.0472", "--window", "hermite1",
                          "--dist", dist, "--output", str(tmp_path / "v")]) == 1
        assert not (tmp_path / "v.report.json").exists()

    @pytest.mark.parametrize("degree", ["nan", "inf", "-inf"])
    def test_non_finite_degree(self, tmp_path, degree):
        assert exit_code(["verify", "rez1", "--alpha", "1.0472", "--window", "hermite1",
                          "--dist", '{"kind":"delta","terms":[[0,0,1.0]]}',
                          f"--degree={degree}", "--output", str(tmp_path / "v")]) == 1
        assert not (tmp_path / "v.report.json").exists()

    @pytest.mark.parametrize("window, code", [
        ("gauss:inf", 1), ("gauss:nan", 1), ("modulated:hermite1:nan", 1),
        ("modulated:hermite1:inf", 1), ("dilated:hermite1:nan", 1),
        ("dilated:hermite1:inf", 1), ("dilated:gauss:inf", 1), ("gauss:0", 2),
        ("dog:9", 1),
    ])
    def test_bad_window_parameter(self, tmp_path, window, code):
        # non-finite widths, carriers and dilation factors, and a
        # derivative-of-Gaussian order outside 1..8, are usage errors; a zero
        # width stays NonPositiveScale, a numerical error
        assert exit_code(["verify", "rez1", "--alpha", "1.0", "--window", window,
                          "--dist", '{"kind":"delta","terms":[[0,0,1.0]]}',
                          "--output", str(tmp_path / "v")]) == code
        assert not (tmp_path / "v.report.json").exists()

    def test_delta_order_above_cap(self, tmp_path):
        # delta^(5) exceeds MAX_DERIVATIVE_ORDER: a numerical error, no report
        assert exit_code(["verify", "rez1", "--alpha", "1.0", "--window", "hermite1",
                          "--dist", '{"kind":"delta","terms":[[0,5,1]]}',
                          "--output", str(tmp_path / "v")]) == 2
        assert not (tmp_path / "v.report.json").exists()

    @pytest.mark.parametrize("alpha", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("argv", [
        ["frft", "--input", SYNTH],
        ["frst", "--window", "hermite1", "--input", SYNTH],
        ["verify", "rez1", "--window", "hermite1", "--dist", '{"kind":"delta","terms":[[0,0,1.0]]}'],
    ])
    def test_non_finite_alpha(self, tmp_path, argv, alpha):
        out = tmp_path / "o"
        assert exit_code(argv + [f"--alpha={alpha}", "--output", str(out)]) == 1
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        [],                                                       # no command
        ["verify", "rez1", "--alpha", "1"],                       # missing --window, --dist
        ["frft", "--alpha", "1", "--input", SYNTH, "--bogus"],    # unknown option
        ["verify", "rez1", "--alpha", "1", "--window", "hermite1",
         "--dist", "{}", "--degree", "-inf"],                     # -inf read as an option
    ])
    def test_argparse_usage_errors(self, argv, capsys):
        # argparse's own errors are usage errors too; exit 2 means numerical
        assert exit_code(argv) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]])
    def test_help_exits_zero(self, argv, capsys):
        assert exit_code(argv) == 0
        assert "usage:" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["invert", "--transform", "frwt", "--alpha", "1.5707963", "--window", "mexican-hat",
         "--input", SYNTH, "--tolerance=nan"],
        ["bridge", "--alpha", "1.0472", "--window", "hermite1", "--input", SYNTH,
         "--tolerance=nan"],
        ["verify", "rez1", "--alpha", "1.0472", "--window", "hermite1",
         "--dist", '{"kind":"delta","terms":[[0,0,1.0]]}', "--slope-tol=nan"],
        ["verify", "rez1", "--alpha", "1.0472", "--window", "hermite1",
         "--dist", '{"kind":"delta","terms":[[0,0,1.0]]}', "--ratio-tol=-0.1"],
    ])
    def test_gate_tolerance_not_nan_nor_negative(self, tmp_path, argv, capsys):
        # a NaN gate would compare false and pass (or fail) whatever the value
        assert exit_code(argv + ["--output", str(tmp_path / "o")]) == 1
        assert "tolerance must be >= 0 or inf" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_infinite_gate_tolerance_turns_the_gate_off(self, tmp_path):
        argv = ["verify", "rez1", "--alpha", "1.0472", "--window", "hermite1",
                "--dist", '{"kind":"delta","terms":[[0,0,1.0]]}', "--output", str(tmp_path / "o")]
        assert run(argv + ["--slope-tol=0", "--ratio-tol=0"]) == 3
        assert run(argv + ["--slope-tol=inf", "--ratio-tol=inf"]) == 0

    def test_te1_nan_bound_exponent(self, tmp_path, capsys):
        # s must exceed 1; NaN does not, so it is refused as s = 0.5 is
        assert exit_code(["verify", "te1", "--alpha", "1.0472", "--window", "hermite1",
                          "--dist", '{"kind":"delta","terms":[[0,0,1.0]]}', "--s=nan",
                          "--output", str(tmp_path / "te1")]) == 2
        assert "s > 1, got nan" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("c2", ["0", "nan", "inf", "-inf"])
    def test_degenerate_c2(self, tmp_path, c2):
        assert exit_code(["admissibility", "--window", "mexican-hat", "--psi",
                          "modulated:dog:6:-1.0", f"--c2={c2}",
                          "--output", str(tmp_path / "adm")]) == 1
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("k, p, code", [("-1", "0", 1), ("0", "-1", 1), ("0", "5", 2)])
    def test_bad_seminorm_index(self, tmp_path, k, p, code):
        assert exit_code(["seminorm", "--window", "gauss", "--k", k, "--p", p,
                          "--output", str(tmp_path / "rho")]) == code

    def test_seminorm_weight_beyond_the_grid(self, tmp_path, capsys):
        # the supremum of x^400 g(x) lies far outside the probe grid (and
        # overflows it): refused, not written as a truncated value or Infinity
        assert exit_code(["seminorm", "--window", "hermite1", "--k", "400", "--p", "0",
                          "--output", str(tmp_path / "rho")]) == 1
        assert "exceeds 64" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_empty_delta_comb_needs_a_degree(self, tmp_path, capsys):
        argv = ["verify", "rez1", "--alpha", "1.0", "--window", "hermite1",
                "--dist", '{"kind":"delta","terms":[]}', "--output", str(tmp_path / "v")]
        assert exit_code(argv) == 1
        err = capsys.readouterr().err
        assert "empty delta comb" in err and "--degree" in err
        assert not list(tmp_path.iterdir())
        # given a degree, the zero distribution has no leading term to fit
        assert exit_code(argv + ["--degree", "-1"]) == 4


class TestCommands:
    def test_frst_zero_operator(self, tmp_path):
        out = tmp_path / "zero"
        code = run(["frst", "--alpha", "0", "--window", "gauss-unit",
                    "--input", SYNTH, "--x=-2:2:9", "--xi", "0.5:2:6",
                    "--output", str(out)])
        assert code == 0
        grid = fs.grid_from_csv(f"{out}.csv", f"{out}.meta.json")
        assert np.all(grid.values == 0)
        assert grid.meta["transform"] == "FRST"

    def test_frwt_matches_forward(self, tmp_path):
        out = tmp_path / "wt"
        code = run(["frwt", "--alpha", "1.2", "--window", "mexican-hat",
                    "--input", SYNTH, "--x=-3:3:7", "--xi", "0.5:2:4",
                    "--output", str(out)])
        assert code == 0
        grid = fs.grid_from_csv(f"{out}.csv", f"{out}.meta.json")
        want = fs.frwt_forward(fs.make_frac_param(1.2), fs.mexican_hat_window(),
                               ingest_signal(SYNTH), np.linspace(-3, 3, 7),
                               fs.positive_log_xi_axis(0.5, 2, 4))
        assert np.array_equal(grid.x_axis, want.x_axis)
        assert np.array_equal(grid.xi_axis, want.xi_axis)
        assert np.array_equal(grid.values, want.values)
        assert grid.meta == want.meta == {
            "transform": "FRWT", "alpha": 1.2, "window": "mexican-hat",
            "kernel": {"route": "spectral", "t_sum": "chirp-z", "x_sum": "chirp-z",
                       "periods": [32.0]}}

    def test_frst_window_carrier_counts_in_sampling_check(self, tmp_path):
        # the carrier aliases on the 512-sample signal: a numerical error
        assert exit_code(["frst", "--alpha", "1.5707963", "--window",
                          "modulated:hermite1:1e6", "--input", SYNTH,
                          "--output", str(tmp_path / "g")]) == 2

    def test_frst_singular_angle_usage_error(self, tmp_path):
        code = run(["frst", "--alpha", "3.14159265", "--window", "gauss-unit",
                    "--input", SYNTH, "--output", str(tmp_path / "x")])
        assert code == 1

    def test_frft_writes_signal_csv(self, tmp_path):
        out = tmp_path / "f"
        code = run(["frft", "--alpha", "1.5707963267948966", "--input",
                    '{"gaussian": {"width": 1}, "N": 1024, "T": 12}',
                    "--xi=-4:4:81", "--output", str(out)])
        assert code == 0
        sig = read_signal_csv(f"{out}.csv")
        xi = sig.t_grid
        assert np.max(np.abs(sig.samples - np.exp(-xi ** 2 / 2))) < 1e-6

    def test_verify_te3_delta(self, tmp_path):
        out = tmp_path / "te3"
        code = run(["verify", "te3", "--alpha", "1.0472", "--window", "hermite1",
                    "--dist", '{"kind":"delta","terms":[[0,0,1.0]]}',
                    "--output", str(out)])
        assert code == 0
        rep = json.loads((tmp_path / "te3.report.json").read_text())
        assert rep["verdict"] == "pass"
        assert abs(np.mean(rep["fitted_exponent"]) + 0.5) < 0.05

    def test_verify_te1(self, tmp_path):
        out = tmp_path / "te1"
        code = run(["verify", "te1", "--alpha", "1.0472", "--window", "hermite1",
                    "--dist", '{"kind":"delta","terms":[[0,0,1.0]]}',
                    "--output", str(out)])
        assert code == 0

    def test_verify_te1_sqrt_abs_reaches_a_verdict(self, tmp_path, capsys):
        # every cell of te1's lattice on |x|^1/2 pairs in closed form; the
        # hypotheses fail (16 cells do not converge, ROADMAP item 4)
        out = tmp_path / "te1"
        assert exit_code(["verify", "te1", "--alpha", "1.0472", "--window", "hermite1",
                          "--dist", '{"kind":"homogeneous","pattern":"abs","degree":0.5}',
                          "--output", str(out)]) == 3
        assert "te1 hypotheses: fail (converged 64/80" in capsys.readouterr().out
        rep = json.loads((tmp_path / "te1.report.json").read_text())
        assert rep["closed_form_pairings"] == rep["pairings"] == 880
        assert rep["integrand_evaluations"] == 0

    @pytest.mark.parametrize("theorem, ratio_deviation", [("te4", 0.5), ("rez1", 0.2)])
    def test_verify_log_homogeneous(self, tmp_path, theorem, ratio_deviation):
        # |x|^1/2 ln(1/|x|) with L = |ln eps|: every pairing in closed form.
        # The limit is |x|^1/2, not the log distribution itself, which would
        # leave ratio deviations of 1.57 (te4) and 3.62 (rez1).  On the
        # default sequence the 1/|ln eps| corrections still fail a gate
        # (te4: slope deviation 0.110; rez1: ratio deviation 0.138), exit 3
        out = tmp_path / theorem
        assert exit_code(["verify", theorem, "--alpha", "1.0472", "--window", "hermite1",
                          "--dist", '{"kind":"homogeneous","pattern":"abs","degree":0.5,'
                                    '"log_power":1}',
                          "--sv", "logpow", "--output", str(out)]) == 3
        rep = json.loads((tmp_path / f"{theorem}.report.json").read_text())
        assert rep["extras"]["closed_form_pairings"] == rep["extras"]["pairings"] == 104
        assert rep["extras"]["integrand_evaluations"] == 0
        assert rep["max_ratio_deviation"] < ratio_deviation

    def test_refused_pairing_is_a_numerical_error(self, tmp_path, capsys, monkeypatch):
        # with the closed form's cancellation bound at 0 the same run pairs
        # through the quadrature rule, whose estimate misses its budget at a
        # cell: the pairing is refused, exit 2
        monkeypatch.setattr(fs.distributions, "HOMOGENEOUS_CANCELLATION_MAX", 0.0)
        assert exit_code(["verify", "te1", "--alpha", "1.0472", "--window", "hermite1",
                          "--dist", '{"kind":"homogeneous","pattern":"abs","degree":0.5}',
                          "--output", str(tmp_path / "te1")]) == 2
        assert "error: pairing error estimate 8.042e-01 exceeds budget" in capsys.readouterr().err

    def test_non_finite_pairing_is_a_numerical_error(self, tmp_path, capsys):
        # t^400 overflows within the limit probes' reach: the pairing is
        # NaN, and a NaN is refused, not tallied as a pass, with no numpy
        # warning
        assert exit_code(["verify", "rez1", "--alpha", "1.0", "--window", "hermite1",
                          "--dist", '{"kind":"homogeneous","pattern":"plus","degree":400}',
                          "--output", str(tmp_path / "d400")]) == 2
        assert "error: pairing value nan+nanj is not finite" in capsys.readouterr().err
        assert not (tmp_path / "d400.report.json").exists()

    @staticmethod
    def _scipy_modules_after(code):
        """The scipy modules loaded after running code in a fresh interpreter."""
        import os
        import pathlib
        import subprocess
        import sys
        src = str(pathlib.Path(fs.__file__).parents[1])
        code += "\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        out = subprocess.run([sys.executable, "-c", "import sys\n" + code], capture_output=True,
                             text=True, env={**os.environ, "PYTHONPATH": src}, check=True).stdout
        return out.strip().splitlines()

    def test_import_loads_no_scipy(self):
        # scipy is a test dependency: only the tests' quadrature oracle
        # (distributions.quad) imports it, on its first call
        assert self._scipy_modules_after("import fracspec.cli") == ["[]"]

    def test_refused_pairing_loads_no_scipy(self):
        # the te1 cell whose rule estimate misses its budget is refused by
        # the rule alone: no quadrature fallback, no scipy
        code = ("import numpy as np, fracspec as fs\n"
                "f = fs.DistributionDescriptor.closed_form(lambda t: np.sqrt(np.abs(t)) + 0j,\n"
                "                                          singular_points=(0.0,))\n"
                "try:\n"
                "    fs.check_te1_hypotheses(fs.make_frac_param(np.pi / 3), fs.hermite_wavelet_window(),\n"
                "                            f, m=0.5, x_lattice=(1.0,), xi_lattice=(1.0,))\n"
                "except fs.PairingDiverged:\n"
                "    print('refused')")
        assert self._scipy_modules_after(code) == ["refused", "[]"]

    def test_verify_not_applicable_exit_code(self, tmp_path):
        code = run(["verify", "rez1", "--alpha", "1.0472", "--window", "hermite1",
                    "--dist", '{"kind":"delta","terms":[[0,0,0.0]]}',
                    "--degree", "-1",
                    "--output", str(tmp_path / "na")])
        assert code == 4

    def test_verify_te1_zero_lattice_not_applicable(self, tmp_path, capsys):
        out = tmp_path / "te1"
        code = run(["verify", "te1", "--alpha", "1", "--window", "hermite1",
                    "--dist", '{"kind":"delta","terms":[]}', "--degree", "-1",
                    "--output", str(out)])
        assert code == 4
        assert "te1 hypotheses: not-applicable (converged 80/80, D=0)" in capsys.readouterr().out
        rep = json.loads((tmp_path / "te1.report.json").read_text())
        assert rep["verdict"] == "not-applicable"

    def test_verify_te5_vanishing_limit_not_applicable(self, tmp_path):
        out = tmp_path / "te5"
        code = run(["verify", "te5", "--alpha", "1.0472", "--window", "hermite1",
                    "--dist", '{"kind":"delta","terms":[[0,0,1.0]]}',
                    "--output", str(out)])
        assert code == 4
        rep = json.loads((tmp_path / "te5.report.json").read_text())
        assert rep["verdict"] == "not-applicable"
        assert any("vanishes at every probe" in n for n in rep["notes"])

    def test_admissibility_command(self, tmp_path):
        out = tmp_path / "adm"
        code = run(["admissibility", "--window", "mexican-hat",
                    "--output", str(out)])
        assert code == 0
        rep = json.loads((tmp_path / "adm.report.json").read_text())
        assert abs(rep["c_g"] - 1.0) < 1e-6
        # how the value was computed: one pairing per half-line
        assert rep["pairings"] == 2
        assert rep["integrand_evaluations"] > 0
        assert rep["max_rel_error_estimate"] < 1e-10

    def test_admissibility_of_a_carrier_near_the_gate(self, tmp_path):
        # the whole band and its omega > 0 part, one pairing each
        assert exit_code(["admissibility", "--window", "modulated:hermite1:8",
                          "--output", str(tmp_path / "adm")]) == 0
        rep = json.loads((tmp_path / "adm.report.json").read_text())
        assert rep["pairings"] == 2
        assert rep["c_g"] == rep["c_g_half_line"] == 0.11348212805388344

    def test_admissibility_pair_command(self, tmp_path):
        # psi_hat(s) conj(g_hat(s)) = -(s + c2)^6 s^2 e^{-(s + c2)^2/2 - s^2/2},
        # s = c2 (w - 1), over the w where both spectra lie in their bands
        c2 = 2.0 / math.sqrt(3.0)
        assert exit_code(["admissibility", "--window", "mexican-hat",
                          "--psi", f"modulated:dog:6:{-c2!r}", f"--c2={c2!r}",
                          "--output", str(tmp_path / "adm")]) == 0
        rep = json.loads((tmp_path / "adm.report.json").read_text())
        assert rep["pairings"] == 1

        def numerator(w):
            s = c2 * (w - 1)
            return -(s + c2) ** 6 * s ** 2 * mpmath.exp(-(s + c2) ** 2 / 2 - s ** 2 / 2)

        with mpmath.workdps(30):
            oracle = float(mpmath.quad(lambda w: numerator(w) / abs(w),
                                       [1 - 10 / c2, 0, 1, 1 + (10 - c2) / c2]))
        assert rep["c_gpsi"][1] == 0.0
        assert abs(rep["c_gpsi"][0] - oracle) <= 1e-12 * abs(oracle)

    def test_admissibility_divergent_maps_to_numerical_error(self, tmp_path, capsys):
        with pytest.raises(fs.DivergentAdmissibility):
            run(["admissibility", "--window", "hermite1", "--psi", "hermite1",
                 "--c2", "1.1547", "--output", str(tmp_path / "d")])

    def test_seminorm_command(self, tmp_path):
        out = tmp_path / "rho"
        code = run(["seminorm", "--window", "gauss", "--k", "1", "--p", "0",
                    "--output", str(out)])
        assert code == 0
        rep = json.loads((tmp_path / "rho.report.json").read_text())
        assert abs(rep["value"] - np.exp(-0.5)) < 1e-5

    def test_bridge_command(self, tmp_path):
        code = run(["bridge", "--alpha", "1.0471975511965976", "--window",
                    "hermite1", "--input",
                    '{"gaussian": {"width": 1}, "N": 1024, "T": 12}',
                    "--points=-2:2:4x0.5:4:4",
                    "--output", str(tmp_path / "br")])
        assert code == 0

    def test_bridge_refuses_probes_narrower_than_a_sample(self, tmp_path):
        # at xi = 1e6 the hermite1 probe's band 2e7 exceeds the signal's
        # sampling band 2 pi/dt = 536: refused before any kernel lattice is
        # built, which would take about 25 GB
        import os
        import subprocess
        import sys
        src = os.path.dirname(os.path.dirname(fs.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "fracspec.cli", "bridge", "--alpha", "1.0471975511965976",
             "--window", "hermite1", "--input", '{"gaussian": {"width": 1}, "N": 2048, "T": 12}',
             "--points=-2:2:8x0.5:1e6:8", "--output", str(tmp_path / "br")],
            capture_output=True, text=True, timeout=30, env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 2
        assert "exceeds the sampling band" in proc.stderr
        assert not list(tmp_path.iterdir())

    def test_invert_frst_with_psi_and_tolerance_gate(self, tmp_path):
        # admissible pair at alpha = pi/2 on a loose grid: report written;
        # an over-tight tolerance flips the exit code to 3
        args = ["invert", "--transform", "frst", "--alpha", "1.5707963267948966",
                "--window", "mexican-hat", "--psi", "modulated:dog:6:-1",
                "--input", SYNTH, "--x=-6:6:64", "--xi", "0.25:8:32",
                "--output", str(tmp_path / "inv")]
        assert run(args) == 0
        rep = json.loads((tmp_path / "inv.report.json").read_text())
        assert np.isfinite(rep["rel_l2"])
        assert run(args + ["--tolerance", "1e-12"]) == 3

    def test_invert_frwt(self, tmp_path):
        code = run(["invert", "--transform", "frwt", "--alpha", "1.5707963",
                    "--window", "mexican-hat", "--input", SYNTH,
                    "--x=-8:8:96", "--xi", "0.25:4:48",
                    "--output", str(tmp_path / "inv")])
        assert code == 0
        rep = json.loads((tmp_path / "inv.report.json").read_text())
        assert "rel_l2" in rep

    def test_invert_frwt_spectrum_below_zero(self, tmp_path, capsys):
        # the band of modulated:hermite1:-12 lies below omega = 0, so its
        # positive-scale constant 2 pi C_g+ is 0: refused, not divided by
        assert exit_code(["invert", "--transform", "frwt", "--alpha", "1.5707963267948966",
                          "--window", "modulated:hermite1:-12.0",
                          "--input", '{"gaussian":{"width":1.0},"N":1024,"T":12}',
                          "--xi", "0.5:16:64", "--output", str(tmp_path / "inv")]) == 2
        assert "reconstruction over positive scales impossible" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


class TestDeterminism:
    def test_identical_runs_byte_identical(self, tmp_path):
        args = ["frst", "--alpha", "1.0471975511965976", "--window", "hermite1",
                "--input", SYNTH, "--x=-4:4:33", "--xi", "0.5:4:12"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(args + ["--output", str(out1)]) == 0
        assert run(args + ["--output", str(out2)]) == 0
        assert file_bytes(f"{out1}.csv") == file_bytes(f"{out2}.csv")
        assert file_bytes(f"{out1}.meta.json") == file_bytes(f"{out2}.meta.json")

    def test_verify_reports_byte_identical(self, tmp_path):
        args = ["verify", "rez1", "--alpha", "1.0472", "--window", "hermite1",
                "--dist", '{"kind":"delta","terms":[[0,0,1.0]]}']
        assert run(args + ["--output", str(tmp_path / "r1")]) == 0
        assert run(args + ["--output", str(tmp_path / "r2")]) == 0
        assert (file_bytes(tmp_path / "r1.report.json")
                == file_bytes(tmp_path / "r2.report.json"))

    def test_shared_parser_repeats_fresh_parsers(self, tmp_path, capsys):
        # a usage error, then valid calls: the parser built once gives the
        # exit codes, messages and output bytes of a parser built per call
        calls = [["verify", "rez1", "--alpha", "1"],
                 ["verify", "rez1", "--alpha", "1.0472", "--window", "hermite1",
                  "--dist", '{"kind":"delta","terms":[[0,0,1.0]]}'],
                 ["seminorm", "--window", "gauss", "--k", "1", "--p", "1"]]

        def run_all(name, fresh):
            seen = []
            for i, argv in enumerate(calls):
                if fresh:
                    cli._parser.cache_clear()
                out = tmp_path / f"{name}{i}"
                code = exit_code(argv + ["--output", str(out)])
                report = out.with_name(out.name + ".report.json")
                seen.append((code, capsys.readouterr(),
                             file_bytes(report) if report.exists() else None))
            return seen

        shared, fresh = run_all("shared", False), run_all("fresh", True)
        assert [code for code, _, _ in shared] == [1, 0, 0]
        assert shared == fresh


class TestReportFormat:
    """Every JSON file the CLI writes is canonical: the bytes of
    ``json.dumps(json.loads(text), sort_keys=True, indent=1)`` and a newline."""

    DELTA = '{"kind":"delta","terms":[[0,0,[1.0,0.5]],[0,0,[-0.3,0.2]]]}'

    @pytest.mark.parametrize("argv, suffix", [
        (["verify", "rez1", "--alpha", "1.0472", "--window", "hermite1", "--dist", DELTA],
         ".report.json"),
        (["verify", "te1", "--alpha", "1.0472", "--window", "hermite1", "--dist", DELTA],
         ".report.json"),
        # not-applicable: the report holds NaN lattice entries
        (["verify", "te5", "--alpha", "1.0472", "--window", "hermite1", "--dist", DELTA],
         ".report.json"),
        (["bridge", "--alpha", "1.0", "--window", "hermite1", "--input", SYNTH,
          "--points=-1:1:3x0.5:2:4"], ".report.json"),
        (["invert", "--transform", "frwt", "--alpha", "1.0", "--window", "mexican-hat",
          "--input", SYNTH, "--x=-6:6:64", "--xi", "0.25:4:40"], ".report.json"),
        (["admissibility", "--window", "mexican-hat"], ".report.json"),
        (["seminorm", "--window", "hermite1", "--k", "2", "--p", "1"], ".report.json"),
        (["frst", "--alpha", "1.0", "--window", "hermite1", "--input", SYNTH,
          "--x=-4:4:16", "--xi", "0.5:2:8"], ".meta.json"),
    ], ids=["rez1-delta", "te1", "te5-not-applicable", "bridge", "invert-frwt",
            "admissibility", "seminorm", "frst-meta"])
    def test_json_is_canonical(self, tmp_path, argv, suffix):
        out = tmp_path / "r"
        code = exit_code(argv + ["--output", str(out)])
        assert code == (4 if "te5" in argv else 0)
        data = file_bytes(f"{out}{suffix}")
        text = data.decode("ascii")
        assert data == (json.dumps(json.loads(text), sort_keys=True, indent=1) + "\n").encode()
        if "te5" in argv:
            assert "NaN" in text
