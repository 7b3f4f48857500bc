import math

import numpy as np
import pytest

from frechet_laplace import selfcheck
from frechet_laplace.cli import _build_parser, main

TWO_K1_OF_2 = 0.27973176363304486


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    assert b"\r" not in raw  # LF endings only
    lines = raw.decode().strip().split("\n")
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, rows


class TestLaplaceCommand:
    def test_bessel_value(self, capsys):
        code, out, _ = run(capsys, ["laplace", "--l", "1", "--k", "1", "--p", "1"])
        assert code == 0
        value = float(out.split()[1].split("=")[1])
        assert math.isclose(value, TWO_K1_OF_2, rel_tol=1e-9)

    def test_zero_p_rejected(self, capsys):
        code, _, err = run(capsys, ["laplace", "--l", "1", "--k", "2", "--p", "0"])
        assert code == 1
        assert "usage" in err.lower()

    def test_both_methods_agree(self, capsys):
        code, out, _ = run(capsys, ["laplace", "--l", "2", "--k", "3", "--p", "1",
                                    "--method", "both"])
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 3
        rel = float(lines[2].split("=")[1])
        assert rel <= 1e-8

    @pytest.mark.parametrize("method", ["auto", "meijer"])
    def test_out_of_range_prefactor_is_a_result(self, capsys, method):
        # (2 pi)^{(k+l)/2 - 1} = 7.6e318 for k = 800 is no float: the closed
        # form takes its log, and the command reports a value, not an error
        code, out, err = run(capsys, ["laplace", "--l", "1", "--k", "800", "--p", "1",
                                      "--method", method])
        assert code in (0, 2)
        assert " value=" in out
        assert "error" not in err

    def test_small_shape_converges(self, capsys):
        # AUTO at gamma = 1/800; reference from mpmath.quad at 30 digits
        code, out, _ = run(capsys, ["laplace", "--l", "1", "--k", "800", "--p", "1"])
        assert code == 0
        value = float(out.split()[1].split("=")[1])
        assert abs(value - 0.36761400960405952) <= 1e-15

    @pytest.mark.parametrize("argv", [
        ["laplace", "--l", "1", "--p", "1"],              # missing k
        ["laplace", "--l", "0", "--k", "2", "--p", "1"],  # invalid shape
        ["laplace", "--l", str(2**53 + 1), "--k", "1", "--p", "1", "--method", "meijer"],
        ["laplace", "--l", "1", "--k", "2", "--p", "-3"],
        ["laplace", "--l", "1", "--k", "2", "--p", "abc"],
        ["moment", "frechet", "--mu", "1"],               # missing gamma
        ["moment", "levy", "--alpha", "1.5", "--mu", "0.1"],
        ["figure", "--id", "fig9", "--out", "x.csv"],
        ["transform", "levy", "--gamma", "1"],            # missing x
        ["nonsense"],
    ])
    def test_malformed_inputs_exit_1(self, capsys, argv):
        # argparse raises SystemExit; domain validation returns the code
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code == 1


class TestFigureCommand:
    def test_fig1(self, capsys, tmp_path):
        out_path = tmp_path / "fig1.csv"
        code, _, _ = run(capsys, ["figure", "--id", "fig1", "--out", str(out_path),
                                  "--points", "25"])
        assert code == 0
        header, rows = read_csv(out_path)
        assert header[0] == "p"
        assert rows.shape == (25, 5)
        # p -> 0 limit: the lighter the tail, the closer to 1; columns ordered
        first = rows[0, 1:]
        assert np.all(first > 0.0) and np.all(first <= 1.0)
        assert np.all(np.diff(first) > 0)  # L(l=1) < L(l=2) < L(l=3) < L(l=4)
        assert np.all(first[1:] > 0.8)     # gamma >= 1/2 already near 1
        # every Laplace value in (0, 1]
        assert np.all(rows[:, 1:] > 0.0) and np.all(rows[:, 1:] <= 1.0)

    def test_fig2(self, capsys, tmp_path):
        out_path = tmp_path / "fig2.csv"
        code, _, _ = run(capsys, ["figure", "--id", "fig2", "--out", str(out_path),
                                  "--points", "20"])
        assert code == 0
        header, rows = read_csv(out_path)
        assert rows.shape == (20, 4)
        assert math.isclose(rows[0, 0], 0.01) and math.isclose(rows[-1, 0], 100.0)
        assert np.all(rows[:, 1:] > 0.0) and np.all(rows[:, 1:] <= 1.0)

    def test_fig3(self, capsys, tmp_path):
        out_path = tmp_path / "fig3.csv"
        code, _, _ = run(capsys, ["figure", "--id", "fig3", "--out", str(out_path),
                                  "--points", "40"])
        assert code == 0
        header, rows = read_csv(out_path)
        assert rows.shape == (40, 2)
        assert rows[0, 0] > 0.0 and math.isclose(rows[-1, 0], 10.0)
        assert np.all(rows[:, 1] >= 0.0) and np.all(np.isfinite(rows[:, 1]))

    def test_fig4_and_determinism(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run(capsys, ["figure", "--id", "fig4", "--out", str(path),
                                      "--points", "50"])
            assert code == 0
        assert a.read_bytes() == b.read_bytes()
        header, rows = read_csv(a)
        assert rows.shape == (50, 5)
        assert np.all(rows[:, 1:] >= 0.0)
        # reduced curves never exceed their own peak
        assert np.all(rows[:, 1:] <= 1.0 + 1e-12)

    def test_unwritable_path_exits_3(self, capsys, tmp_path):
        code, _, err = run(capsys, ["figure", "--id", "fig3",
                                    "--out", str(tmp_path / "no" / "dir" / "f.csv"),
                                    "--points", "5"])
        assert code == 3
        assert "error" in err.lower()

    def test_too_few_points(self, capsys, tmp_path):
        code, _, _ = run(capsys, ["figure", "--id", "fig3",
                                  "--out", str(tmp_path / "f.csv"), "--points", "1"])
        assert code == 1


class TestMomentCommand:
    def test_frechet_sqrt_pi(self, capsys):
        code, out, _ = run(capsys, ["moment", "frechet", "--gamma", "2", "--mu", "1"])
        assert code == 0
        assert math.isclose(float(out), math.sqrt(math.pi), rel_tol=1e-15)

    def test_divergent_prints_interval(self, capsys):
        code, _, err = run(capsys, ["moment", "frechet", "--gamma", "1", "--mu", "1"])
        assert code == 1
        assert "-inf < mu < 1.0" in err

    def test_levy(self, capsys):
        code, out, _ = run(capsys, ["moment", "levy", "--alpha", "0.5", "--mu", "-1"])
        assert code == 0
        assert math.isclose(float(out), 2.0, rel_tol=1e-14)

    @pytest.mark.parametrize("argv", [
        ["moment", "frechet", "--gamma", "1", "--mu", "-200"],
        ["moment", "levy", "--alpha", "0.5", "--mu", "-200"],
    ])
    def test_overflow_exits_1(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert code == 1
        assert out == ""
        assert "overflows binary64" in err


class TestTransformCommand:
    def test_levy_composition(self, capsys):
        code, out, _ = run(capsys, ["transform", "levy", "--alpha", "0.5",
                                    "--gamma", "1", "--x", "1"])
        assert code == 0
        assert math.isclose(float(out), 0.5 * math.exp(-1.0), rel_tol=1e-14)

    def test_frechet_half(self, capsys):
        code, out, _ = run(capsys, ["transform", "frechet-half", "--gamma", "1",
                                    "--x", "1"])
        assert code == 0
        assert math.isclose(float(out), 0.15004596450516383, rel_tol=1e-8)

    def test_frechet_half_at_large_x_exits_0(self, capsys):
        # the value there, about 8.9e-301, drowned in contour noise; the
        # residue series gives its leading term (gamma sqrt(pi) / 2) x^{-1-gamma/2}
        code, out, _ = run(capsys, ["transform", "frechet-half", "--gamma", "1",
                                    "--x", "1e200"])
        assert code == 0
        assert math.isclose(float(out), 0.5 * math.sqrt(math.pi) * 1e200 ** -1.5,
                            rel_tol=1e-12)

    def test_frechet_half_below_the_smallest_subnormal_exits_0(self, capsys):
        # about 1e-375 there: the residue series' bounds show every term
        # below the smallest subnormal, and its converged zero prints as 0
        code, out, _ = run(capsys, ["transform", "frechet-half", "--gamma", "1",
                                    "--x", "1e250"])
        assert (code, out.strip()) == (0, "0")

    @pytest.mark.parametrize("argv", [
        ["levy", "--alpha", "1.5", "--gamma", "1", "--x", "1"],
        ["frechet-half", "--gamma", "1", "--x", "-1"],
        # Fr(1e-10, 5e-324) is about e^720: no float
        ["levy", "--alpha", "1e-10", "--gamma", "1", "--x", "5e-324"],
    ])
    def test_domain_error_exits_1(self, capsys, argv):
        code, out, err = run(capsys, ["transform"] + argv)
        assert code == 1
        assert out == ""
        assert "error:" in err
        assert "usage: frechet-laplace transform" in err


class TestSelfcheckCommand:
    def test_list(self, capsys):
        code, out, _ = run(capsys, ["selfcheck", "--list"])
        assert code == 0
        names = out.strip().split("\n")
        assert "gamma-multiplication-formula" in names
        assert len(names) >= 10

    def test_run_default_profile(self, capsys):
        code, out, _ = run(capsys, ["selfcheck"])
        assert code == 0
        assert "FAIL" not in out


class TestParserReuse:
    # main builds its parser once per process; every command parses into a
    # Namespace of its own, so an option given to one is not seen by the next
    def test_commands_in_one_process_share_no_state(self, capsys, tmp_path):
        _build_parser.cache_clear()
        code, listed, _ = run(capsys, ["selfcheck", "--list"])
        assert code == 0
        assert listed.split() == list(selfcheck.list_checks())

        code, out, _ = run(capsys, ["laplace", "--l", "2", "--k", "3", "--p", "1",
                                    "--method", "both"])
        assert code == 0
        lines = out.strip().split("\n")
        assert [line.split()[0] for line in lines[:2]] == ["meijer-g", "quadrature"]
        assert lines[2].startswith("rel_diff=")
        code, out, _ = run(capsys, ["laplace", "--l", "2", "--k", "3", "--p", "1"])
        assert code == 0
        assert len(out.strip().split("\n")) == 1 and out.startswith("auto value=")

        few, default = tmp_path / "few.csv", tmp_path / "default.csv"
        code, _, _ = run(capsys, ["figure", "--id", "fig3", "--out", str(few),
                                  "--points", "5"])
        assert code == 0
        code, _, _ = run(capsys, ["figure", "--id", "fig3", "--out", str(default)])
        assert code == 0
        assert read_csv(few)[1].shape == (5, 2)
        assert read_csv(default)[1].shape == (400, 2)

        for argv, usage in [(["laplace", "--l", "1", "--k", "2", "--p", "abc"], "laplace"),
                            (["transform", "levy", "--gamma", "1"], "transform")]:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            out, err = capsys.readouterr()
            assert (exc.value.code, out) == (1, "")
            assert f"usage: frechet-laplace {usage}" in err

        code, again, _ = run(capsys, ["selfcheck", "--list"])
        assert (code, again) == (0, listed)
        info = _build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 7)
