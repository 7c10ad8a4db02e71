import json
import math
import os
import subprocess
import sys
from unittest import mock

import pytest
from numpy.testing import assert_allclose

RUN = [sys.executable, "-m", "dimer_discord"]


def run(*argv, env=None):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        RUN + list(argv), capture_output=True, text=True, env=full_env
    )


def csv_rows(stdout):
    lines = [l for l in stdout.strip().split("\n") if not l.startswith("#")]
    header = lines[0].split(",")
    return header, [l.split(",") for l in lines[1:]]


class TestExitCodes:
    def test_success_is_zero(self):
        assert run("from-neutron", "--G=-0.54(9)").returncode == 0

    def test_computation_failure_is_one(self):
        r = run("from-neutron", "--G=-1.2(0)")
        assert r.returncode == 1
        assert r.stdout == ""
        assert "error" in r.stderr

    def test_usage_error_is_two(self):
        assert run("from-neutron").returncode == 2  # neither --G nor --input
        assert run("landmarks").returncode == 2  # no coupling at all
        assert run("nonsense").returncode == 2
        # a temperature must be positive and finite; refused before any note
        invert = ["from-cm", "--J-over-kB", "-2.59", "--route", "invert", "--cm-over-R", "0.3"]
        for argv in (
            *(["from-neutron", "--G=-0.5", "--T", t] for t in ("-4", "0", "nan", "inf")),
            [*invert, "--T", "nan"],
            [*invert, "--T", "-4"],
        ):
            r = run(*argv)
            assert (r.returncode, r.stdout) == (2, ""), argv
            assert r.stderr.startswith("usage error: --T must be a positive, finite temperature")
            assert "note" not in r.stderr

    @pytest.mark.parametrize("g", ["1e999", "1(9)e400", "0.1(" + "9" * 400 + ")"])
    def test_value_beyond_a_double_is_one_error_line(self, g):
        r = run("from-neutron", f"--G={g}")
        assert (r.returncode, r.stdout) == (1, "")
        assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1
        assert "Traceback" not in r.stderr

    @pytest.mark.parametrize(
        "argv, text",
        [
            (["landmarks", "--J-over-kB=-2", "--g-factor=1e200"],
             "error: g factor 1e+200 is too large: its square overflows"),
            (["from-chi", "--input", "{chi}", "--J-over-kB=-2", "--g-factor=1e200"],
             "error: g factor 1e+200 is too large: its square overflows"),
            (["landmarks", "--J-over-kB=-2", "--g-tensor", "1e200", "1", "1"],
             "error: g tensor (1e+200, 1.0, 1.0) is too large: the sum of its squares overflows"),
        ],
    )
    def test_g_whose_square_overflows_is_one_error_line(self, argv, text, tmp_path):
        chi = tmp_path / "chi.csv"
        chi.write_text("T_K,chi_emu_per_mol\n4.0,0.063\n")
        r = run(*(a.format(chi=chi) for a in argv))
        assert (r.returncode, r.stdout) == (1, "")
        assert r.stderr.splitlines()[-1] == text
        assert "Traceback" not in r.stderr

    @pytest.mark.parametrize(
        "argv, text",
        [
            (["landmarks", "--J-over-kB=-2", "--g-factor=1e-200"],
             "error: g factor 1e-200 is too small: its square underflows"),
            (["from-chi", "--input", "{chi}", "--J-over-kB=-2", "--g-factor=1e-200"],
             "error: g factor 1e-200 is too small: its square underflows"),
            (["landmarks", "--J-over-kB=-2", "--g-tensor", "1e-200", "1e-200", "1e-200"],
             "error: g tensor (1e-200, 1e-200, 1e-200) is too small: its square underflows"),
        ],
    )
    def test_g_whose_square_underflows_is_one_error_line(self, argv, text, tmp_path):
        # landmarks printed chi_peak_emu_per_mol = 0 for such a g, and exited 0
        chi = tmp_path / "chi.csv"
        chi.write_text("T_K,chi_emu_per_mol\n4.0,0.063\n")
        r = run(*(a.format(chi=chi) for a in argv))
        assert (r.returncode, r.stdout) == (1, "")
        assert r.stderr == text + "\n"

    @pytest.mark.parametrize(
        "argv, precision, text",
        [
            (["landmarks", "--preset", "copper-nitrate-magnetometric", "--J-over-kB=-2.59"], None,
             "give either --preset or an explicit coupling, not both"),
            (["landmarks"], None,
             "a coupling is required: --preset, --J-over-kB, or --2J-over-kB"),
            (["from-chi", "--input", "{chi}", "--J-over-kB=-2.56"], None,
             "a g factor is required: --g-factor, --g-tensor, or a preset that has one"),
            (["from-neutron", "--G=-0.5", "--input", "{chi}"], None,
             "give exactly one of --G or --input"),
            (["from-neutron"], None, "give exactly one of --G or --input"),
            (["from-cm", "--route", "invert", "--J-over-kB=-2.59", "--T", "4"], None,
             "route invert needs --T and --cm-over-R"),
            (["from-cm", "--route", "integrate", "--preset", "copper-nitrate-calorimetric"], None,
             "route integrate needs --input and/or --tail-a/--tail-from"),
            (["from-cm", "--route", "integrate", "--tail-a", "6.6",
              "--preset", "copper-nitrate-calorimetric"], None,
             "--tail-a and --tail-from go together"),
            (["fit", "--input", "{chi}", "--J-over-kB=-2"], None,
             "fitting needs at least 3 points, file has 2"),
            (["landmarks", "--J-over-kB=-1"], "lots",
             "DIMER_DISCORD_PRECISION must be an integer, got 'lots'"),
            (["landmarks", "--J-over-kB=-1"], "0", "DIMER_DISCORD_PRECISION must be in [1, 17], got 0"),
            (["theory", "--J-over-kB=-1", "--n-points", "1"], None,
             "need at least 2 grid points, got 1"),
            (["figure", "3", "--n-points", "-5"], None, "need at least 2 grid points, got -5"),
            # the t-range is checked before the grid size
            (["theory", "--J-over-kB=-1", "--t-min", "5", "--t-max", "2", "--n-points", "0"], None,
             "need 0 < t-min < t-max < inf, got 5 and 2"),
        ],
        ids=[
            "preset-and-coupling", "no-coupling", "no-g-factor", "G-and-input", "no-G-nor-input",
            "invert-source", "integrate-source", "unpaired-tail", "fit-too-few", "precision-word",
            "precision-range", "theory-grid-size", "figure-grid-size", "t-range",
        ],
    )
    def test_usage_error_text(self, argv, precision, text, tmp_path, monkeypatch, capsys):
        from dimer_discord import cli

        chi = tmp_path / "chi.csv"
        chi.write_text("T_K,chi_emu_per_mol\n2.0,0.1\n4.0,0.12\n")
        monkeypatch.delenv("DIMER_DISCORD_PRECISION", raising=False)
        if precision is not None:
            monkeypatch.setenv("DIMER_DISCORD_PRECISION", precision)
        assert cli.main([a.format(chi=chi) for a in argv]) == 2
        assert capsys.readouterr() == ("", f"usage error: {text}\n")

    def test_conflicting_parameter_sources(self):
        r = run("landmarks", "--preset", "copper-nitrate-magnetometric",
                "--J-over-kB", "-2.59")
        assert r.returncode == 2

    def test_both_g_and_input_rejected(self):
        r = run("from-neutron", "--G=-0.5", "--input", "whatever.csv")
        assert r.returncode == 2

    def test_bad_theory_range(self):
        r = run("theory", "--J-over-kB", "-1", "--t-min", "5", "--t-max", "2")
        assert r.returncode == 2
        r = run("theory", "--J-over-kB", "-1", "--t-min", "1", "--t-max", "inf")
        assert r.returncode == 2
        assert r.stderr == "usage error: need 0 < t-min < t-max < inf, got 1 and inf\n"


class TestDeterminism:
    def test_byte_identical_repeats(self):
        a = run("landmarks", "--preset", "copper-nitrate-magnetometric")
        b = run("landmarks", "--preset", "copper-nitrate-magnetometric")
        assert a.stdout == b.stdout
        c = run("theory", "--preset", "copper-acetate-hydrate", "--n-points", "50")
        d = run("theory", "--preset", "copper-acetate-hydrate", "--n-points", "50")
        assert c.stdout == d.stdout


class TestFromNeutron:
    def test_single_point_frozen_line(self):
        r = run("from-neutron", "--G=-0.54(9)", "--T", "4")
        header, rows = csv_rows(r.stdout)
        assert header == ["T_K", "G", "sigma_G", "Q", "sigma_Q", "C", "I", "E", "channel"]
        assert rows[0] == ["4", "-0.54", "0.09", "0.301676", "0.0910441",
                           "0.221989", "0.523665", "0.16671", "neutron"]

    def test_series_file(self, tmp_path):
        f = tmp_path / "g.csv"
        f.write_text("T_K,G,sigma_G\n4.0,-0.54,0.09\n2.84,-0.63,0.1\n")
        r = run("from-neutron", "--input", str(f))
        _, rows = csv_rows(r.stdout)
        assert len(rows) == 2
        assert_allclose(float(rows[0][3]), 0.399045, rtol=1e-5)  # sorted: 2.84 K first

    def test_partial_row_failure_keeps_going(self, tmp_path):
        f = tmp_path / "g.csv"
        f.write_text("T_K,G\n4.0,-0.54\n5.0,-1.5\n")
        r = run("from-neutron", "--input", str(f))
        assert r.returncode == 0
        _, rows = csv_rows(r.stdout)
        assert len(rows) == 1
        assert "row" in r.stderr and "5" in r.stderr

    def test_all_rows_failing_is_an_error(self, tmp_path):
        f = tmp_path / "g.csv"
        f.write_text("T_K,G\n4.0,-1.5\n5.0,0.9\n")
        r = run("from-neutron", "--input", str(f))
        assert r.returncode == 1

    def test_near_edge_value_clamps_with_note(self):
        r = run("from-neutron", "--G=-1.005")
        assert r.returncode == 0
        _, rows = csv_rows(r.stdout)
        assert float(rows[0][1]) == -1.0
        assert r.stderr != ""

    def test_vanishing_entanglement_prints_as_zero(self, capsys):
        from dimer_discord import cli

        # the concurrence is ~4e-9, where the entanglement of formation rounds to 0
        assert cli.main(["from-neutron", "--G=-0.333333336", "--T", "1"]) == 0
        _, rows = csv_rows(capsys.readouterr().out)
        assert rows[0][7] == "0"

    def test_point_without_temperature_leaves_it_empty(self, capsys):
        from dimer_discord import cli

        assert cli.main(["from-neutron", "--G=-0.54(9)"]) == 0
        out, err = capsys.readouterr()
        _, rows = csv_rows(out)
        assert rows[0][:3] == ["", "-0.54", "0.09"]
        assert err.count("no temperature given") == 1

        assert cli.main(["from-neutron", "--G=-0.54(9)", "--format", "json"]) == 0
        out, err = capsys.readouterr()
        doc = json.loads(out, parse_constant=lambda name: pytest.fail(f"bare {name} in JSON"))
        assert doc["rows"][0]["T_K"] is None
        assert doc["rows"][0]["G"] == -0.54
        assert err.count("no temperature given") == 1


class TestLandmarks:
    def test_antiferro_content(self):
        r = run("landmarks", "--preset", "copper-acetate-hydrate")
        assert r.returncode == 0
        got = dict(
            line.split(" = ") for line in r.stdout.strip().split("\n") if " = " in line
        )
        assert got["branch"] == "antiferro"
        assert_allclose(float(got["entanglement_death_kT_over_absJ"]), 1.82048, rtol=1e-5)
        assert_allclose(float(got["entanglement_death_T_K"]), 371.378, rtol=1e-5)
        assert_allclose(float(got["QE_crossing_kT_over_absJ"]), 0.588083, rtol=1e-5)
        assert_allclose(float(got["QE_crossing_bits"]), 0.746202, rtol=1e-5)
        assert_allclose(float(got["CE_crossing_kT_over_absJ"]), 0.926056, rtol=1e-5)
        assert_allclose(float(got["CE_crossing_bits"]), 0.339099, rtol=1e-5)
        assert_allclose(float(got["CE_crossing_discord_bits"]), 0.431061, rtol=1e-5)
        assert_allclose(float(got["schottky_peak_kT_over_absJ"]), 0.70299, rtol=1e-5)
        assert_allclose(float(got["schottky_peak_cm_over_R"]), 1.02349, rtol=1e-5)
        assert_allclose(float(got["chi_peak_kT_over_absJ"]), 1.24724, rtol=1e-5)
        assert_allclose(float(got["chi_peak_reduced"]), 0.201182, rtol=1e-5)

    def test_ferro_content(self):
        r = run("landmarks", "--preset", "cu2l-oac-ferro")
        got = dict(
            line.split(" = ") for line in r.stdout.strip().split("\n") if " = " in line
        )
        assert got["branch"] == "ferro"
        assert_allclose(float(got["discord_T0_bits"]), 1 / 3, rtol=1e-5)
        assert_allclose(float(got["classical_T0_bits"]), 0.0817042, rtol=1e-5)
        assert_allclose(float(got["discord_to_classical_T0"]), 4.07976, rtol=1e-5)
        assert_allclose(float(got["schottky_peak_kT_over_absJ"]), 0.925957, rtol=1e-5)
        assert "entanglement_death_T_K" not in got

    @pytest.mark.parametrize("j", ["-1e-300", "-1e307"])
    def test_crossings_are_universal_at_extreme_couplings(self, j, capsys):
        # near both ends of the double range (subnormal T, and T near overflow)
        # the crossings still sit at their fixed k_B T/|J|
        from dimer_discord import cli

        assert cli.main(["landmarks", f"--J-over-kB={j}"]) == 0
        out = capsys.readouterr().out
        got = dict(line.split(" = ") for line in out.strip().split("\n"))
        assert got["QE_crossing_kT_over_absJ"] == "0.588083"
        assert got["CE_crossing_kT_over_absJ"] == "0.926056"
        assert_allclose(float(got["QE_crossing_T_K"]), 0.588083 * -float(j), rtol=1e-5)

    @pytest.mark.parametrize("j", ["-9e307", "1e308"])
    def test_representable_temperatures_print_finite(self, j, capsys):
        # |J| near the top of the double range: each temperature is formed
        # by dividing before scaling, so none overflows to inf
        from dimer_discord import cli

        assert cli.main(["landmarks", f"--J-over-kB={j}"]) == 0
        out, err = capsys.readouterr()
        got = dict(line.split(" = ") for line in out.strip().split("\n"))
        numbers = {key: float(v) for key, v in got.items() if key != "branch"}
        assert all(map(math.isfinite, numbers.values())), numbers
        assert_allclose(numbers["schottky_peak_T_K"], numbers["schottky_peak_kT_over_absJ"]
                        * abs(float(j)), rtol=1e-5)
        assert err == ""

    @pytest.mark.parametrize("j", ["-1e-320", "5e-324", "-2.56", "-204", "35.4", "1e308"])
    def test_reduced_lines_are_those_of_unit_coupling(self, j, capsys):
        # every k_B T/|J| line, and chi_peak_reduced, is a universal constant:
        # at 17 digits it prints as at |J| = 1, whatever the coupling
        from dimer_discord import cli

        def reduced(argv):
            with mock.patch.dict(os.environ, {"DIMER_DISCORD_PRECISION": "17"}):
                assert cli.main(["landmarks", *argv, "--g-factor", "2"]) == 0
            lines = capsys.readouterr().out.strip().split("\n")
            return {k: v for k, v in (line.split(" = ") for line in lines)
                    if k.endswith("_kT_over_absJ") or k == "chi_peak_reduced"}

        unit = reduced([f"--J-over-kB={math.copysign(1.0, float(j))}"])
        assert len(unit) == (6 if j.startswith("-") else 1)
        assert reduced([f"--J-over-kB={j}"]) == unit

    @pytest.mark.parametrize("j", ["-2.56", "-204", "-216", "-5e-324", "35.4", "1e308"])
    def test_landmark_temperatures_print_correctly_rounded(self, j, capsys):
        # at 17 digits each T_K line reads back as the double nearest its
        # 50-digit value (|J| times a universal k_B T/|J|)
        import oracles
        from dimer_discord import cli

        with mock.patch.dict(os.environ, {"DIMER_DISCORD_PRECISION": "17"}):
            assert cli.main(["landmarks", f"--J-over-kB={j}", "--g-factor", "2"]) == 0
        got = dict(line.split(" = ") for line in capsys.readouterr().out.strip().split("\n"))
        antiferro = j.startswith("-")
        scales = {"schottky_peak_T_K": oracles.schottky_peak_temperature_scale(antiferro)}
        if antiferro:
            scales["entanglement_death_T_K"] = 2 / oracles.mp.log(3)
            scales["QE_crossing_T_K"] = oracles.crossing_temperature_scale("discord")
            scales["CE_crossing_T_K"] = oracles.crossing_temperature_scale("classical")
            scales["chi_peak_T_K"] = 2 / (1 + oracles.mp.lambertw(3 / oracles.mp.e))
        for key, scale in scales.items():
            assert float(got[key]) == float(abs(oracles.mp.mpf(float(j))) * scale), key

    def test_susceptibility_peak_where_three_j_overflows(self, capsys):
        from dimer_discord import cli

        assert cli.main(["landmarks", "--J-over-kB=-9e307", "--g-factor", "2"]) == 0
        got = dict(line.split(" = ") for line in capsys.readouterr().out.strip().split("\n"))
        assert got["chi_peak_reduced"] == "0.201182"
        assert_allclose(float(got["chi_peak_emu_per_mol"]), 3.35436e-309, rtol=1e-5)

    @pytest.mark.parametrize("j", ["-1e-320", "-5e-324"])
    def test_overflowing_susceptibility_peak_is_left_empty(self, j, capsys):
        # N_A g^2 mu_B^2 w / (3 k_B |J|) exceeds the largest double: an empty value, not "inf"
        from dimer_discord import cli

        assert cli.main(["landmarks", f"--J-over-kB={j}", "--g-factor", "2"]) == 0
        out, err = capsys.readouterr()
        assert "\nchi_peak_emu_per_mol = \nchi_peak_reduced = 0.201182\n" in out
        assert "= inf" not in out
        assert err == (f"note: chi_peak_emu_per_mol overflows a double at J/k_B = {float(j)!r} K; "
                       "it is left empty\n")

    def test_overflowing_death_temperature_is_refused(self, capsys):
        # 1.82 |J| exceeds the largest double: an error, not "inf"
        from dimer_discord import cli

        assert cli.main(["landmarks", "--J-over-kB=-1e308"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: death temperature overflows a double at J/k_B = -1e+308\n"

    def test_two_j_flag_halves(self):
        a = run("landmarks", "--J-over-kB", "-2.59")
        b = run("landmarks", "--2J-over-kB", "-5.18")
        assert a.stdout == b.stdout

    def test_g_tensor_powder_averages(self):
        a = run("landmarks", "--J-over-kB", "-2.56", "--g-tensor", "2", "2", "2.4")
        b = run("landmarks", "--J-over-kB", "-2.56", "--g-factor", "2.1416504538945347")
        assert a.stdout == b.stdout


class TestFromChi:
    def test_per_monomer_point(self, tmp_path):
        f = tmp_path / "chi.csv"
        f.write_text("T_K,chi_emu_per_mol\n4.0,0.063\n")
        r = run("from-chi", "--input", str(f), "--per", "monomer",
                "--preset", "copper-nitrate-magnetometric")
        assert r.returncode == 0
        _, rows = csv_rows(r.stdout)
        assert_allclose(float(rows[0][1]), -0.396478, rtol=1e-5)
        assert_allclose(float(rows[0][3]), 0.172494, rtol=1e-5)
        assert rows[0][-1] == "magnetometric"

    def test_sigma_propagates(self, tmp_path):
        f = tmp_path / "chi.csv"
        f.write_text("T_K,chi_emu_per_mol,sigma_chi\n4.0,0.126,0.002\n")
        r = run("from-chi", "--input", str(f),
                "--preset", "copper-nitrate-magnetometric")
        _, rows = csv_rows(r.stdout)
        assert float(rows[0][2]) > 0  # sigma_G
        assert float(rows[0][4]) > 0  # sigma_Q

    def test_needs_g_factor(self, tmp_path):
        f = tmp_path / "chi.csv"
        f.write_text("T_K,chi_emu_per_mol\n4.0,0.126\n")
        r = run("from-chi", "--input", str(f), "--J-over-kB", "-2.56")
        assert r.returncode == 2

    def test_free_spin_value_means_no_correlation(self, tmp_path):
        # chi equal to the Curie value of the uncoupled pair inverts to G = 0
        chi0 = 0.375148096121 * 2.11**2 / (2 * 4.0)
        f = tmp_path / "chi.csv"
        f.write_text(f"T_K,chi_emu_per_mol\n4.0,{chi0:.15g}\n")
        r = run("from-chi", "--input", str(f),
                "--preset", "copper-nitrate-magnetometric")
        _, rows = csv_rows(r.stdout)
        for col in (1, 3, 5, 6, 7):  # G, Q, C, I, E
            assert abs(float(rows[0][col])) < 1e-9


class TestFromCm:
    def test_invert_route_picks_hot_side(self):
        r = run("from-cm", "--route", "invert", "--T", "4", "--cm-over-R", "0.4125",
                "--preset", "copper-nitrate-calorimetric")
        assert r.returncode == 0
        _, rows = csv_rows(r.stdout)
        assert_allclose(float(rows[0][1]), -0.397079, rtol=1e-5)
        assert_allclose(float(rows[0][3]), 0.172969, rtol=1e-5)
        assert "hot" in r.stderr

    def test_invert_route_cold_side(self):
        r = run("from-cm", "--route", "invert", "--T", "1.0", "--cm-over-R", "0.4125",
                "--preset", "copper-nitrate-calorimetric")
        assert r.returncode == 0
        _, rows = csv_rows(r.stdout)
        assert float(rows[0][1]) < -0.802  # past the peak correlator
        assert "cold" in r.stderr

    def test_invert_zero_at_high_t(self):
        r = run("from-cm", "--route", "invert", "--T", "300", "--cm-over-R", "0",
                "--preset", "copper-nitrate-calorimetric")
        _, rows = csv_rows(r.stdout)
        assert float(rows[0][1]) == 0
        assert float(rows[0][3]) == 0

    @pytest.mark.parametrize("cm", ["nan", "-1"])
    def test_invert_failure_prints_no_note(self, cm, capsys):
        # the Schottky-side note follows a successful inversion only
        from dimer_discord import cli

        argv = ["from-cm", "--route", "invert", "--preset", "copper-nitrate-calorimetric",
                "--T", "4", "--cm-over-R", cm]
        assert cli.main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: c_m/R must be non-negative, got {float(cm)!r}\n"

    def test_integrate_tail_only(self):
        r = run("from-cm", "--route", "integrate", "--tail-a", "6.6",
                "--tail-from", "4", "--preset", "copper-nitrate-calorimetric")
        assert r.returncode == 0
        assert "u(4 K)/R = -1.65 K" in r.stderr
        _, rows = csv_rows(r.stdout)
        assert_allclose(float(rows[0][1]), -0.424710, rtol=1e-5)
        assert_allclose(float(rows[0][3]), 0.195395, rtol=1e-5)

    def test_integrate_tail_only_ignores_u0(self):
        r = run("from-cm", "--route", "integrate", "--tail-a", "6.6",
                "--tail-from", "4", "--u0-over-R", "-3.885",
                "--preset", "copper-nitrate-calorimetric")
        assert "ignored" in r.stderr

    def test_integrate_tail_only_ignores_u0_in_process(self, capsys):
        from dimer_discord import cli

        argv = ["from-cm", "--route", "integrate", "--tail-a", "6.6", "--tail-from", "4",
                "--preset", "copper-nitrate-calorimetric", "--u0-over-R", "-3.885"]
        assert cli.main(argv) == 0
        assert capsys.readouterr().err.startswith(
            "note: tail-only record: the energy anchors at u(infinity) = 0, "
            "so --u0-over-R is ignored\n"
        )

    def test_integrate_series_with_u0(self, tmp_path):
        # exact theory record dense enough for the trapezoid rule
        import numpy as np
        from dimer_discord.dimer_core import DimerParameters
        from dimer_discord.thermo import specific_heat

        p = DimerParameters(-2.59)
        t = np.linspace(0.02, 4.0, 2000)
        lines = ["T_K,cm_over_R"] + [
            f"{x:.10g},{specific_heat(p, float(x)):.12g}" for x in t
        ]
        f = tmp_path / "cm.csv"
        f.write_text("\n".join(lines) + "\n")
        r = run("from-cm", "--route", "integrate", "--input", str(f),
                "--u0-over-R", "-3.885", "--preset", "copper-nitrate-calorimetric")
        assert r.returncode == 0
        _, rows = csv_rows(r.stdout)
        assert_allclose(float(rows[0][1]), -0.398586, atol=2e-3)

    def test_integrate_needs_some_source(self):
        r = run("from-cm", "--route", "integrate",
                "--preset", "copper-nitrate-calorimetric")
        assert r.returncode == 2

    def test_tail_flags_must_pair(self):
        r = run("from-cm", "--route", "integrate", "--tail-a", "6.6",
                "--preset", "copper-nitrate-calorimetric")
        assert r.returncode == 2


class TestFit:
    def chi_file(self, tmp_path, n=25, t_max=20.0):
        import numpy as np
        from dimer_discord.dimer_core import DimerParameters
        from dimer_discord.thermo import susceptibility

        p = DimerParameters(-2.56, 2.11)
        t = np.linspace(1.5, t_max, n)
        lines = ["T_K,chi_emu_per_mol"] + [
            f"{x:.10g},{susceptibility(p, float(x)):.12g}" for x in t
        ]
        f = tmp_path / "chi.csv"
        f.write_text("\n".join(lines) + "\n")
        return f

    def test_recovers_parameters(self, tmp_path):
        f = self.chi_file(tmp_path)
        r = run("fit", "--input", str(f), "--J-over-kB", "-2", "--g-factor", "2")
        assert r.returncode == 0
        got = dict(
            line.split(" = ") for line in r.stdout.strip().split("\n") if " = " in line
        )
        assert got["converged"] == "true"
        assert_allclose(float(got["J_over_kB_K"]), -2.56, rtol=1e-6)
        assert_allclose(float(got["twoJ_over_kB_K"]), -5.12, rtol=1e-6)
        assert_allclose(float(got["g_factor"]), 2.11, rtol=1e-6)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_g_factor_is_optional_and_changes_nothing(self, tmp_path, capsys, fmt):
        # the fit solves for g: the guess's g, or none, prints the same bytes
        from dimer_discord import cli

        base = ["fit", "--input", str(self.chi_file(tmp_path)), "--J-over-kB", "-2"]
        outputs = []
        for g in ([], ["--g-factor", "2"], ["--g-factor", "1.3"], ["--g-tensor", "1.9", "2", "2.3"]):
            assert cli.main([*base, *g, "--format", fmt]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0].err == "" and outputs[0].out
        assert all(o == outputs[0] for o in outputs)

    def test_json_format(self, tmp_path):
        f = self.chi_file(tmp_path)
        r = run("fit", "--input", str(f), "--J-over-kB", "-2", "--g-factor", "2",
                "--format", "json")
        out = json.loads(r.stdout)
        assert out["converged"] is True
        assert_allclose(out["J_over_kB_K"], -2.56, rtol=1e-6)

    def test_negative_susceptibility_is_an_error(self, tmp_path):
        f = tmp_path / "chi.csv"
        f.write_text("T_K,chi_emu_per_mol\n2,-0.1\n3,-0.12\n4,-0.11\n6,-0.09\n")
        r = run("fit", "--input", str(f), "--J-over-kB", "-2", "--g-factor", "2")
        assert r.returncode == 1
        assert r.stdout == ""
        assert r.stderr.startswith("error: best g^2 is -")
        assert "Traceback" not in r.stderr

    def test_no_minimum_on_the_guess_branch(self, tmp_path):
        # rising with T, as below the antiferro peak near 3.2 K: no ferro curve fits
        f = self.chi_file(tmp_path, n=8, t_max=3.0)
        r = run("fit", "--input", str(f), "--J-over-kB", "2", "--g-factor", "2")
        assert r.returncode == 1
        assert "converged = false" in r.stdout
        assert r.stderr == "fit did not converge; best parameters so far reported\n"

    def test_too_few_points(self, tmp_path):
        f = tmp_path / "chi.csv"
        f.write_text("T_K,chi_emu_per_mol\n2.0,0.1\n4.0,0.12\n")
        r = run("fit", "--input", str(f), "--J-over-kB", "-2", "--g-factor", "2")
        assert r.returncode == 2


class TestTheory:
    def test_entanglement_zero_past_death(self):
        r = run("theory", "--J-over-kB", "-1", "--t-min", "2", "--t-max", "3",
                "--n-points", "3", "--grid", "linear")
        header, rows = csv_rows(r.stdout)
        e_col = header.index("E")
        assert all(float(row[e_col]) == 0 for row in rows)

    def test_row_count_and_monotone_t(self):
        r = run("theory", "--preset", "copper-nitrate-magnetometric", "--n-points", "7")
        _, rows = csv_rows(r.stdout)
        assert len(rows) == 7
        t = [float(row[0]) for row in rows]
        assert t == sorted(t)

    @pytest.mark.parametrize("j, g", [("-2", "-1"), ("2", "0.333333")])
    def test_grid_from_the_smallest_double(self, j, g):
        # 2|J|/T overflows a double at T = 5e-324 K; G takes its T -> 0 limit
        r = run("theory", f"--J-over-kB={j}", "--t-min", "5e-324", "--t-max", "1",
                "--n-points", "3", env={"PYTHONWARNINGS": "error"})
        assert (r.returncode, r.stderr) == (0, "")
        _, rows = csv_rows(r.stdout)
        assert [row[1] for row in rows[:2]] == [g, g]

    def test_json_has_meta(self):
        r = run("theory", "--preset", "copper-acetate-hydrate", "--n-points", "5",
                "--format", "json")
        out = json.loads(r.stdout)
        assert out["meta"]["preset"] == "copper-acetate-hydrate"
        assert out["meta"]["channel"] == "theory"
        assert len(out["rows"]) == 5


class TestFigure:
    def test_figure3_endpoints(self):
        r = run("figure", "3", "--n-points", "9")
        _, rows = csv_rows(r.stdout)
        assert rows[0][:2] == ["-1", "1"]
        assert rows[-1][0].startswith("0.333333")
        assert rows[-1][1].startswith("0.333333")

    def test_figure4_peak_height_bounded(self):
        r = run("figure", "4", "--n-points", "400")
        _, rows = csv_rows(r.stdout)
        peak = max(float(row[1]) for row in rows)
        assert peak <= 1.0234905543865051 + 1e-9
        assert peak > 1.02

    def test_figure1_entanglement_dies_on_grid(self):
        r = run("figure", "1", "--n-points", "200")
        header, rows = csv_rows(r.stdout)
        e_col = header.index("E")
        assert float(rows[0][e_col]) > 0.9  # near the singlet at low T
        assert float(rows[-1][e_col]) == 0  # dead at kT = 5 |J|

    def test_figure5_kelvin_grid(self):
        r = run("figure", "5", "--n-points", "50")
        header, rows = csv_rows(r.stdout)
        assert header[0] == "T_K"
        assert float(rows[0][0]) == 1
        assert float(rows[-1][0]) == 500

    def test_ferro_figures_have_no_entanglement(self):
        for fig in ("2", "6"):
            r = run("figure", fig, "--n-points", "40")
            header, rows = csv_rows(r.stdout)
            e_col = header.index("E")
            q_col = header.index("Q")
            assert all(float(row[e_col]) == 0 for row in rows)
            assert all(float(row[q_col]) >= 0 for row in rows)
            assert any(float(row[q_col]) > 0.3 for row in rows)  # near 1/3 cold

    def test_unknown_figure(self):
        assert run("figure", "9").returncode == 2


class TestPrecisionEnv:
    def test_more_digits(self):
        r = run("from-neutron", "--G=-0.54", env={"DIMER_DISCORD_PRECISION": "9"})
        _, rows = csv_rows(r.stdout)
        assert rows[0][3] == "0.301676055"

    def test_invalid_value_is_usage_error(self):
        r = run("landmarks", "--J-over-kB", "-1",
                env={"DIMER_DISCORD_PRECISION": "lots"})
        assert r.returncode == 2
        r = run("landmarks", "--J-over-kB", "-1",
                env={"DIMER_DISCORD_PRECISION": "0"})
        assert r.returncode == 2
