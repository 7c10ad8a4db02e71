import inspect
import json
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dimer_discord import cli, dataio, dimer_core
from dimer_discord.dataio import (
    PRESETS,
    MaterialPreset,
    ResultRecord,
    ResultTable,
    cell_formatter,
    json_text,
    load_series,
    parse_value_with_uncertainty,
    preset,
    result_from_correlator,
    results_from_correlators,
    text_table,
    write_results,
)
from dimer_discord.dimer_core import (
    DimerParameters,
    classical_correlation,
    correlation_set,
    correlator_from_temperature,
    discord,
    measures_from_correlator,
    mutual_information,
)
from dimer_discord.errors import (
    DataError, DataWarning, DimerDiscordError, DomainError, InconsistencyError, PropagationWarning,
)
from dimer_discord.numerics import ValueWithUncertainty, propagate_uncertainty
from test_golden_stdout import assert_same_text


def _raises(text):
    """A check that the block raises a DataError whose text is exactly ``text``."""
    return pytest.raises(DataError, match=f"^{re.escape(text)}$")


class TestLoadSeries:
    def test_basic_susceptibility(self, tmp_path):
        f = tmp_path / "chi.csv"
        f.write_text(
            "# powder record\nT_K,chi_emu_per_mol,sigma_chi\n"
            "4.0,0.126,0.002\n2.0,0.110,0.002\n"
        )
        s = load_series(f, "susceptibility")
        assert s.kind == "susceptibility"
        assert_allclose(s.temperatures, [2.0, 4.0])  # sorted on load
        assert_allclose(s.values, [0.110, 0.126])
        assert_allclose(s.sigmas, [0.002, 0.002])
        assert s.units == "chi_emu_per_mol"
        assert len(s) == 2
        # a series holds arrays: it is no tuple, and it equals only itself
        assert not isinstance(s, tuple) and s != load_series(f, "susceptibility")

    def test_sigma_column_optional(self, tmp_path):
        f = tmp_path / "g.csv"
        f.write_text("T_K,G\n4.0,-0.54\n")
        s = load_series(f, "correlator")
        assert s.sigmas is None

    def test_per_monomer_doubles_values_and_sigmas(self, tmp_path):
        f = tmp_path / "chi.csv"
        f.write_text("T_K,chi_emu_per_mol,sigma_chi\n4.0,0.063,0.001\n")
        s = load_series(f, "susceptibility", normalization="per_monomer")
        assert_allclose(s.values, [0.126])
        assert_allclose(s.sigmas, [0.002])
        assert_allclose(s.temperatures, [4.0])  # temperatures never rescale

    def test_joule_units_divide_by_gas_constant(self, tmp_path):
        f = tmp_path / "cm.csv"
        f.write_text("T_K,cm_J_per_mol_K\n4.0,3.43\n")
        s = load_series(f, "specific_heat")
        assert_allclose(s.values, [3.43 / 8.31446261815324], rtol=1e-12)
        assert s.units == "cm_over_R"  # canonical tag after conversion

    @pytest.mark.parametrize("normalization, factor", [("per_dimer", 1.0), ("per_monomer", 2.0)])
    def test_joule_values_and_sigmas_take_one_product(self, tmp_path, normalization, factor):
        # each value and sigma is the file's number times one factor, (1/R) times the doubling
        f = tmp_path / "cm.csv"
        f.write_text("T_K,cm_J_per_mol_K,sigma\n4.0,3.43,0.07\n2.0,1.1,0.05\n")
        s = load_series(f, "specific_heat", normalization=normalization)
        scale = 1.0 / dataio.R_GAS * factor
        assert s.values.tolist() == [1.1 * scale, 3.43 * scale]
        assert s.sigmas.tolist() == [0.05 * scale, 0.07 * scale]
        assert s.temperatures.tolist() == [2.0, 4.0]
        assert s.units == "cm_over_R"

    def test_correlator_rejects_per_monomer(self, tmp_path):
        f = tmp_path / "g.csv"
        f.write_text("T_K,G\n4.0,-0.54\n")
        with _raises("a correlator has no per-monomer form; it is not extensive"):
            load_series(f, "correlator", normalization="per_monomer")

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        f = tmp_path / "cm.csv"
        f.write_text("# run 7\n\nT_K,cm_over_R\n# mid-file note\n1.0,0.5\n\n2.0,0.9\n")
        s = load_series(f, "specific_heat")
        assert len(s) == 2

    def test_extra_columns_ignored(self, tmp_path):
        f = tmp_path / "g.csv"
        f.write_text("T_K,G,sigma_G,channel,note\n4.0,-0.54,0.09,neutron,ok\n")
        s = load_series(f, "correlator")
        assert_allclose(s.values, [-0.54])
        assert_allclose(s.sigmas, [0.09])

    def test_missing_header_column(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("temp,G\n4.0,-0.5\n")
        with _raises(f"{f}:1: header lacks required column T_K"):
            load_series(f, "correlator")

    def test_wrong_value_column_for_kind(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("T_K,G\n4.0,-0.5\n")
        with _raises(
            f"{f}:1: header has no susceptibility column; expected one of ('chi_emu_per_mol',)"
        ):
            load_series(f, "susceptibility")
        f.write_text("T_K,chi_emu_per_mol\n4.0,0.1\n")
        with _raises(
            f"{f}:1: header has no specific_heat column; "
            "expected one of ('cm_over_R', 'cm_J_per_mol_K')"
        ):
            load_series(f, "specific_heat")

    def test_malformed_row_reports_line_number(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("T_K,G\n4.0,-0.5\n5.0,oops\n")
        with _raises(f"{f}:3: column 'G' has non-numeric value 'oops'"):
            load_series(f, "correlator")

    def test_short_row_reports_line_number(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("T_K,G\n4.0\n")
        with _raises(f"{f}:2: row has 1 fields, header has 2"):
            load_series(f, "correlator")

    def test_nonpositive_temperature_rejected(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("T_K,G\n0.0,-0.5\n")
        with _raises(f"{f}:2: temperature must be positive, got 0"):
            load_series(f, "correlator")
        f.write_text("T_K,G\n4.0,-0.5\n-2.5e-3,-0.5\n")
        with _raises(f"{f}:3: temperature must be positive, got -0.0025"):
            load_series(f, "correlator")

    def test_duplicate_temperature_rejected(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("T_K,G\n4.0,-0.5\n2.5,-0.6\n4.0,-0.5\n")
        with _raises(f"{f}: duplicate temperature 4 K"):
            load_series(f, "correlator")

    def test_partial_sigma_column_rejected(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("T_K,G,sigma_G\n4.0,-0.5,0.1\n5.0,-0.4,\n")
        with _raises(f"{f}: sigma present on some rows but not all"):
            load_series(f, "correlator")

    def test_negative_sigma_rejected(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("T_K,G,sigma_G\n4.0,-0.5,-0.1\n")
        with _raises(f"{f}:2: sigma must be >= 0, got -0.1"):
            load_series(f, "correlator")

    @pytest.mark.parametrize(
        "kind, text, normalization, message",
        [
            # the file's sigma is named, not the doubled one
            ("susceptibility", "T_K,chi_emu_per_mol,sigma_chi\n4.0,0.063,-0.1\n", "per_monomer",
             "sigma must be >= 0, got -0.1"),
            # a subnormal sigma is refused although its product with 1/R rounds to -0.0
            ("specific_heat", "T_K,cm_J_per_mol_K,sigma\n4.0,3.4,-1e-323\n", "per_dimer",
             "sigma must be >= 0, got -9.88131e-324"),
        ],
        ids=["per-monomer", "joule-subnormal"],
    )
    def test_negative_sigma_names_the_files_value(
        self, tmp_path, kind, text, normalization, message
    ):
        f = tmp_path / "bad.csv"
        f.write_text(text)
        with _raises(f"{f}:2: {message}"):
            load_series(f, kind, normalization=normalization)
        # a negative zero is no negative sigma
        f.write_text(text.replace("-0.1", "-0").replace("-1e-323", "-0.0"))
        assert math.copysign(1.0, load_series(f, kind, normalization=normalization).sigmas[0]) < 0

    def test_header_after_comments_and_blank_lines_names_its_lines(self, tmp_path):
        f = tmp_path / "late.csv"
        f.write_text("# run 7\n\n   \n# T in kelvin\ntemp,G\n4.0,-0.5\n")
        with _raises(f"{f}:5: header lacks required column T_K"):
            load_series(f, "correlator")
        f.write_text("# run 7\n\n# T in kelvin\nT_K,G\n4.0,-0.5\n\n# note\n5.0,-0.4,1\n")
        with _raises(f"{f}:8: row has 3 fields, header has 2"):
            load_series(f, "correlator")

    @pytest.mark.parametrize(
        "row, message",
        [
            ("0,oops,-1", "row has 3 fields, header has 2"),
            ("x,oops", "column 'T_K' has non-numeric value 'x'"),
            ("0,oops", "temperature must be positive, got 0"),
            ("inf,oops", "column 'T_K' is not finite"),
            ("4,nan", "column 'G' is not finite"),
        ],
        ids=["width-first", "t-parse", "t-sign", "t-finite", "value-after-t"],
    )
    def test_the_earlier_check_of_a_row_wins(self, tmp_path, row, message):
        f = tmp_path / "bad.csv"
        f.write_text(f"T_K,G\n{row}\n")
        with _raises(f"{f}:2: {message}"):
            load_series(f, "correlator")

    def test_a_row_fault_wins_over_an_earlier_duplicate_temperature(self, tmp_path):
        # a file's faults are looked for only once every row has been read
        f = tmp_path / "bad.csv"
        f.write_text("T_K,G\n4.0,-0.5\n4.0,-0.4\n2.0,-0.6\n5.0,oops\n")
        with _raises(f"{f}:5: column 'G' has non-numeric value 'oops'"):
            load_series(f, "correlator")

    def test_an_overflow_wins_over_a_partial_sigma_column(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("T_K,chi_emu_per_mol,sigma_chi\n2,0.1,\n3,1e308,0.001\n")
        with _raises(f"{f}:3: column 'chi_emu_per_mol' value '1e308' overflows a double per dimer"):
            load_series(f, "susceptibility", normalization="per_monomer")

    @pytest.mark.parametrize("pad", ["\x1c", "\x1d", "\x1e", "\x1f", "\xa0", "\u3000", "\t"])
    def test_a_field_padded_as_str_strip_strips_loads(self, tmp_path, pad):
        # float() takes none of \x1c-\x1f around a number, which str.strip() removes
        f = tmp_path / "padded.csv"
        f.write_text(
            f"T_K,G,sigma_G\n{pad}4.0{pad},-0.5{pad},{pad}0.1\n2.0,{pad}-0.6,0.2{pad}\n",
            encoding="utf-8",
        )
        s = load_series(f, "correlator")
        assert (s.temperatures.tolist(), s.values.tolist(), s.sigmas.tolist()) == (
            [2.0, 4.0], [-0.6, -0.5], [0.2, 0.1])

    def test_a_sigma_column_blank_on_every_row_is_none(self, tmp_path):
        f = tmp_path / "blank.csv"
        f.write_text("T_K,sigma_G,G\n4.0,,-0.5\n2.0, ,-0.6\n3.0,\x1c,-0.55\n", encoding="utf-8")
        s = load_series(f, "correlator")
        assert s.sigmas is None and s.values.tolist() == [-0.6, -0.55, -0.5]

    @pytest.mark.parametrize(
        "row, message",
        [
            ("4,oops,-1", "column 'chi_emu_per_mol' has non-numeric value 'oops'"),
            ("4,1e308,-1", "column 'chi_emu_per_mol' value '1e308' overflows a double per dimer"),
            ("4,0.1,-1e308", "column 'sigma_chi' value '-1e308' overflows a double per dimer"),
            ("4,0.1,-inf", "column 'sigma_chi' is not finite"),
        ],
        ids=["value-parse", "value-overflow", "sigma-overflow", "sigma-finite"],
    )
    def test_value_checks_precede_the_sigma_sign(self, tmp_path, row, message):
        f = tmp_path / "bad.csv"
        f.write_text(f"T_K,chi_emu_per_mol,sigma_chi\n{row}\n")
        with _raises(f"{f}:2: {message}"):
            load_series(f, "susceptibility", normalization="per_monomer")

    def test_header_only_file_is_an_empty_series(self, tmp_path):
        f = tmp_path / "empty.csv"
        f.write_text("T_K,G\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            s = load_series(f, "correlator")
        assert len(s) == 0 and caught == []  # numpy's reader warns of a file without rows

    def test_byte_order_mark_and_crlf_line_ends(self, tmp_path):
        # as a spreadsheet exports it
        f = tmp_path / "export.csv"
        f.write_bytes(b"\xef\xbb\xbfT_K,chi_emu_per_mol\r\n4.0,0.126\r\n2.0,0.110\r\n")
        s = load_series(f, "susceptibility")
        assert_allclose(s.temperatures, [2.0, 4.0])
        assert_allclose(s.values, [0.110, 0.126])
        assert s.units == "chi_emu_per_mol"

    @pytest.mark.parametrize(
        "separator", ["\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
    )
    def test_only_a_line_end_ends_a_line(self, tmp_path, separator):
        # a form feed or a Unicode separator inside a comment leaves it one comment
        f = tmp_path / "paged.csv"
        f.write_text(f"# note{separator} page 2\nT_K,G\n4.0,-0.54\n", encoding="utf-8")
        s = load_series(f, "correlator")
        assert_allclose(s.values, [-0.54])

    def test_bad_value_after_a_paged_comment_names_its_line(self, tmp_path):
        f = tmp_path / "paged.csv"
        f.write_text("# note\x0c page 2\nT_K,G\n4.0,-0.54\n5.0,oops\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"paged\.csv:4: column 'G' has non-numeric value"):
            load_series(f, "correlator")

    @pytest.mark.parametrize(
        "text, kwargs, message",
        [
            ("T_K,G\n4.0,nan\n", {}, r"x\.csv:2: column 'G' is not finite"),
            (None, {}, r"cannot read .*x\.csv"),
            ("# a comment only\n\n", {}, r"x\.csv: no header line found"),
            (
                "T_K,G\n4.0,-0.5\n",
                {"normalization": "per_pair"},
                "normalization must be per_dimer or per_monomer, got 'per_pair'",
            ),
        ],
        ids=["non-finite-field", "unreadable-path", "no-header", "bad-normalization"],
    )
    def test_bad_input_rejected(self, tmp_path, text, kwargs, message):
        f = tmp_path / "x.csv"
        if text is not None:
            f.write_text(text)
        with pytest.raises(DataError, match=message):
            load_series(f, "correlator", **kwargs)

    @pytest.mark.parametrize(
        "row, column",
        [("3,1e308,0.001", "chi_emu_per_mol"), ("3,0.1,1e308", "sigma_chi")],
        ids=["value", "sigma"],
    )
    def test_per_monomer_field_that_doubles_past_a_double_is_refused(self, tmp_path, row, column):
        f = tmp_path / "x.csv"
        f.write_text(f"T_K,chi_emu_per_mol,sigma_chi\n2,0.1,0.001\n{row}\n")
        assert load_series(f, "susceptibility").values[1] in (1e308, 0.1)  # finite per dimer
        with pytest.raises(
            DataError, match=rf"x\.csv:3: column '{column}' value '1e308' overflows a double per dimer"
        ):
            load_series(f, "susceptibility", normalization="per_monomer")
        f.write_text(f"T_K,chi_emu_per_mol,sigma_chi\n{row.replace('1e308', '8.9e307')}\n")
        series = load_series(f, "susceptibility", normalization="per_monomer")
        assert 1.78e308 in (series.values[0], series.sigmas[0])

    def test_no_unit_option(self):
        assert list(inspect.signature(load_series).parameters) == ["path", "kind", "normalization"]

    def test_unknown_kind(self, tmp_path):
        f = tmp_path / "x.csv"
        f.write_text("T_K,G\n4.0,-0.5\n")
        with _raises(
            "kind must be one of ('susceptibility', 'specific_heat', 'correlator'), "
            "got 'magnetization'"
        ):
            load_series(f, "magnetization")


class TestPresets:
    def test_registry_contents(self):
        expected = {
            "copper-nitrate-calorimetric": (-2.59, None),
            "copper-nitrate-magnetometric": (-2.56, 2.11),
            "copper-acetate-hydrate": (-204.0, 2.13),
            "copper-acetate-anhydrous": (-216.0, 2.17),
            "cu2l-oac-ferro": (35.4, 2.13),
        }
        assert set(PRESETS) == set(expected)
        for name, (j, g) in expected.items():
            m = preset(name)
            assert isinstance(m, MaterialPreset)
            assert m.j_over_kb == j
            assert m.g_factor == g
            p = m.parameters
            assert p.j_over_kb == j
            assert p.antiferro == (j < 0)

    def test_unknown_name_lists_known_ones(self):
        with pytest.raises(DataError, match="copper-nitrate-calorimetric"):
            preset("copper-sulfate")


class TestResultRecord:
    def test_unknown_channel_rejected(self):
        with pytest.raises(DataError):
            result_from_correlator(4.0, ValueWithUncertainty(-0.54), "muon")

    def test_an_unhashable_channel_is_refused_by_name(self):
        # it was hashed first, and leaked a bare TypeError
        with _raises(f"channel must be one of {dataio._CHANNELS}, got ['neutron']"):
            result_from_correlator(4.0, ValueWithUncertainty(-0.54), ["neutron"])

    @pytest.mark.parametrize("g", [-0.4, (-0.4, 0.01), None])
    def test_a_correlator_that_is_not_a_value_with_uncertainty_is_refused(self, g):
        # a float or a plain tuple leaked AttributeError: 'float' object has no attribute 'value'
        text = f"result_from_correlator takes a ValueWithUncertainty, got {g!r}"
        with pytest.raises(DomainError, match=f"^{re.escape(text)}$"):
            result_from_correlator(4.0, g, "neutron")

    def test_a_warning_names_the_callers_line(self):
        with pytest.warns(DataWarning) as caught:
            line = inspect.currentframe().f_lineno + 1
            result_from_correlator(4.0, ValueWithUncertainty(-1.005, 0.001), "neutron")
        assert [(w.filename, w.lineno) for w in caught] == [(__file__, line)]

    def test_replace_changes_a_field(self):
        rec = result_from_correlator(None, ValueWithUncertainty(-0.54), "neutron")
        assert rec._replace(channel="theory").channel == "theory"

    def test_t_is_read_as_a_temperature(self):
        # a t that is not None is a positive float; the writer prints it
        g = ValueWithUncertainty(-0.5)
        for t, text in (
            ("4", "temperature must be a real number, got '4'"),
            (-1.0, "temperature must be positive, got -1.0"),
            (math.nan, "temperature must be positive, got nan"),
        ):
            with pytest.raises(DomainError) as info:
                result_from_correlator(t, g, "neutron")
            assert str(info.value) == text
        rec = result_from_correlator(np.float64(4.0), g, "neutron")
        assert type(rec.t) is float and rec == result_from_correlator(4.0, g, "neutron")

    def test_sigma_propagation(self):
        rec = result_from_correlator(4.0, ValueWithUncertainty(-0.54, 0.09), "neutron")
        assert_allclose(rec.discord.value, 0.301676054618512, rtol=1e-12)
        assert_allclose(rec.discord.sigma, 0.0910441098866698, rtol=1e-10)
        assert_allclose(rec.entanglement, 0.16671039951657748, rtol=1e-10)

    def test_zero_sigma_propagates_zero(self):
        rec = result_from_correlator(4.0, ValueWithUncertainty(-0.54), "theory")
        assert rec.discord.sigma == 0.0

    def test_sigma_row_reuses_the_central_discord(self, monkeypatch):
        # closed-form evaluations, counted where either module takes them
        calls = []
        information = dimer_core._information
        for module in (dimer_core, dataio):
            monkeypatch.setattr(
                module, "_information", lambda g: calls.append(g) or information(g)
            )
        g = ValueWithUncertainty(-0.54, 0.09)
        rec = result_from_correlator(4.0, g, "neutron")
        # the measures, then the discord at the two secant ends; the centre
        # was a fourth evaluation when the secant recomputed it
        assert len(calls) == 3
        up, down = discord(g.value + g.sigma), discord(g.value - g.sigma)
        assert rec == ResultRecord(
            t=4.0,
            correlator=g,
            discord=ValueWithUncertainty(discord(g.value), 0.5 * abs(up - down)),
            classical=classical_correlation(g.value),
            mutual_information=mutual_information(g.value),
            entanglement=measures_from_correlator(g.value).entanglement,
            channel="neutron",
        )

    def test_no_sigma_takes_no_secant(self, monkeypatch):
        # with no sigma the secant ends are the centre: the discord is not taken again there
        calls = []
        information = dimer_core._information
        for module in (dimer_core, dataio):
            monkeypatch.setattr(
                module, "_information", lambda g: calls.append(g) or information(g)
            )
        rec = result_from_correlator(4.0, ValueWithUncertainty(-0.54), "neutron")
        assert len(calls) == 1
        g = np.array([-0.54, -1.005, 0.2])
        table, remarks = dataio._measured_results(np.ones(3), g, np.zeros(3), "neutron")
        assert len(calls) == 2 and table.sigma_discord.tolist() == [0.0] * 3
        assert rec.discord == ValueWithUncertainty(discord(-0.54), 0.0)
        assert table.discord.tolist() == discord(np.clip(g, -1.0, 1.0 / 3)).tolist()
        assert [(i, kind) for i, kind, _ in remarks] == [(1, DataWarning)]

    def test_every_discord_is_the_q_that_information_forms(self, monkeypatch):
        # Q = I - C is formed in dimer_core._information alone: a Q shifted there by 1 moves
        # every discord by exactly 1, and sigma_Q is the secant of the shifted Q at its ends
        g = np.array([-0.95, -0.54, 0.2])  # -0.95 - 0.1 leaves the band: one-sided
        sigma = np.array([0.1, 0.09, 0.0])
        q = discord(g).tolist()
        q_up, q_down = discord(g + sigma).tolist(), discord(np.fmax(g - sigma, -1.0)).tolist()
        measures = measures_from_correlator(g)
        params = DimerParameters(-2.5)
        at_t = correlation_set(params, 4.0)
        information = dimer_core._information

        def shifted(x):
            i, c, q = information(x)
            return i, c, q + 1.0

        for module in (dimer_core, dataio):
            monkeypatch.setattr(module, "_information", shifted)
        moved = [x + 1.0 for x in q]
        assert discord(g).tolist() == moved == [discord(x) for x in g.tolist()]
        got = measures_from_correlator(g)
        assert got.discord.tolist() == moved
        assert [x.tolist() for x in got._replace(discord=measures.discord)] == [
            x.tolist() for x in measures]
        assert correlation_set(params, 4.0) == at_t._replace(discord=at_t.discord + 1.0)
        assert results_from_correlators(np.ones(3), g, "theory").discord.tolist() == moved
        table, _ = dataio._measured_results(np.ones(3), g, sigma, "neutron")
        assert table.discord.tolist() == moved
        assert table.sigma_discord.tolist() == [
            abs((q_up[0] + 1.0) - moved[0]), 0.5 * abs((q_up[1] + 1.0) - (q_down[1] + 1.0)), 0.0
        ]

    def test_float32_correlator_takes_a_double_secant(self):
        # the record stores floats, so the sigma_Q secant ends are doubles
        g32 = ValueWithUncertainty(np.float32(-0.54), np.float32(0.09))
        g = ValueWithUncertainty(float(np.float32(-0.54)), float(np.float32(0.09)))
        assert g32 == g and [type(x) for x in g32] == [float, float]
        rec = result_from_correlator(4.0, g32, "neutron")
        assert rec == result_from_correlator(4.0, g, "neutron")
        up, down = discord(g.value + g.sigma), discord(g.value - g.sigma)
        assert rec.discord.sigma == 0.5 * abs(up - down)


def record_table(*records):
    """The table of ``records``, one row each: list columns, as the README builds one."""
    return ResultTable(*zip(*(
        (r.t, *r.correlator, *r.discord, r.classical, r.mutual_information, r.entanglement,
         r.channel)
        for r in records
    )))


# one --G point of each kind the measured path tells apart, with the class it raises or warns
POINT_KINDS = {
    "in-band": ("-0.54(9)", None),
    "clamped-low": ("-1.005(10)", DataWarning),
    "clamped-high": ("0.336(2)", DataWarning),
    "one-sided-sigma": ("-0.995(10)", PropagationWarning),
    "undefined-sigma": ("-0.3(11)", DomainError),
    "out-of-band": ("-1.5(1)", InconsistencyError),
}


def point_outcome(t, point, channel):
    """The record of the ``--G`` text ``point``, or what it raises, and the
    ``(class, text)`` of each warning it gives."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            got = result_from_correlator(t, parse_value_with_uncertainty(point), channel)
        except DimerDiscordError as exc:
            got = exc
    return got, [(w.category, str(w.message)) for w in caught]


@pytest.mark.parametrize("point, kind", POINT_KINDS.values(), ids=list(POINT_KINDS))
def test_a_record_is_the_row_from_neutron_prints(point, kind, monkeypatch, capsys):
    # the library clamps, warns and raises as the CLI does: one path for a point
    got, caught = point_outcome(4.0, point, "neutron")
    monkeypatch.setenv("DIMER_DISCORD_PRECISION", "17")
    code = cli.main(["from-neutron", f"--G={point}", "--T", "4"])
    out, err = capsys.readouterr()
    if isinstance(got, Exception):
        assert type(got) is kind and not caught
        assert (code, out, err) == (1, "", f"error: {got}\n")
        return
    assert [category for category, _ in caught] == ([kind] if kind else [])
    assert err == "".join(f"{category.__name__}: {text}\n" for category, text in caught)
    assert code == 0 and out == write_results(record_table(got), precision=17).decode()
    assert type(got.t) is float and got.t == 4.0


@pytest.mark.parametrize("t", [None, 4.0])
@pytest.mark.parametrize("channel", ["magnetometric", "calorimetric", "theory"])
def test_a_point_is_named_by_its_channel(channel, t):
    # a magnetometric point was named a susceptibility, and without t raised a bare TypeError
    def named(text):
        return text.replace("neutron point", f"{channel} point")

    for point, _ in POINT_KINDS.values():
        neutron, neutron_caught = point_outcome(4.0, point, "neutron")
        got, caught = point_outcome(t, point, channel)
        assert caught == [(category, named(text)) for category, text in neutron_caught]
        if isinstance(neutron, Exception):
            assert type(got) is type(neutron) and str(got) == named(str(neutron))
        else:
            assert got == neutron._replace(t=t, channel=channel)
    assert point_outcome(t, "-1.005(10)", channel)[1] == [(DataWarning, (
        f"{channel} point implies correlator -1.005; clamped to -1; "
        "lower endpoint outside the function domain; sigma_Q taken one-sided"
    ))]


# A float point runs the column body on floats, as its own row: each kind of point the
# measured path tells apart, drawn from a seed, must give what the same point gives as a
# one-element column, in bits, in the class of what it warns or raises, and in its text.
THIRD = 1.0 / 3.0
MEASURED_KINDS = {  # (g, sigma) from a generator, and the class of the point's one remark
    "unflagged": (lambda u: (u(-0.99, 0.32), u(0.0, 0.01)), None),
    "sigma-zero": (lambda u: (u(-1.0, THIRD), 0.0), None),
    "clamped-low": (lambda u: (u(-1.0099, -1.0), u(0.0, 0.1)), DataWarning),
    "clamped-high": (lambda u: (u(THIRD, THIRD + 0.0099), u(0.0, 0.1)), DataWarning),
    "one-sided-lower": (lambda u: (u(-0.999, -0.99), u(0.02, 0.5)), PropagationWarning),
    "one-sided-upper": (lambda u: (u(0.32, 0.333), u(0.02, 0.5)), PropagationWarning),
    "undefined": (lambda u: (u(-0.4, -0.2), u(1.5, 3.0)), DomainError),
    "out-of-band-low": (lambda u: (u(-3.0, -1.0101), u(0.0, 0.1)), InconsistencyError),
    "out-of-band-high": (lambda u: (u(0.3434, 2.0), u(0.0, 0.1)), InconsistencyError),
}


def _bits(cells):
    return np.array(cells, dtype=float).tobytes()


@pytest.mark.parametrize("seed", range(3))
def test_a_float_point_is_its_one_element_column(seed):
    rng = np.random.default_rng(seed)
    for name, (draw, kind) in MEASURED_KINDS.items():
        for _ in range(25):
            g, sigma = draw(rng.uniform)
            t = None if rng.uniform() < 0.25 else rng.uniform(0.1, 300.0)
            row, remarks = dataio._measured_results(t, g, sigma, "neutron")
            table, column_remarks = dataio._measured_results(
                np.array([1.0 if t is None else t]), np.array([g]), np.array([sigma]), "neutron"
            )
            assert remarks == column_remarks, (name, g, sigma)
            assert [k for _, k, _ in remarks] == ([kind] if kind else []), (name, g, sigma)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    got = result_from_correlator(t, ValueWithUncertainty(g, sigma), "neutron")
                except DimerDiscordError as exc:
                    got = exc
            if kind is not None and not issubclass(kind, Warning):  # dropped: raised as said
                assert len(table.t) == 0 and not caught
                assert (type(got), str(got)) == (kind, remarks[0][2])
                continue
            assert [(w.category, str(w.message)) for w in caught] == [r[1:] for r in remarks]
            column_row = [column[0] for column in table]
            assert row[0] == t and column_row[0] == (1.0 if t is None else t)
            assert _bits(row[1:8]) == _bits(column_row[1:8]) and row[8] == column_row[8]
            record = (got.t, *got.correlator, *got.discord, got.classical,
                      got.mutual_information, got.entanglement, got.channel)
            assert record[0] == t and _bits(record[1:8]) == _bits(row[1:8])


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("channel", ["neutron", "magnetometric"])
def test_a_float_point_keeps_float_cells_in_both_channels(channel, seed):
    # a float chi point left the float path (the chi kernel took arrays only, so its row held
    # numpy floats): each kind of point, a correlator or the susceptibility Bleaney-Bowers
    # gives for it, is its one-element column's row in bits and remark in text, in floats
    rng = np.random.default_rng([seed, len(channel)])
    g_factor = 2.11 if channel == "magnetometric" else None
    per_g = dimer_core.CODATA.curie_prefactor * 2.11**2 / 2.0  # chi T per unit of 1 + G
    kinds = set()
    for draw, _ in MEASURED_KINDS.values():
        for _ in range(25):
            g, sigma = draw(rng.uniform)
            t = rng.uniform(0.1, 300.0)
            if g_factor is not None:
                g, sigma = (1.0 + g) * per_g / t, sigma * per_g / t
            row, remarks = dataio._measured_results(t, g, sigma, channel, g_factor)
            table, column_remarks = dataio._measured_results(
                np.array([t]), np.array([g]), np.array([sigma]), channel, g_factor)
            assert remarks == column_remarks, (channel, g, sigma)
            assert [type(cell) for cell in row] == [float] * 8 + [str], (channel, g, sigma)
            kinds |= {kind for _, kind, _ in remarks} or {None}
            if len(table.t):
                assert _bits(row[:8]) == _bits([column[0] for column in table[:8]])
            else:  # dropped: its remark is what the scalar path raises
                assert not issubclass(remarks[0][1], Warning)
    assert {None, DataWarning, PropagationWarning, InconsistencyError, DomainError} == kinds


class TestResultTable:
    def columns(self, n=3):
        g = np.linspace(-0.9, 0.3, n)
        m = measures_from_correlator(g)
        zeros = np.zeros(n)
        return dict(
            t=np.linspace(1.0, 3.0, n),
            correlator=g,
            sigma_correlator=zeros,
            discord=m.discord,
            sigma_discord=zeros,
            classical=m.classical,
            mutual_information=m.mutual_information,
            entanglement=m.entanglement,
            channel=["theory"] * n,
        )

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_internal_consistency_enforced_per_row(self, fmt):
        cols = self.columns()
        assert write_results(ResultTable(**cols), fmt)
        cols["discord"] = cols["discord"] + np.array([0.0, 1e-6, 0.0])
        with pytest.raises(InconsistencyError, match="discord does not equal"):
            write_results(ResultTable(**cols), fmt)

    def test_unknown_channel_rejected(self):
        cols = self.columns()
        cols["channel"] = ["theory", "muon", "theory"]
        with pytest.raises(DataError, match="'muon'"):
            write_results(ResultTable(**cols))

    def test_an_unhashable_channel_cell_is_refused_by_name(self):
        cols = self.columns()
        cols["channel"] = ["theory", ["theory"], "muon"]
        with _raises(f"channel must be one of {dataio._CHANNELS}, got ['theory']"):
            write_results(ResultTable(**cols))

    def test_an_exact_table_refuses_an_unknown_channel(self):
        # the point path refused it, and the column path returned a table
        with _raises(f"channel must be one of {dataio._CHANNELS}, got 'muon'"):
            results_from_correlators([1.0], [-0.4], "muon")

    def test_ragged_columns_rejected(self):
        cols = self.columns()
        cols["t"] = cols["t"][:2]
        with pytest.raises(DataError):
            write_results(ResultTable(**cols))

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("bad", [-1.0, 0.0, math.nan, math.inf])
    def test_temperature_refused_as_a_record_refuses_it(self, fmt, bad):
        # T_K printed -1 and nan, and JSON raised a bare ValueError for the nan
        with pytest.raises(DomainError) as info:
            result_from_correlator(bad, ValueWithUncertainty(-0.5), "theory")
        text = str(info.value)
        assert text == f"temperature must be positive, got {bad!r}"
        for t in (np.array([1.0, bad, -2.0]), [None, bad, -2.0]):
            cols = self.columns()
            cols["t"], cols["channel"] = t, ["theory", "muon", "theory"]  # t is read first
            with pytest.raises(DomainError) as info:
                write_results(ResultTable(**cols), fmt)
            assert str(info.value) == text

    def test_a_row_without_temperature_is_written_empty(self):
        cols = self.columns()
        cols["t"] = [None, 2.0, 3.0]
        assert write_results(ResultTable(**cols)).split(b"\n")[1].startswith(b",")
        assert json.loads(write_results(ResultTable(**cols), "json"))["rows"][0]["T_K"] is None

    def test_a_built_row_without_temperature_is_written_empty(self):
        # the builder turned None into NaN, and the writer refused the row
        table = results_from_correlators([None, 2.0], [-0.5, -0.5], "theory")
        assert table.t == [None, 2.0]
        rows = write_results(table).decode().splitlines()
        assert rows[1] == "," + rows[2].partition(",")[2]
        assert rows[2].startswith("2,-0.5,")
        doc = json.loads(write_results(table, "json"))
        assert [row.pop("T_K") for row in doc["rows"]] == [None, 2.0]
        assert doc["rows"][0] == doc["rows"][1]
        # without a None, a sequence still becomes a float array
        assert isinstance(results_from_correlators((1.0, 2.0), [-0.5, -0.5], "theory").t, np.ndarray)

    def test_only_a_table_is_written(self):
        # a record leaked a bare TypeError: object of type 'float' has no len()
        rec = result_from_correlator(4.0, ValueWithUncertainty(-0.5), "theory")
        for x, name in ((rec, "ResultRecord"), (tuple(record_table(rec)), "tuple"), ({}, "dict")):
            for fmt in ("csv", "json"):
                with pytest.raises(DataError) as info:
                    write_results(x, fmt)
                assert str(info.value) == f"write_results takes a ResultTable, got {name}"
        assert write_results(record_table(rec)).startswith(b"T_K,G,")

    @pytest.mark.parametrize("form", ["list", "array", "object-array"])
    @pytest.mark.parametrize("column", ResultTable._fields[1:-1])
    def test_a_float_column_is_read_as_an_input(self, column, form):
        # a string cell was printed as it is, or let a bare TypeError or ValueError out
        cols = self.columns(2)
        cells = [cols[column][0], "abc"]
        cols[column] = {
            "list": cells,
            "array": np.array(["0.5", "abc"]),  # a string dtype: its first cell is read first
            "object-array": np.array(cells, dtype=object),
        }[form]
        bad = "0.5" if form == "array" else "abc"
        for fmt in ("csv", "json"):
            with pytest.raises(DomainError) as info:
                write_results(ResultTable(**cols), fmt)
            assert str(info.value) == f"{column} must be a real number, got {bad!r}"

    @pytest.mark.parametrize("form", ["list", "object-array"])
    @pytest.mark.parametrize("column", ResultTable._fields[:-1])
    def test_a_fraction_column_is_written_as_its_floats(self, column, form):
        # a Fraction object array let numpy's signbit TypeError out, and a Fraction cell of a
        # list made json.dumps raise TypeError: the writer printed the cells it had not read
        cols = self.columns(2)
        floats = ResultTable(**cols)
        cells = [Fraction(x) for x in cols[column]]
        cols[column] = cells if form == "list" else np.array(cells, dtype=object)
        for fmt in ("csv", "json"):
            assert write_results(ResultTable(**cols), fmt) == write_results(floats, fmt)

    def test_a_number_cell_is_written_as_its_float(self):
        # a float32 cell made json.dumps raise TypeError, and a bool was written as true
        cols = self.columns(2)
        floats = ResultTable(**{**cols, "t": [2.0, 3.0], "sigma_correlator": [0.25, 1.0],
                                "sigma_discord": [0.5, 0.0]})
        cols.update(t=[2, np.float32(3.0)], sigma_correlator=[np.float32(0.25), True],
                    sigma_discord=np.array([0.5, False], dtype=object))
        for fmt in ("csv", "json"):
            assert write_results(ResultTable(**cols), fmt) == write_results(floats, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("form", ["list", "array"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("column", ResultTable._fields[1:-1])
    def test_a_non_finite_cell_is_refused_by_its_column(self, column, bad, form, fmt):
        # CSV wrote nan (a NaN in Q, I and C passes Q = I - C) and inf (a sigma_G of inf,
        # from a list and from an array), which JSON refused; an infinite Q, C or I alone
        # breaks Q = I - C, which is refused first
        cols = self.columns(2)
        cells = cols[column].tolist()
        cells[1] = bad
        cols[column] = cells if form == "list" else np.array(cells)
        if column in ("discord", "classical", "mutual_information") and math.isinf(bad):
            with pytest.raises(InconsistencyError):
                write_results(ResultTable(**cols), fmt)
            return
        name = dataio._RESULT_COLUMNS[ResultTable._fields.index(column)]
        with _raises(f"{name} in row 2: {bad!r} is not a finite number"):
            write_results(ResultTable(**cols), fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("form", ["list", "array"])
    def test_an_infinite_i_and_c_is_refused_by_name_and_nothing_else(self, form, fmt):
        # I = C = inf in a row: Q = I - C is a NaN there, which passes that check, and numpy
        # warned of the invalid subtraction (raised in place of the refusal under -W error)
        # before the printed-value rule refused the row
        cols = self.columns(2)
        cols["classical"][1] = cols["mutual_information"][1] = math.inf
        if form == "list":  # Q = I - C taken on floats, which warn of nothing
            cols.update({k: cols[k].tolist() for k in ("discord", "classical", "mutual_information")})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with _raises("C in row 2: inf is not a finite number"):
                write_results(ResultTable(**cols), fmt)

    def test_a_column_of_another_shape_is_refused_by_name(self):
        # a table of 2-d columns raised a bare TypeError from the writer, a 0-d column one
        # from len()
        table = results_from_correlators(np.full((2, 2), 2.0), np.full((2, 2), -0.5), "theory")
        with _raises("result column 't' must be a sequence or a 1-d array, got shape (2, 2)"):
            write_results(table)
        cols = self.columns(1)
        for name, column, got in [
            ("correlator", np.array(-0.5), "shape ()"), ("t", 2.0, "float"),
            ("channel", None, "NoneType"),
        ]:
            with _raises(f"result column {name!r} must be a sequence or a 1-d array, got {got}"):
                write_results(ResultTable(**{**cols, name: column}))

    def test_a_0d_column_is_one_row(self):
        # a 0-d t and g raised TypeError: len() of unsized object
        one = results_from_correlators([2.0], [-0.5], "theory")
        for t in (np.array(2.0), 2.0):
            for g in (np.array(-0.5), -0.5):
                table = results_from_correlators(t, g, "theory")
                assert [c.tolist() if isinstance(c, np.ndarray) else c for c in table] == [
                    c.tolist() if isinstance(c, np.ndarray) else c for c in one
                ]
        assert write_results(table) == write_results(one)

    def test_the_g_column_is_the_correlator_measured(self):
        # a G within 1e-9 past an end was printed as given (0.3333333338333333 at p17),
        # beside the measures of the end it was read as, where a record holds that end
        t, g = [2.0, 3.0], [1.0 / 3.0 + 5e-10, -1.0 - 5e-10]
        table = results_from_correlators(t, g, "theory")
        assert table.correlator.tolist() == [1.0 / 3.0, -1.0]
        ends = results_from_correlators(t, [1.0 / 3.0, -1.0], "theory")
        assert write_results(table, precision=17) == write_results(ends, precision=17)
        with pytest.warns(DataWarning):
            records = [result_from_correlator(x, ValueWithUncertainty(y), "theory")
                       for x, y in zip(t, g)]
        assert [r.correlator.value for r in records] == table.correlator.tolist()

    @pytest.mark.parametrize("dtype", [None, object], ids=["own-dtype", "object"])
    @pytest.mark.parametrize("bad", ["string", "complex", "big-int"])
    @pytest.mark.parametrize(
        "column, x, read",
        [
            ("t", 2.0, lambda t: result_from_correlator(t, ValueWithUncertainty(-0.5), "theory")),
            ("g", -0.5, dimer_core.validate_correlator),
        ],
    )
    def test_a_cell_that_is_not_a_real_number_raises_as_the_scalar_does(
        self, column, x, read, bad, dtype
    ):
        # a string cell was converted to its number, where result_from_correlator refused it
        cell = {"string": str(x), "complex": complex(x, 1.0), "big-int": 10**400}[bad]
        cells = np.array([x, cell], dtype=dtype)
        first = next(c for c in cells.tolist() if type(c) is not float)  # the cell it reads first
        columns = {"t": [2.0, 3.0], "g": [-0.5, -0.5], column: cells}
        with pytest.raises(DomainError) as expected:
            read(first)
        with pytest.raises(DomainError) as got:
            results_from_correlators(columns["t"], columns["g"], "theory")
        assert (type(got.value), str(got.value)) == (type(expected.value), str(expected.value))

    @pytest.mark.parametrize(
        "t, g",
        [
            (np.array([True, True]), np.array([False, False])),
            (np.array([2, 255], dtype=np.uint8), np.array([-1, 0])),
            (np.array([Fraction(1, 2), 3], dtype=object), [Fraction(-1, 2), Fraction(-1, 3)]),
        ],
        ids=["bool", "int", "fraction"],
    )
    def test_bool_int_and_fraction_columns_build_the_float_table(self, t, g):
        got = results_from_correlators(t, g, "theory")
        floats = results_from_correlators([float(x) for x in t], [float(x) for x in g], "theory")
        assert got.channel == floats.channel
        for a, b in zip(got[:-1], floats[:-1], strict=True):
            assert a.dtype == b.dtype == np.float64
            assert a.view(np.uint64).tolist() == b.view(np.uint64).tolist()

    def test_columns_equal_the_records_field_by_field(self):
        # result_from_correlator at each point is the reference
        t = np.geomspace(0.5, 3000.0, 300)
        for params in (DimerParameters(-204.0), DimerParameters(35.4)):
            g = correlator_from_temperature(params, t)
            table = results_from_correlators(t, g, "theory")
            columns = [c.tolist() if isinstance(c, np.ndarray) else c for c in table]
            for ti, gi, row in zip(t.tolist(), g.tolist(), zip(*columns, strict=True)):
                r = result_from_correlator(ti, ValueWithUncertainty(gi), "theory")
                assert row == (
                    r.t,
                    r.correlator.value,
                    r.correlator.sigma,
                    r.discord.value,
                    r.discord.sigma,
                    r.classical,
                    r.mutual_information,
                    r.entanglement,
                    r.channel,
                )

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_table_prints_as_the_records_do(self, fmt):
        # one record per point through result_from_correlator, gathered into
        # plain-float columns, is the reference for the array table's bytes
        t = np.geomspace(0.5, 3000.0, 300)
        for params in (DimerParameters(-204.0), DimerParameters(35.4)):
            g = correlator_from_temperature(params, t)
            records = [
                result_from_correlator(ti, ValueWithUncertainty(gi), "theory")
                for ti, gi in zip(t.tolist(), g.tolist())
            ]
            reference = ResultTable(
                t=[r.t for r in records],
                correlator=[r.correlator.value for r in records],
                sigma_correlator=[r.correlator.sigma for r in records],
                discord=[r.discord.value for r in records],
                sigma_discord=[r.discord.sigma for r in records],
                classical=[r.classical for r in records],
                mutual_information=[r.mutual_information for r in records],
                entanglement=[r.entanglement for r in records],
                channel=[r.channel for r in records],
            )
            tables = [
                results_from_correlators(t, g, "theory"),
                results_from_correlators(t.tolist(), g.tolist(), "theory"),
            ]
            for table in tables:
                for precision in (6, 17):
                    assert write_results(table, fmt, preset_name="p", precision=precision) == (
                        write_results(reference, fmt, preset_name="p", precision=precision)
                    )


def neutron_table(t, g, sigma_g):
    """The table the CLI prints for correlators with error bars."""
    sigma_q = [
        propagate_uncertainty(discord, ValueWithUncertainty(*x)).sigma for x in zip(g, sigma_g)
    ]
    table = results_from_correlators(t, g, "neutron")
    return table._replace(sigma_correlator=sigma_g, sigma_discord=sigma_q)


class TestWriteResults:
    def table(self):
        return neutron_table([4.0, 2.0], [-0.54, -0.71], [0.09, 0.05])

    def test_empty_csv_is_header_only(self):
        out = write_results(neutron_table([], [], []), fmt="csv")
        assert out == b"T_K,G,sigma_G,Q,sigma_Q,C,I,E,channel\n"

    def test_csv_values(self):
        out = write_results(self.table(), fmt="csv").decode()
        lines = out.strip().split("\n")
        assert lines[0] == "T_K,G,sigma_G,Q,sigma_Q,C,I,E,channel"
        assert lines[1].startswith("4,-0.54,0.09,0.301676,0.0910441,")
        assert lines[1].endswith(",neutron")
        assert len(lines) == 3

    def test_six_significant_digits_default(self):
        out = write_results(self.table(), fmt="csv").decode()
        assert "0.301676" in out and "0.3016761" not in out

    def test_precision_override(self):
        out = write_results(self.table(), fmt="csv", precision=9).decode()
        assert "0.301676055" in out

    def test_deterministic(self):
        a = write_results(self.table(), fmt="csv", preset_name="x")
        b = write_results(self.table(), fmt="csv", preset_name="x")
        assert a == b

    def test_json_meta_and_rows(self):
        out = json.loads(write_results(self.table(), fmt="json", preset_name="cn"))
        assert out["meta"]["channel"] == "neutron"
        assert out["meta"]["preset"] == "cn"
        assert out["meta"]["units"]["T_K"] == "kelvin"
        assert len(out["rows"]) == 2
        row = out["rows"][0]
        assert set(row) >= {"T_K", "G", "sigma_G", "Q", "sigma_Q", "C", "I", "E"}
        assert_allclose(row["Q"], 0.301676, rtol=1e-6)

    def test_mixed_channels_marked(self):
        table = results_from_correlators([4.0, 4.0], [-0.5, -0.5], "neutron")
        out = json.loads(write_results(table._replace(channel=["neutron", "theory"]), fmt="json"))
        assert out["meta"]["channel"] == "mixed"

    def test_csv_output_reloads_as_correlator_series(self, tmp_path):
        # the writer's schema doubles as a valid correlator input file
        f = tmp_path / "out.csv"
        f.write_bytes(write_results(self.table(), fmt="csv"))
        s = load_series(f, "correlator")
        assert_allclose(s.temperatures, [2.0, 4.0])
        assert_allclose(s.values, [-0.71, -0.54])
        assert_allclose(s.sigmas, [0.05, 0.09])

    def test_unknown_format(self):
        with pytest.raises(DataError):
            write_results(self.table(), fmt="yaml")


class TestParseValueWithUncertainty:
    @pytest.mark.parametrize("text", [None, -0.54, b"-0.54(9)"])
    def test_a_value_that_is_not_text_is_refused_by_name(self, text):
        with _raises(f"value(uncertainty) must be given as text, got {text!r}"):
            parse_value_with_uncertainty(text)

    def test_parenthesis_form(self):
        v = parse_value_with_uncertainty("-0.54(9)")
        assert v.value == -0.54
        assert_allclose(v.sigma, 0.09, rtol=1e-12)

    def test_unicode_minus(self):
        v = parse_value_with_uncertainty("−0.54(9)")
        assert v.value == -0.54

    def test_multi_digit_uncertainty(self):
        v = parse_value_with_uncertainty("1.5(12)")
        assert v.value == 1.5
        assert_allclose(v.sigma, 1.2, rtol=1e-12)

    def test_zero_uncertainty(self):
        assert parse_value_with_uncertainty("-1(0)").sigma == 0.0
        assert parse_value_with_uncertainty("-1(0)").value == -1.0

    def test_bare_number(self):
        v = parse_value_with_uncertainty("0.126")
        assert v.value == 0.126
        assert v.sigma == 0.0

    def test_integer_mantissa(self):
        v = parse_value_with_uncertainty("12(3)")
        assert v.value == 12.0
        assert v.sigma == 3.0

    def test_exponent_applies_to_both(self):
        v = parse_value_with_uncertainty("1.23(4)e-2")
        assert_allclose(v.value, 0.0123, rtol=1e-12)
        assert_allclose(v.sigma, 4e-4, rtol=1e-12)

    def test_malformed(self):
        for text in ("", "abc", "1.2(", "1.2(3", "(3)", "1.2(x)", "--1"):
            with pytest.raises(DataError):
                parse_value_with_uncertainty(text)

    @pytest.mark.parametrize(
        "text, value, sigma",
        [
            ("-0.54(9)", -0.54, 0.09),
            ("-1.2(0)", -1.2, 0.0),
            ("-0.7(3)", -0.7, 0.3),  # not 3 * 0.1 = 0.30000000000000004
            ("-1.1(3)e-5", -1.1e-5, 3e-6),  # not -1.1 * 1e-5
            ("1.25(13)E+2", 125.0, 13.0),
            ("5.(3)", 5.0, 3.0),
            (".5(3)", 0.5, 0.3),
            ("7(12)e-400", 0.0, 0.0),  # both underflow to zero
        ],
    )
    def test_each_number_is_rounded_once(self, text, value, sigma):
        # the float of the decimal string: one correct rounding, no 10.0 ** n scaling
        v = parse_value_with_uncertainty(text)
        assert (v.value.hex(), v.sigma.hex()) == (value.hex(), sigma.hex())

    @pytest.mark.parametrize(
        "text", ["1e999", "1(9)e400", "0.1(" + "9" * 400 + ")", "-2e" + "9" * 5000]
    )
    def test_beyond_the_largest_double_is_a_data_error(self, text):
        with pytest.raises(DataError, match="lies beyond the range of a double"):
            parse_value_with_uncertainty(text)


def test_cell_formatter_writes_other_numbers_with_precision_digits():
    # not a float, str, None, bool or int: formatted as a number
    cell = cell_formatter(6)
    cells = [cell(np.int64(7)), cell(Fraction(1, 3)), cell(np.float32(0.1))]
    assert cells == ["7", "0.333333", "0.1"]


# ---------------------------------------------------------------------------
# the column-wise writer against the row-wise one it replaced


def reference_text_rows(rows, precision, sep=","):
    cell = cell_formatter(precision)
    return "".join([sep.join(map(cell, row)) + "\n" for row in rows])


def reads_back(rows, precision):
    """Whether each float cell's ``%.{precision}g`` string reads back as a finite double."""
    spec = f"%.{precision}g"
    return all(math.isfinite(float(spec % x)) for row in rows for x in row if isinstance(x, float))


def reference_json(doc, precision):
    cell = cell_formatter(precision)

    def rounded(x):
        if isinstance(x, float):
            return float(cell(x))
        if isinstance(x, dict):
            return {k: rounded(v) for k, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [rounded(v) for v in x]
        return x

    return json.dumps(rounded(doc), indent=2, allow_nan=False) + "\n"


FINITE = st.floats(allow_nan=False, allow_infinity=False)
EDGE_FLOATS = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e16, 1.7976931348623157e308])
CELLS = st.one_of(FINITE, EDGE_FLOATS, st.none(), st.text(max_size=5), st.integers(), st.booleans())


@st.composite
def tables(draw, cells=CELLS, floats=st.one_of(FINITE, EDGE_FLOATS)):
    """Columns of one length: float arrays, or lists of mixed cells."""
    n = draw(st.integers(0, 6))
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            columns.append(np.array(draw(st.lists(floats, min_size=n, max_size=n)), dtype=float))
        else:
            columns.append(draw(st.lists(cells, min_size=n, max_size=n)))
    return columns


def as_rows(columns):
    lists = [c.tolist() if isinstance(c, np.ndarray) else list(c) for c in columns]
    return [list(row) for row in zip(*lists)]


def _constant_blocks(columns):
    n = dataio._BLOCK_ROWS
    return [
        [dataio._constant(column[start:start + n]) for start in range(0, len(column), n)]
        for column in columns
    ]


# cells of each number type the writers take as their floats (float32 NaN and inf included)
NUMBER_CELLS = {
    "float32": st.floats(width=32).map(np.float32),
    "float64": st.one_of(FINITE, EDGE_FLOATS, st.just(math.inf)).map(np.float64),
    "int64": st.integers(-2**63, 2**63 - 1).map(np.int64),
    "fraction": st.one_of(FINITE.map(Fraction), st.fractions(-10**6, 10**6)),
}
KEYS = ["T_K", 'a"b', "%s", "Q"]
# where 15 and 16 digits part: 16 digits need not survive the double
# (0.587851162064913 prints 0.5878511620649129), and an exponent of 15 is
# written out in full by repr, 16 is not
BOUNDARY = [0.587851162064913, 2.0 / 3.0, 1e15, 123456789012345.0, 1234567890123456.0, 1e16, 1e-5]


class TestTableWriter:
    @settings(max_examples=150, deadline=None)
    @given(columns=tables(), precision=st.integers(1, 17))
    @example(columns=[np.array([-0.0, 5e-324, 1e16]), [None, 4.0, "theory"]], precision=6)
    @example(columns=[np.array([1e6, 1.23457e15, 1e16]), np.array([-0.0, 5.0, 5e-324])], precision=6)
    @example(columns=[np.array(BOUNDARY), np.array(BOUNDARY[::-1])], precision=15)
    @example(columns=[np.array(BOUNDARY), np.array(BOUNDARY[::-1])], precision=16)
    @example(columns=[[None, 4.0, 1e6], ["theory", "neutron", "%s"]], precision=6)
    def test_csv_matches_row_writer(self, columns, precision):
        header = KEYS[: len(columns)]
        if not reads_back(as_rows(columns), precision):  # a cell rounds past the largest double
            for kwargs in ({"header": header}, {"sep": " = "}):
                with pytest.raises(DataError, match="rounds past the largest double"):
                    text_table(columns, precision, **kwargs)
            return
        expected = reference_text_rows([header, *as_rows(columns)], precision)
        assert text_table(columns, precision, header=header) == expected
        expected = reference_text_rows(as_rows(columns), precision, sep=" = ")
        assert text_table(columns, precision, sep=" = ") == expected

    @settings(max_examples=150, deadline=None)
    @given(
        columns=tables(cells=st.one_of(FINITE, st.none(), st.text(max_size=5), st.integers())),
        precision=st.integers(1, 17),
        keyed=st.booleans(),
        meta=st.one_of(FINITE, st.none(), st.text(max_size=5)),
    )
    @example(
        columns=[np.array([-0.0, 5e-324, 1e16]), [None, 4.0, "theory"]],
        precision=17,
        keyed=True,
        meta=None,
    )
    # the %g string is json's token except for these: 1e+06 and 1.23457e+15
    # are written out in full, 1e+16 is not; -0 and 5 need .0; 5e-324 is
    # 4.94066e-324 at six digits
    @example(
        columns=[np.array([1e6, 1.23457e15, 1e16]), np.array([-0.0, 5.0, 5e-324])],
        precision=6,
        keyed=True,
        meta=1e6,
    )
    @example(columns=[np.array(BOUNDARY), [*BOUNDARY[::-1]]], precision=15, keyed=False, meta=None)
    @example(columns=[np.array(BOUNDARY), [*BOUNDARY[::-1]]], precision=16, keyed=True, meta=None)
    @example(
        columns=[[None, 4.0, 1e6], ["theory", "neutron", "%s"], np.array([0.0, 5.0, 1e15])],
        precision=6,
        keyed=True,
        meta="x",
    )
    # rounds to 2e+308 at one digit, past the largest double: refused in a list too
    @example(columns=[[1.0, 1.7976931348623157e308]], precision=1, keyed=False, meta=None)
    def test_json_matches_dumped_document(self, columns, precision, keyed, meta):
        doc = {"meta": {"value": meta, "units": ["K", "bit"]}, "n": 3, "ok": True}
        rows = as_rows(columns)
        if keyed:
            keys = KEYS[: len(columns)]
            table = [dict(zip(keys, row)) for row in rows]
        else:
            keys = None
            table = rows
        try:
            expected = reference_json({**doc, "rows": table}, precision)
        except ValueError:  # a large float rounds past the largest double
            with pytest.raises(ValueError):
                json_text(doc, precision, rows=columns, keys=keys)
        else:
            assert json_text(doc, precision, rows=columns, keys=keys) == expected

    def test_rows_past_one_block(self):
        # rows are formatted a block at a time; a table over two blocks long
        # reads as the row writer and the dumped document say
        n = 2 * dataio._BLOCK_ROWS + 3
        columns = [
            np.linspace(-1.0, 1e6, n),
            [None if i % 7 == 0 else i / 3.0 for i in range(n)],
            np.zeros(n),
        ]
        expected = reference_text_rows([KEYS[:3], *as_rows(columns)], 6)
        assert text_table(columns, 6, header=KEYS[:3]) == expected
        table = [dict(zip(KEYS, row)) for row in as_rows(columns)]
        assert json_text({}, 6, rows=columns, keys=KEYS[:3]) == reference_json({"rows": table}, 6)

    def test_blocks_holding_one_value(self):
        # a column's block that holds one value is written as one literal:
        # +0.0 and -0.0 blocks stay apart (a block of both is not constant),
        # and a constant string holding % is written as it is
        b = dataio._BLOCK_ROWS
        n = 2 * b + 5
        mixed_zeros = np.zeros(b)
        mixed_zeros[::3] = -0.0
        columns = [
            np.concatenate([np.zeros(b), mixed_zeros, np.full(5, -0.0)]),
            np.concatenate([np.full(b, 1.5), np.linspace(0.1, 0.9, b), np.full(5, 1e16)]),
            ["100%s %d"] * b + [f"r{i}" for i in range(b)] + ["%"] * 5,
            [None] * b + [0.25] * (b + 5),
        ]
        assert _constant_blocks(columns) == [
            [True, False, True], [True, False, True], [True, False, True], [False, False, False],
        ]
        self._check_both_writers(columns, [1, 6, 15, 17])
        assert len(text_table(columns, 6).splitlines()) == n

    def test_list_columns_are_one_field(self):
        # a list column of mixed cells is one field in each block's template:
        # a literal where the block holds one string, and otherwise its cells
        # as the cell formatter writes them, strings as they are
        b = dataio._BLOCK_ROWS
        n = 2 * b + 5
        mixed = [0.25, True, 3, -0.0, 1e16, False, -7, 5e-324, 1e6, None]
        columns = [
            # as landmarks gives its values: a string first, then numbers and flags
            ["antiferro", *(mixed[i % len(mixed)] for i in range(n - 1))],
            [None] * n,
            ["100% %s"] * b + [f"r{i}%" for i in range(b)] + ["neutron", "%d", "", "x", "y"],
        ]
        assert _constant_blocks(columns) == [[False] * 3, [False] * 3, [True, False, False]]
        self._check_both_writers(columns, [1, 6, 15, 17])
        for precision in (1, 6, 17):
            expected = reference_text_rows(as_rows(columns), precision, sep=" = ")
            assert text_table(columns, precision, sep=" = ") == expected
        assert len(text_table(columns, 6).splitlines()) == n

    @pytest.mark.parametrize("precision", range(1, 18))
    def test_a_float_list_prints_as_the_same_cells_in_an_array(self, precision):
        # a float block takes one field whatever holds it: a list column and the
        # same cells as an array print the same bytes, blocks of one value
        # included (a literal in an array, a field in a list), beside a column
        # of None and floats and a list of numpy floats
        b = dataio._BLOCK_ROWS
        n = 2 * b + 5
        edges = [-0.0, 0.0, 5e-324, -5e-324, 1e-306, -1e-306, 2.2250738585072014e-308,
                 1.0, -7.0, 12345.0, 1e15, 123456789012345.0, 1234567890123456.0, 1e16,
                 12345678901234567.0, 1e17, -1e17, 0.587851162064913, 2.0 / 3.0]
        cycled = [edges[i % len(edges)] for i in range(n)]
        constant = [-0.0] * b + [1e16] * b + cycled[:5]
        mixed = [None if i % 3 == 0 else cycled[i] * 0.5 for i in range(n)]
        numpy_floats = list(np.array(cycled[::-1]))
        lists = [cycled, constant, mixed, numpy_floats]
        arrays = [np.array(cycled), np.array(constant), mixed, numpy_floats]
        assert _constant_blocks(lists) == [[False] * 3] * 4
        assert _constant_blocks(arrays) == [[False] * 3, [True, True, False], *[[False] * 3] * 2]
        writers = [
            lambda columns: text_table(columns, precision, header=KEYS),
            lambda columns: text_table(columns, precision, sep=" = "),
            lambda columns: json_text({}, precision, rows=columns, keys=KEYS),
            lambda columns: json_text({}, precision, rows=columns),
        ]
        for write in writers:
            assert_same_text(write(arrays), write(lists))
        self._check_both_writers(lists, [precision])

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        cells=st.sampled_from(sorted(NUMBER_CELLS)).flatmap(
            lambda kind: st.lists(NUMBER_CELLS[kind], min_size=1, max_size=6)),
        mixed=st.booleans(),
        precision=st.integers(1, 17),
    )
    @example(cells=[np.float32("nan"), np.float32(1.0)], mixed=False, precision=6)
    @example(cells=[Fraction(1, 3), Fraction(2, 1)], mixed=True, precision=1)
    def test_a_list_of_number_cells_is_written_as_its_floats(self, cells, mixed, precision):
        # numpy floats and ints and Fractions in a list column take the float field and the
        # printed-value rule as their floats do: CSV wrote a float32 NaN as nan, and
        # json.dumps raised TypeError for each of these cells
        floats = [float(x) for x in cells]
        if mixed:  # beside a None: a %s block, each cell written alone
            cells, floats = [None, *cells], [None, *floats]
        keys = [f"k{i}" for i in range(len(cells))]
        writers = [
            lambda column: text_table([column, keys], precision, header=["x", "key"]),
            lambda column: text_table([keys, column], precision, sep=" = "),
            lambda column: json_text({"last": column[-1]}, precision, rows=[column, keys],
                                     keys=["x", "key"]),
            lambda column: json_text({}, precision, rows=[keys, column]),
        ]
        for write in writers:
            try:
                expected = write(floats)
            except DataError as exc:
                with _raises(str(exc)):
                    write(cells)
            else:
                assert write(cells) == expected

    @pytest.mark.parametrize("kind", [np.float32, np.float64, float])
    def test_a_nan_of_any_float_type_is_refused_by_name(self, kind):
        column = [kind("nan"), 1.0]
        with _raises("x in row 1: nan is not a finite number"):
            text_table([column], 6, header=["x"])
        with _raises("x in row 1: nan is not a finite number"):
            json_text({}, 6, rows=[column], keys=["x"])
        with _raises("x: nan is not a finite number"):
            json_text({"x": column[0]}, 6, rows=[])

    @pytest.mark.parametrize("precision", range(1, 16))
    def test_unflagged_cells_print_their_token(self, precision):
        # the one claim a %.{p}g field rests on: each cell that _flagged
        # leaves out has a %g string that is json's token, the repr of the
        # float it stands for.  Random 64-bit patterns (every exponent, NaNs
        # and infinities), subnormals, zeros of both signs, and cells
        # N(1 +- k 10**-p) near an integer N of every size up to 1e17.  The
        # NaNs and infinities are left out: _row_blocks refuses them first
        rng = np.random.default_rng(15_000 + precision)
        patterns = np.frombuffer(rng.bytes(8 * 20_000), dtype=np.float64)
        patterns = patterns[np.isfinite(patterns)]
        mantissas = np.frombuffer(rng.bytes(8 * 2_000), dtype=np.uint64) & np.uint64(2**52 - 1)
        subnormals = mantissas.view(np.float64) * rng.choice([-1.0, 1.0], 2_000)
        integers = np.rint(10.0 ** rng.uniform(0.0, 17.0, 20_000)) * rng.choice([-1.0, 1.0], 20_000)
        k = np.concatenate([rng.uniform(0.0, 30.0, 10_000), np.tile([0.5, 1.0, 2.0, 10.0], 2_500)])
        near = integers * (1.0 + rng.choice([-1.0, 1.0], 20_000) * k * 10.0**-precision)
        column = np.concatenate([patterns, subnormals, [0.0, -0.0], integers, near])
        flagged = set(dataio._flagged(column, precision))
        spec = f"%.{precision}g"
        kept = [x for i, x in enumerate(column.tolist()) if i not in flagged]
        # at one digit every cell is flagged: each lies within |x| of an integer
        assert len(kept) > 9_000 if precision > 1 else kept == []
        assert [x for x in kept if spec % x != repr(float(spec % x))] == []

    def test_cells_near_an_integer(self):
        # N(1 +- k 10**-p) rounds to an integer (json needs ".0") or to the
        # digit next to it, each between clean cells that a %g field takes
        # as they are; at k = 20 no cell is flagged
        for precision in range(1, 16):
            for ks in ((0.2, 0.49, 0.5, 0.51, 1.0, 3.0), (20.0,)):
                near = [
                    n * (1.0 + sign * k * 10.0**-precision)
                    for n in (1.0, 7.0, 12345.0, 0.5, -3.0)
                    for k in ks
                    for sign in (-1.0, 1.0)
                ]
                column = np.empty(2 * len(near))
                column[0::2] = np.linspace(0.1234, 0.4321, len(near))
                column[1::2] = near
                self._check_both_writers([column], [precision])

    def test_cells_either_side_of_the_flag_sizes(self):
        # the sizes past which a %g string may not be json's token: an
        # exponent from the precision up, 1e308 and up, and subnormals, of
        # which these lose digits at 15 or fewer
        subnormals = [9.0249027546426e-310, 3.4567890123456789e-320, 5e-324]
        for precision in range(1, 18):
            edges = [10.0 ** (precision - 1) / 2, 10.0**precision, 1e-306, 1e307]
            cells = [*subnormals, *(-x for x in subnormals), 2.2250738585072014e-308]
            for edge in edges:
                for x in (edge, -edge):
                    below, above = math.nextafter(x, 0.0), math.nextafter(x, 2.0 * x)
                    cells += [below, x, above, x * (1 - 1e-9), x * (1 + 1e-9)]
            column = np.concatenate([np.linspace(0.123, 0.321, 30), np.array(cells)])
            self._check_both_writers([column, column[::-1].copy()], [precision])

    @pytest.mark.parametrize("precision", [6, 15, 16, 17])
    def test_theory_tables_and_a_figure_match_the_dumped_document(self, precision):
        # an antiferro table flags most of its cells (-1, 0 and near-integers, few distinct
        # strings), a ferro one few; each float block takes its own path at 15, 16 and 17
        grid = np.geomspace(0.02, 6.0, 2 * dataio._BLOCK_ROWS + 7)
        keys = ["T_K", "G", "sigma_G", "Q", "sigma_Q", "C", "I", "E"]
        for j in (-1.0, 1.0):
            table = results_from_correlators(
                grid, correlator_from_temperature(DimerParameters(j), grid), "theory"
            )
            meta = {"channel": "theory", "preset": None,
                    "units": {"T_K": "kelvin", "G": "dimensionless", "correlations": "bit"}}
            rows = [dict(zip(keys, row)) for row in as_rows(table[:-1])]
            expected = reference_json({"meta": meta, "rows": rows}, precision).encode()
            assert write_results(table, "json", precision=precision) == expected
        title, names, columns = cli._figure_data(1, 2 * dataio._BLOCK_ROWS + 7)
        doc = {"figure": 1, "title": title, "columns": names}
        expected = reference_json({**doc, "rows": as_rows(columns)}, precision)
        assert json_text(doc, precision, rows=columns) == expected

    @pytest.mark.parametrize(
        "column",
        [
            np.array([0.25, 0.3, math.nan, 0.35]),
            np.array([0.25, math.inf, 0.3]),
            np.array([0.25, 0.3, -math.inf]),
            np.full(4, math.inf),
            np.full(4, -math.inf),
            np.full(4, math.nan),
        ],
        ids=["nan", "inf", "-inf", "constant-inf", "constant--inf", "constant-nan"],
    )
    @pytest.mark.parametrize("precision", [6, 16, 17])
    def test_json_refuses_non_finite_cells_in_clean_blocks(self, column, precision):
        with pytest.raises(ValueError):
            reference_json({"rows": [[x] for x in column.tolist()]}, precision)
        with pytest.raises(DataError):  # a ValueError, which the CLI maps to exit 1
            json_text({}, precision, rows=[column, np.linspace(0.1, 0.2, column.size)])
        # CSV refuses them too, where it wrote them as %g does
        i = np.flatnonzero(~np.isfinite(column))[0]
        with _raises(f"x in row {i + 1}: {float(column[i])!r} is not a finite number"):
            text_table([column], precision, header=["x"])

    @staticmethod
    def _check_both_writers(columns, precisions):
        rows = as_rows(columns)
        keys = KEYS[: len(columns)]
        for precision in precisions:
            expected = reference_text_rows([keys, *rows], precision)
            assert_same_text(text_table(columns, precision, header=keys), expected)
            expected = reference_json({"rows": [dict(zip(keys, row)) for row in rows]}, precision)
            assert_same_text(json_text({}, precision, rows=columns, keys=keys), expected)
            expected = reference_json({"rows": rows}, precision)
            assert_same_text(json_text({}, precision, rows=columns), expected)

    @pytest.mark.parametrize("precision", range(1, 18))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("as_array", [True, False])
    def test_json_refuses_non_finite_cells(self, bad, as_array, precision):
        column = [1.0, bad]
        with pytest.raises(ValueError):
            reference_json({"rows": [[x] for x in column]}, precision)
        with pytest.raises(DataError):
            json_text({}, precision, rows=[np.array(column) if as_array else column])

    @pytest.mark.parametrize("as_array", [True, False])
    def test_json_refuses_a_float_rounded_past_the_largest(self, as_array):
        # the largest double is finite, but its string rounds past it at some
        # precisions: 2e+308 at one digit, 1.79769313486232e+308 at 15; at 17
        # it is its own token
        column = [0.5, 1.7976931348623157e308]
        rows = [np.array(column) if as_array else column]
        refused = []
        for precision in range(1, 18):
            try:
                expected = reference_json({"rows": [[x] for x in column]}, precision)
            except ValueError:
                refused.append(precision)
                higher = 12 if precision in (10, 11) else 17 if precision > 11 else 6
                words = (f"{column[1]!r} rounds past the largest double at precision "
                         f"{precision}; precision {higher} prints it")
                with _raises(f"column 1 in row 2: {words}"):
                    json_text({}, precision, rows=rows)
                with _raises(f"value: {words}"):  # a value of the document, not of its table
                    json_text({"value": column[1]}, precision, rows=[])
                with _raises(f"x in row 2: {words}"):  # CSV refuses it too
                    text_table(rows, precision, header=["x"])
            else:
                assert json_text({}, precision, rows=rows) == expected
                assert text_table(rows, precision) == reference_text_rows(as_rows(rows), precision)
        assert refused == [1, 2, 3, 4, 5, 10, 11, 15, 16]
        assert "1.7976931348623157e+308" in json_text({}, 17, rows=rows)

    def test_bad_precision_rejected(self):
        for precision in (0, 18):
            with pytest.raises(DomainError):
                text_table([np.array([1.0])], precision)
            with pytest.raises(DomainError):
                json_text({}, precision, rows=[np.array([1.0])])
