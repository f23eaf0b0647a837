"""Command-line interface: file formats, frozen values, exit codes."""
import argparse
import csv
import io
import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wptoolbox.cli as cli
from wptoolbox.cli import build_parser, main
from wptoolbox.entangle import ghz_sector_probabilities
from wptoolbox.toolbox import ToolboxPhases

# frozen closed-form values at alpha = 45 deg, phi1 = phi2 = 0, beta = 22.5 deg:
# p1 = (3 + 2*sqrt(2)) / 8, p2 = (3 - 2*sqrt(2)) / 8
P1_SPLIT = 0.72855339059327373
P2_SPLIT = 0.021446609406726238


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------------------
# single-sweep
# ---------------------------------------------------------------------------

class TestSingleSweep:
    def test_default_grid_and_header(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["single-sweep", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert rows[0] == ["alpha", "phi1", "phi2", "beta", "p1", "p2", "p3", "p4"]
        assert len(rows) == 26  # header + default 25-point phi1 sweep
        phi1 = [float(r[1]) for r in rows[1:]]
        assert phi1 == pytest.approx(list(np.linspace(0, 2 * np.pi, 25)))

    def test_frozen_first_row(self, tmp_path):
        out = tmp_path / "s.csv"
        main(["single-sweep", "--out", str(out)])
        first = [float(x) for x in read_csv(out)[1]]
        assert first[0] == pytest.approx(np.pi / 4, abs=1e-15)
        assert first[3] == pytest.approx(np.pi / 8, abs=1e-15)
        assert first[4] == pytest.approx(P1_SPLIT, abs=1e-14)
        assert first[5] == pytest.approx(P2_SPLIT, abs=1e-14)
        assert first[6] == pytest.approx(0.125, abs=1e-14)
        assert first[7] == pytest.approx(0.125, abs=1e-14)

    def test_rows_are_normalized(self, tmp_path):
        out = tmp_path / "s.csv"
        main(["single-sweep", "--alpha-deg", "28", "--phi2-deg", "77", "--out", str(out)])
        for row in read_csv(out)[1:]:
            assert sum(float(x) for x in row[4:8]) == pytest.approx(1.0, abs=1e-12)

    def test_mixers_off_closed_form(self, tmp_path):
        out = tmp_path / "s.csv"
        main(["single-sweep", "--alpha-deg", "30", "--beta-deg", "0", "--out", str(out)])
        for row in read_csv(out)[1:]:
            phi1 = float(row[1])
            p = [float(x) for x in row[4:8]]
            assert p[0] == pytest.approx(0.75 * np.cos(phi1 / 2) ** 2, abs=1e-12)
            assert p[1] == pytest.approx(0.125, abs=1e-12)
            assert p[2] == pytest.approx(0.75 * np.sin(phi1 / 2) ** 2, abs=1e-12)
            assert p[3] == pytest.approx(0.125, abs=1e-12)

    def test_counts_appear_with_shots(self, tmp_path):
        out = tmp_path / "s.csv"
        main(["single-sweep", "--shots", "2000", "--out", str(out)])
        rows = read_csv(out)
        assert rows[0][8:] == ["c1", "c2", "c3", "c4", "e1", "e2", "e3", "e4"]
        for row in rows[1:]:
            counts = [int(x) for x in row[8:12]]
            assert sum(counts) == 2000
            for n, err in zip(counts, (float(x) for x in row[12:16])):
                assert err == pytest.approx(np.sqrt(n) if n > 0 else 1.0)

    def test_same_seed_reproduces_file(self, tmp_path):
        a, b, c = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
        main(["single-sweep", "--shots", "500", "--seed", "7", "--out", str(a)])
        main(["single-sweep", "--shots", "500", "--seed", "7", "--out", str(b)])
        main(["single-sweep", "--shots", "500", "--seed", "8", "--out", str(c)])
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()

    def test_mixed_flag_removes_fringe(self, tmp_path):
        out = tmp_path / "s.csv"
        main(["single-sweep", "--mixed", "--out", str(out)])
        for row in read_csv(out)[1:]:
            assert abs(float(row[4]) - float(row[5])) < 1e-12

    def test_visibility_scales_fringe(self, tmp_path):
        full, half = tmp_path / "f.csv", tmp_path / "h.csv"
        main(["single-sweep", "--out", str(full)])
        main(["single-sweep", "--visibility", "0.5", "--out", str(half)])
        for rf, rh in zip(read_csv(full)[1:], read_csv(half)[1:]):
            gap_f = float(rf[4]) - float(rf[5])
            gap_h = float(rh[4]) - float(rh[5])
            assert gap_h == pytest.approx(0.5 * gap_f, abs=1e-12)

    def test_json_mirrors_csv(self, tmp_path):
        c, j = tmp_path / "s.csv", tmp_path / "s.json"
        main(["single-sweep", "--out", str(c)])
        main(["single-sweep", "--format", "json", "--out", str(j)])
        rows = read_csv(c)
        payload = json.loads(j.read_text())
        assert len(payload) == len(rows) - 1
        for row, obj in zip(rows[1:], payload):
            assert list(obj) == rows[0]
            for col, text in zip(rows[0], row):
                assert obj[col] == pytest.approx(float(text), abs=1e-16)

    def test_custom_sweep_parameter(self, tmp_path):
        out = tmp_path / "s.csv"
        code = main(["single-sweep", "--sweep", "alpha", "--start", "0",
                     "--stop", "90", "--steps", "7", "--out", str(out)])
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 8
        alphas = [float(r[0]) for r in rows[1:]]
        assert alphas == pytest.approx(list(np.linspace(0, np.pi / 2, 7)))
        # phi1 stays at its fixed default in an alpha sweep
        assert all(float(r[1]) == 0.0 for r in rows[1:])


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------

class TestWitnessCoherence:
    def test_default_alpha_grid(self, tmp_path):
        out = tmp_path / "w.csv"
        assert main(["witness-coherence", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert rows[0] == ["alpha", "phi1", "wc"]
        assert len(rows) == 14  # header + 13 alpha points
        for row in rows[1:]:
            alpha = float(row[0])
            expected = abs(np.sin(2 * alpha)) / np.sqrt(2)
            assert float(row[2]) == pytest.approx(expected, abs=1e-12)

    def test_mixture_has_no_witness(self, tmp_path):
        out = tmp_path / "w.csv"
        main(["witness-coherence", "--mixed", "--out", str(out)])
        assert all(abs(float(r[2])) < 1e-12 for r in read_csv(out)[1:])

    def test_sampled_estimate_and_error(self, tmp_path):
        out = tmp_path / "w.csv"
        main(["witness-coherence", "--shots", "100000", "--seed", "3", "--out", str(out)])
        rows = read_csv(out)
        assert rows[0] == ["alpha", "phi1", "wc", "wc_err"]
        for row in rows[1:]:
            alpha, wc, err = float(row[0]), float(row[2]), float(row[3])
            expected = abs(np.sin(2 * alpha)) / np.sqrt(2)
            assert abs(wc - expected) < 5 * max(err, 1e-3)


class TestWitnessEntanglement:
    def test_default_phi1_fringe(self, tmp_path):
        out = tmp_path / "w.csv"
        assert main(["witness-entanglement", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert rows[0] == ["phi1", "p_22p", "p_21p", "we"]
        assert len(rows) == 26
        for row in rows[1:]:
            phi1 = float(row[0])
            expected = 0.25 * np.cos(phi1 / 2) ** 2
            assert float(row[3]) == pytest.approx(expected, abs=1e-12)
            assert float(row[1]) - float(row[2]) == pytest.approx(expected, abs=1e-12)

    def test_mixture_witness_vanishes(self, tmp_path):
        out = tmp_path / "w.csv"
        main(["witness-entanglement", "--mixed", "--out", str(out)])
        assert all(abs(float(r[3])) < 1e-12 for r in read_csv(out)[1:])

    def test_sampled_estimate_within_errors(self, tmp_path):
        out = tmp_path / "w.csv"
        main(["witness-entanglement", "--shots", "100000", "--seed", "11",
              "--out", str(out)])
        rows = read_csv(out)
        assert rows[0] == ["phi1", "p_22p", "p_21p", "we", "we_err"]
        for row in rows[1:]:
            phi1 = float(row[0])
            expected = 0.25 * np.cos(phi1 / 2) ** 2
            assert abs(float(row[3]) - expected) < 5 * max(float(row[4]), 1e-3)

    def test_visibility_scales_witness(self, tmp_path):
        out = tmp_path / "w.csv"
        main(["witness-entanglement", "--visibility", "0.9", "--out", str(out)])
        first = read_csv(out)[1]
        assert float(first[3]) == pytest.approx(0.9 * 0.25, abs=1e-12)


# ---------------------------------------------------------------------------
# two-photon tables
# ---------------------------------------------------------------------------

class TestTwoPhoton:
    def test_default_corner_grid(self, tmp_path):
        out = tmp_path / "t.csv"
        assert main(["two-photon", "--out", str(out)]) == 0
        rows = read_csv(out)
        expected_cols = ["phi1", "phi1p", "beta", "betap"] + [
            f"p_{a}{b}p" for a in range(1, 5) for b in range(1, 5)
        ]
        assert rows[0] == expected_cols
        assert len(rows) == 9  # header + 2 mixer settings x 4 phase corners
        for row in rows[1:]:
            assert sum(float(x) for x in row[4:]) == pytest.approx(1.0, abs=1e-12)

    def test_frozen_balanced_zero_phase_row(self, tmp_path):
        out = tmp_path / "t.csv"
        main(["two-photon", "--out", str(out)])
        rows = read_csv(out)
        # last four rows use beta = betap = 22.5 deg; the first of them has
        # phi1 = phi1p = 0 where P(1,1') = P(2,2') = 9/32 and the rest 1/32
        row = next(
            r for r in rows[1:]
            if float(r[2]) > 0.1 and float(r[0]) == 0.0 and float(r[1]) == 0.0
        )
        table = np.array([float(x) for x in row[4:]]).reshape(4, 4)
        assert table[0, 0] == pytest.approx(9 / 32, abs=1e-12)
        assert table[1, 1] == pytest.approx(9 / 32, abs=1e-12)
        mask = np.ones((4, 4), bool)
        mask[0, 0] = mask[1, 1] = False
        assert table[mask] == pytest.approx(np.full(14, 1 / 32), abs=1e-12)

    def test_mixers_off_corner_has_no_crossed_sectors(self, tmp_path):
        out = tmp_path / "t.csv"
        main(["two-photon", "--out", str(out)])
        row = next(
            r for r in read_csv(out)[1:]
            if float(r[2]) == 0.0 and float(r[0]) == 0.0 and float(r[1]) == 0.0
        )
        table = np.array([float(x) for x in row[4:]]).reshape(4, 4)
        # wave ports are (1, 3), particle ports (2, 4): no wave/particle pairs
        for a in (0, 2):
            for b in (1, 3):
                assert abs(table[a, b]) < 1e-12
                assert abs(table[b, a]) < 1e-12

    def test_sweep_mode_row_count(self, tmp_path):
        out = tmp_path / "t.csv"
        main(["two-photon", "--sweep", "phi1", "--start", "0", "--stop", "360",
              "--steps", "5", "--phi1p-deg", "45", "--out", str(out)])
        rows = read_csv(out)
        assert len(rows) == 6
        assert all(float(r[1]) == pytest.approx(np.pi / 4) for r in rows[1:])

    def test_counts_blocks_with_shots(self, tmp_path):
        out = tmp_path / "t.csv"
        main(["two-photon", "--shots", "3000", "--out", str(out)])
        rows = read_csv(out)
        assert rows[0][20] == "c_11p" and rows[0][36] == "e_11p"
        for row in rows[1:]:
            assert sum(int(x) for x in row[20:36]) == 3000


# ---------------------------------------------------------------------------
# ghz and verify
# ---------------------------------------------------------------------------

class TestGhz:
    def test_default_three_photon_sectors(self, tmp_path, capsys):
        out = tmp_path / "g.csv"
        assert main(["ghz", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert rows[0] == ["sector", "probability", "crossed"]
        assert [r[0] for r in rows[1:]] == [
            "www", "wwp", "wpw", "wpp", "pww", "pwp", "ppw", "ppp"
        ]
        by_sector = {r[0]: (float(r[1]), int(r[2])) for r in rows[1:]}
        assert by_sector["www"] == (pytest.approx(0.5, abs=1e-12), 0)
        assert by_sector["ppp"] == (pytest.approx(0.5, abs=1e-12), 0)
        for sector, (prob, crossed) in by_sector.items():
            if sector not in ("www", "ppp"):
                assert crossed == 1
                assert abs(prob) < 1e-12
        assert "crossed-sector mass: 0" in capsys.readouterr().out

    def test_photon_count_controls_rows(self, tmp_path):
        out = tmp_path / "g.csv"
        main(["ghz", "--photons", "5", "--out", str(out)])
        assert len(read_csv(out)) == 2**5 + 1

    def test_unbalanced_alpha_splits_sectors(self, tmp_path):
        out = tmp_path / "g.csv"
        main(["ghz", "--alpha-deg", "30", "--phi1-deg", "90", "--out", str(out)])
        by_sector = {r[0]: float(r[1]) for r in read_csv(out)[1:]}
        assert by_sector["www"] == pytest.approx(0.75, abs=1e-12)
        assert by_sector["ppp"] == pytest.approx(0.25, abs=1e-12)

    def test_alpha_warning_is_one_line_every_call(self, tmp_path, capsys):
        out = str(tmp_path / "g.csv")
        for _ in range(2):
            assert main(["ghz", "--alpha-deg", "120", "--out", out]) == 0
            assert capsys.readouterr().err == (
                "warning: alpha=2.0944 lies outside [0, pi/2]; amplitude signs will flip"
                " the interference terms\n")

    def test_out_of_range_photons_is_spec_error(self, tmp_path):
        out = tmp_path / "g.csv"
        assert main(["ghz", "--photons", "9", "--out", str(out)]) == 2
        assert main(["ghz", "--photons", "0", "--out", str(out)]) == 2

    @pytest.mark.parametrize("photons", ["9", "0", "-3", "99999999999999999999"])
    def test_out_of_range_photons_named(self, tmp_path, capsys, monkeypatch, photons):
        def engine(*args, **kwargs):
            raise AssertionError("the sector table was evaluated")

        monkeypatch.setattr(cli, "ghz_sector_probabilities", engine)
        assert main(["ghz", "--photons", photons, "--out", str(tmp_path / "g.csv")]) == 2
        assert capsys.readouterr().err == f"error: --photons must lie in [1, 8], got {photons}\n"
        assert list(tmp_path.iterdir()) == []

    def test_nonzero_mixer_rejected(self, tmp_path, capsys):
        out = tmp_path / "g.csv"
        assert main(["ghz", "--beta-deg", "22.5", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: --beta-deg must be 0 for the n-photon table, got 22.5\n")
        assert list(tmp_path.iterdir()) == []
        # a negative zero is still mixers off
        assert main(["ghz", "--beta-deg", "-0", "--out", str(out)]) == 0
        assert out.exists()


class TestVerify:
    def test_verify_passes_and_prints_deviations(self, capsys):
        assert main(["verify", "--points", "25"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert len(lines) == 5
        assert all(l.startswith("PASS") for l in lines)
        assert all("max deviation" in l for l in lines)

    @pytest.mark.parametrize("points", ["100001", "1000000000", "99999999999999999999"])
    def test_points_beyond_the_row_limit_named(self, capsys, monkeypatch, points):
        monkeypatch.setattr(cli, "equivalence_scan", None)  # no grid is drawn
        assert main(["verify", "--points", points]) == 2
        assert capsys.readouterr() == ("", f"error: --points must be <= 100000, got {points}\n")

    @pytest.mark.parametrize("points, code", [("4", 0), ("5", 2)])
    def test_the_row_limit_itself_is_allowed(self, capsys, monkeypatch, points, code):
        monkeypatch.setattr(cli, "MAX_ROWS", 4)
        assert main(["verify", "--points", points]) == code
        assert capsys.readouterr().out.count("PASS") == (5 if code == 0 else 0)

    @pytest.mark.parametrize("points", ["0", "-5"])
    def test_empty_hardware_grid_is_spec_error(self, capsys, points):
        assert main(["verify", "--points", points]) == 2
        captured = capsys.readouterr()
        assert "--points must be >= 1" in captured.err
        assert "PASS" not in captured.out

    def test_module_entry_point(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "wptoolbox", "verify", "--points", "4"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert "PASS" in result.stdout


# ---------------------------------------------------------------------------
# argument validation
# ---------------------------------------------------------------------------

def _subparser(command):
    (commands,) = cli._parser()._subparsers._group_actions
    return commands.choices[command]


def _flag_actions(command):
    return [action for action in _subparser(command)._actions
            if action.option_strings and not isinstance(action, argparse._HelpAction)]


def _value_flags(command):
    return [action.option_strings[-1] for action in _flag_actions(command) if action.nargs != 0]


def _values(action):
    """Text of values the flag takes, none of them starting with "-"."""
    if action.choices is not None:
        return st.sampled_from([str(c) for c in action.choices])
    if action.type is float:
        return st.floats(min_value=0.0).map(repr) | st.sampled_from(["nan", "inf", "1e3"])
    if action.type is int:
        return st.integers(min_value=0, max_value=10**25).map(str)
    return st.text(max_size=6).filter(lambda text: not text.startswith("-"))


def _plain(action):
    """The flag's tokens: the switch alone, or the flag and one value it takes."""
    flag = action.option_strings[-1]
    if action.nargs == 0:
        return st.just((flag,))
    return _values(action).map(lambda value: (flag, value))


def _odd_items(command):
    """Tokens of a form the flag reader leaves to argparse."""
    flag = st.sampled_from(_value_flags(command))
    typed = [action for action in _flag_actions(command)
             if action.choices or action.type in (int, float)]
    return st.one_of(
        st.tuples(flag, st.sampled_from(["-5", "-1.5", "-inf", "-x", "--mixed", "-"])),
        st.tuples(flag.map(lambda f: f[:-2]), st.just("5")),  # an abbreviation
        st.tuples(flag, st.just("5")).map(lambda pair: ("=".join(pair),)),
        st.sampled_from([("-h",), ("--help",), ("--",), ("stray",), ("--bogus", "1")]),
        st.sampled_from(typed).flatmap(lambda action: st.tuples(  # a mistyped or unlisted value
            st.just(action.option_strings[-1]),
            st.sampled_from(["xml", "gamma"] if action.choices else ["abc", "0x10", ""]
                            + ["1.5"] * (action.type is int)))),
    )


def _same_values(a, b):
    """Equal dicts, NaN equal to NaN."""
    return a.keys() == b.keys() and all(
        a[k] == b[k] or (isinstance(a[k], float) and a[k] != a[k] and b[k] != b[k]) for k in a)


class TestArgumentErrors:
    def test_unwritable_output_path(self):
        assert main(["single-sweep", "--out", "/nonexistent-dir/x.csv"]) == 2

    def test_negative_shots(self, tmp_path, capsys):
        out = str(tmp_path / "x.csv")
        assert main(["single-sweep", "--shots", "-5", "--out", out]) == 2
        assert capsys.readouterr().err == "error: --shots must be >= 0\n"
        assert list(tmp_path.iterdir()) == []

    def test_visibility_out_of_range(self, tmp_path, capsys):
        out = str(tmp_path / "x.csv")
        assert main(["single-sweep", "--visibility", "1.5", "--out", out]) == 2
        assert capsys.readouterr().err == "error: --visibility must lie in [0, 1]\n"
        assert main(["single-sweep", "--dephase", "-0.2", "--out", out]) == 2
        assert capsys.readouterr().err == "error: --dephase must lie in [0, 1]\n"
        assert list(tmp_path.iterdir()) == []

    def test_sweep_without_bounds(self, tmp_path, capsys):
        out = str(tmp_path / "x.csv")
        assert main(["single-sweep", "--sweep", "alpha", "--out", out]) == 2
        assert capsys.readouterr().err == "error: --sweep needs explicit --start and --stop\n"
        assert list(tmp_path.iterdir()) == []

    def test_single_step_sweep_rejected(self, tmp_path, capsys):
        out = str(tmp_path / "x.csv")
        assert main(["single-sweep", "--sweep", "alpha", "--start", "0",
                     "--stop", "90", "--steps", "1", "--out", out]) == 2
        assert capsys.readouterr().err == "error: sweeps need --steps >= 2\n"
        assert list(tmp_path.iterdir()) == []

    def test_ghz_rejects_sweeps_and_noise(self, tmp_path, capsys):
        out = str(tmp_path / "x.csv")
        assert main(["ghz", "--sweep", "phi1", "--start", "0", "--stop", "360",
                     "--out", out]) == 2
        assert capsys.readouterr().err == "error: the n-photon table does not support sweeps\n"
        for noise in (["--mixed"], ["--visibility", "0.5"], ["--mixed", "--shots", "100"]):
            assert main(["ghz", *noise, "--out", out]) == 2
            assert capsys.readouterr().err == (
                "error: the n-photon table supports neither --mixed nor noise\n")
        assert list(tmp_path.iterdir()) == []

    def test_ghz_rejects_shots(self, tmp_path, capsys):
        out = str(tmp_path / "x.csv")
        assert main(["ghz", "--photons", "3", "--shots", "100", "--out", out]) == 2
        assert capsys.readouterr().err == (
            "error: the n-photon table is analytic and takes no --shots\n")
        assert list(tmp_path.iterdir()) == []
        assert main(["ghz", "--shots", "0", "--out", out]) == 0

    @pytest.mark.parametrize("shots, code", [("99999999999999999999", 2),
                                             (str(2**63), 2), (str(2**63 - 1), 0)])
    def test_shots_beyond_int64_named(self, tmp_path, capsys, shots, code):
        out = tmp_path / "x.csv"
        assert main(["single-sweep", "--shots", shots, "--out", str(out)]) == code
        if code:
            assert capsys.readouterr().err == "error: --shots must be <= 9223372036854775807\n"
            assert list(tmp_path.iterdir()) == []
        else:
            rows = read_csv(out)[1:]
            assert {sum(map(int, row[8:12])) for row in rows} == {2**63 - 1}

    @pytest.mark.parametrize("command", ["single-sweep", "witness-coherence", "two-photon",
                                         "witness-entanglement"])
    @pytest.mark.parametrize("steps", ["100001", "1000000000", "99999999999999999999"])
    def test_steps_beyond_the_row_limit_named(self, tmp_path, capsys, monkeypatch, command,
                                              steps):
        monkeypatch.setattr(cli, "_columns", None)  # no settings column is built
        assert main([command, "--sweep", "alpha", "--start", "0", "--stop", "90", "--steps",
                     steps, "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr() == ("", f"error: --steps must be <= 100000, got {steps}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("steps, code", [("4", 0), ("5", 2)])
    def test_the_step_limit_itself_is_allowed(self, tmp_path, monkeypatch, steps, code):
        monkeypatch.setattr(cli, "MAX_ROWS", 4)
        out = tmp_path / "x.csv"
        assert main(["two-photon", "--sweep", "phi1", "--start", "0", "--stop", "90",
                     "--steps", steps, "--out", str(out)]) == code
        if code == 0:
            assert len(read_csv(out)) == 5
        else:
            assert not out.exists()

    @pytest.mark.parametrize("argv", [["single-sweep", "--shots", "10"],
                                      ["two-photon"], ["verify", "--points", "1"]])
    def test_negative_seed_named(self, tmp_path, capsys, argv):
        out = [] if argv[0] == "verify" else ["--out", str(tmp_path / "x.csv")]
        assert main(argv + ["--seed", "-1"] + out) == 2
        assert "error: --seed must be >= 0" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("flag", ["--alpha-deg", "--phi1-deg", "--phi2-deg", "--phi1p-deg",
                                      "--phi2p-deg", "--beta-deg", "--betap-deg"])
    def test_nonfinite_angle_named(self, tmp_path, capsys, flag, value):
        out = str(tmp_path / "x.csv")
        assert main(["two-photon", f"{flag}={value}", "--out", out]) == 2
        assert f"error: {flag} must be finite" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("bounds", [("nan", "90"), ("0", "inf")])
    def test_nonfinite_sweep_bound_named(self, tmp_path, capsys, bounds):
        out = str(tmp_path / "x.csv")
        assert main(["single-sweep", "--sweep", "alpha", "--start", bounds[0],
                     "--stop", bounds[1], "--out", out]) == 2
        flag = "--start" if bounds[0] == "nan" else "--stop"
        assert f"error: {flag} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("mixed", [[], ["--mixed"]])
    @pytest.mark.parametrize("knob, name", [("visibility", "visibility"),
                                            ("dephase", "dephase_wp")])
    def test_swept_noise_knob_out_of_range(self, tmp_path, capsys, knob, name, mixed):
        out = str(tmp_path / "x.csv")
        assert main(["witness-coherence", "--sweep", knob, "--start", "0.5", "--stop", "1.5",
                     "--steps", "3", "--out", out] + mixed) == 2
        assert f"error: {name} must lie in [0, 1], got 1.5" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (["witness-coherence", "--steps", "3"], "--steps"),
        (["two-photon", "--steps", "1"], "--steps"),
        (["witness-coherence", "--start", "10", "--stop", "20"], "--start"),
        (["single-sweep", "--stop", "20"], "--stop"),
        (["ghz", "--steps", "4"], "--steps"),
    ])
    def test_sweep_flags_without_a_sweep(self, tmp_path, capsys, argv, flag):
        out = str(tmp_path / "x.csv")
        assert main(argv + ["--out", out]) == 2
        assert capsys.readouterr().err == f"error: {flag} needs --sweep\n"
        assert list(tmp_path.iterdir()) == []

    def test_sweep_steps_default_to_25(self, tmp_path):
        out = tmp_path / "x.csv"
        assert main(["two-photon", "--sweep", "phi1", "--start", "0", "--stop", "90",
                     "--out", str(out)]) == 0
        assert len(read_csv(out)) == 26

    @pytest.mark.parametrize("param", ["phi1_prime", "phi2_prime"])
    @pytest.mark.parametrize("command", ["single-sweep", "witness-coherence"])
    def test_one_photon_commands_reject_photon_b_sweeps(self, tmp_path, capsys, command,
                                                        param):
        out = str(tmp_path / "x.csv")
        assert main([command, "--sweep", param, "--start", "0", "--stop", "90",
                     "--steps", "3", "--out", out]) == 2
        assert capsys.readouterr().err == (
            f"error: {command} has one photon: --sweep takes alpha, phi1, phi2, beta,"
            " visibility, dephase\n")
        assert list(tmp_path.iterdir()) == []

    def test_unknown_command_exits_via_argparse(self):
        with pytest.raises(SystemExit) as info:
            main(["no-such-command"])
        assert info.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["two-photon", "--al", "3"],
        ["ghz", "--photons", "5", "--format", "json"],
        ["verify", "--points", "3", "--seed", "4"],
        ["single-sweep", "--sweep", "beta", "--start", "0", "--stop", "4", "--mixed"],
    ])
    def test_a_subcommand_parses_as_the_full_parser_does(self, argv):
        assert vars(cli._parse(argv)) == vars(cli._parser().parse_args(argv))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_the_flag_reader_reads_as_the_full_parser_does(self, data):
        command = data.draw(st.sampled_from(list(cli._COMMANDS)))
        plain = st.sampled_from(_flag_actions(command)).flatmap(_plain)
        odd = data.draw(st.lists(_odd_items(command), max_size=2))
        items = data.draw(st.permutations(data.draw(st.lists(plain, max_size=8)) + odd))
        argv = [command] + [token for tokens in items for token in tokens]
        missing = data.draw(st.booleans())
        if missing:  # a last flag without its value
            argv.append(data.draw(st.sampled_from(_value_flags(command))))
        args = cli._read_flags(argv)
        if not (odd or missing):
            assert args is not None, argv
        if args is not None:
            try:
                full = cli._parser().parse_args(argv)
            except SystemExit:  # named as the reader's fault, not as argparse's exit
                pytest.fail(f"the flag reader took {argv}, which argparse refuses")
            assert _same_values(vars(args), vars(full)), argv

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_the_flag_reader_leaves_every_refused_value_to_argparse(self, command):
        # the property test above draws such an argv alone in only some runs
        typed = [action for action in _flag_actions(command)
                 if action.choices or action.type in (int, float)]
        assert typed
        for action in typed:
            values = ["xml", "gamma"] if action.choices else ["abc", "0x10", ""]
            for value in values + ["1.5"] * (action.type is int):
                argv = [command, action.option_strings[-1], value]
                assert cli._read_flags(argv) is None, argv
                with pytest.raises(SystemExit):
                    cli._parser().parse_args(argv)

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_workload_argv_is_read_without_argparse(self, command):
        argv = [command, "--seed", "77"]
        if command == "verify":
            argv += ["--points", "40"]
        else:
            for flag in ("alpha-deg", "phi1-deg", "phi2-deg", "phi1p-deg", "phi2p-deg",
                         "beta-deg", "betap-deg", "visibility", "dephase", "start", "stop"):
                argv += [f"--{flag}", "0.375"]
            argv += ["--sweep", "phi1", "--steps", "40", "--shots", "5000", "--mixed",
                     "--format", "json", "--out", "table.json"]
        if command == "ghz":
            argv += ["--photons", "5"]
        args = cli._read_flags(argv)
        assert args is not None
        assert vars(args) == vars(cli._parser().parse_args(argv))

    @pytest.mark.parametrize("extra", [["stray"], ["--bogus", "1"]])
    def test_leftover_arguments_fail_at_the_top_level(self, capsys, extra):
        with pytest.raises(SystemExit) as info:
            main(["two-photon", *extra])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: wptoolbox [-h]")
        assert err.endswith(f"wptoolbox: error: unrecognized arguments: {' '.join(extra)}\n")

    def test_parser_is_built_once(self):
        assert cli._parser() is cli._parser()
        assert build_parser() is not build_parser()

    def test_outdir_env_used_for_default_path(self, tmp_path, monkeypatch):
        monkeypatch.setenv("WPTOOLBOX_OUTDIR", str(tmp_path))
        assert main(["witness-coherence"]) == 0
        assert (tmp_path / "witness_coherence.csv").exists()


# ---------------------------------------------------------------------------
# the table runner
# ---------------------------------------------------------------------------

class TestTableRunner:
    @pytest.mark.parametrize("command, pair", [("single-sweep", False),
                                               ("witness-coherence", False),
                                               ("two-photon", True),
                                               ("witness-entanglement", True)])
    @pytest.mark.parametrize("shots", [0, 500])
    def test_one_engine_call_draw_and_write(self, tmp_path, monkeypatch, command, pair,
                                            shots):
        calls = {}
        for name in ("single_photon_batch", "two_photon_batch", "sample_rows", "_emit"):
            def counted(*args, _name=name, _real=getattr(cli, name)):
                calls[_name] = calls.get(_name, 0) + 1
                return _real(*args)
            monkeypatch.setattr(cli, name, counted)
        argv = [command, "--shots", str(shots), "--out", str(tmp_path / "t.csv")]
        assert main(argv) == 0
        engine = "two_photon_batch" if pair else "single_photon_batch"
        expected = {engine: 1, "_emit": 1} | ({"sample_rows": 1} if shots else {})
        assert calls == expected


# ---------------------------------------------------------------------------
# output files
# ---------------------------------------------------------------------------

class TestOutputFiles:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_failed_write_leaves_previous_file(self, tmp_path, monkeypatch, capsys, fmt):
        out = tmp_path / f"s.{fmt}"
        out.write_text("previous contents\n")
        real_write = cli._write_table

        def failing_write(fh, *table):
            text = io.StringIO()
            real_write(text, *table)
            fh.write(text.getvalue()[:200])  # a few rows in
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli, "_write_table", failing_write)
        assert main(["single-sweep", "--format", fmt, "--out", str(out)]) == 2
        assert "cannot write output" in capsys.readouterr().err
        assert out.read_text() == "previous contents\n"
        assert [p.name for p in tmp_path.iterdir()] == [f"s.{fmt}"]

    def test_directory_as_output_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "dir.csv"
        target.mkdir()
        assert main(["single-sweep", "--out", str(target)]) == 2
        assert [p.name for p in tmp_path.iterdir()] == ["dir.csv"]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_ghz_table_layout(self, tmp_path, fmt):
        out = tmp_path / f"g.{fmt}"
        assert main(["ghz", "--photons", "2", "--format", fmt, "--out", str(out)]) == 0
        sectors = ghz_sector_probabilities(2, np.radians(45.0), ToolboxPhases(0.0, 0.0), beta=0.0)
        rows = [{"sector": key, "probability": p, "crossed": int(len(set(key)) > 1)}
                for key, p in sectors.items()]
        if fmt == "json":
            expected = json.dumps(rows, indent=2) + "\n"
        else:
            expected = "sector,probability,crossed\r\n" + "".join(
                f"{r['sector']},{r['probability']:.17g},{r['crossed']}\r\n" for r in rows
            )
        with open(out, newline="") as fh:
            assert fh.read() == expected


# ---------------------------------------------------------------------------
# the table writer against the stdlib route
# ---------------------------------------------------------------------------

def _stdlib_fmt(value):
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _stdlib_json_value(value):
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    return float(value)


def _stdlib_table(path, fmt, header, columns):
    """The table as ``csv.writer`` and ``json.dump(indent=2)`` write it."""
    rows = [dict(zip(header, row)) for row in zip(*columns)]
    with open(path, "w", newline="" if fmt == "csv" else None) as fh:
        if fmt == "csv":
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow(_stdlib_fmt(row[col]) for col in header)
        else:
            payload = [{col: _stdlib_json_value(row[col]) for col in header} for row in rows]
            json.dump(payload, fh, indent=2)
            fh.write("\n")


_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 0.1, 2.0 / 3.0]
)
_KINDS = {
    "float": lambda n: st.lists(_FLOATS, min_size=n, max_size=n).map(np.array),
    "count": lambda n: st.lists(st.integers(-(2**63), 2**63 - 1), min_size=n, max_size=n)
    .map(lambda xs: np.array(xs, dtype=np.int64)),
    "sector": lambda n: st.lists(st.text("wp", min_size=1, max_size=8), min_size=n, max_size=n),
    # one drawn value per column, formatted once into the row template
    "constant": lambda n: (_FLOATS | st.integers(-(2**63), 2**63 - 1)).map(
        lambda x: np.full(n, x)),
    # equal values of two signs: not one value
    "signed zero": lambda n: st.lists(st.sampled_from([0.0, -0.0]), min_size=n,
                                      max_size=n).map(np.array),
}


@st.composite
def _tables(draw):
    rows = draw(st.integers(0, 6))
    header = draw(st.lists(st.text("abcp_%1", min_size=1, max_size=5), min_size=1,
                           max_size=6, unique=True))
    kinds = draw(st.lists(st.sampled_from(sorted(_KINDS)), min_size=len(header),
                          max_size=len(header)))
    return header, [draw(_KINDS[kind](rows)) for kind in kinds]


class TestTableWriter:
    @settings(max_examples=150, deadline=None)
    @given(table=_tables(), fmt=st.sampled_from(["csv", "json"]))
    def test_bytes_equal_the_stdlib_route(self, tmp_path_factory, table, fmt):
        header, columns = table
        base = tmp_path_factory.mktemp("tables")
        spec = argparse.Namespace(command="single-sweep", format=fmt,
                                  out=str(base / f"emit.{fmt}"))
        assert cli._emit(spec, header, columns) == spec.out
        _stdlib_table(base / f"stdlib.{fmt}", fmt, header, columns)
        assert (base / f"emit.{fmt}").read_bytes() == (base / f"stdlib.{fmt}").read_bytes()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_nonfinite_floats_as_the_stdlib_writes_them(self, tmp_path, fmt):
        # finite and non-finite float columns between integer and string ones
        header = ["x", "n", "y", "s", "z"]
        columns = [np.array([np.nan, np.inf, -np.inf, 0.5]), np.arange(4),
                   np.array([0.1, 0.2, 0.3, 0.4]), np.array(list("abcd")),
                   np.array([1.0, 2.0, np.nan, 3.0])]
        spec = argparse.Namespace(command="single-sweep", format=fmt,
                                  out=str(tmp_path / f"emit.{fmt}"))
        cli._emit(spec, header, columns)
        _stdlib_table(tmp_path / f"stdlib.{fmt}", fmt, header, columns)
        assert (tmp_path / f"emit.{fmt}").read_bytes() == (tmp_path / f"stdlib.{fmt}").read_bytes()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("header, columns", [
        # every column constant: the row template repeated
        (["a", "z", "n", "s"], [np.full(3, 0.1), np.full(3, -0.0), np.full(3, -7),
                                ["w%p"] * 3]),
        # one row, so every column constant
        (["x", "n", "s"], [np.array([2.0 / 3.0]), np.array([2**63 - 1]), ["pw"]]),
        (["x"], [np.array([5e-324])]),
        # a header holding %, beside constant and varying columns
        (["p%d", "%%", "q%"], [np.full(2, 0.5), np.array([1.0, 2.0]), np.array([0.0, -0.0])]),
        # constant non-finite columns
        (["x", "y", "n"], [np.full(4, np.nan), np.full(4, -np.inf), np.arange(4)]),
        (["x", "y"], [np.full(2, np.inf), np.array([np.nan, 1.0])]),
    ])
    def test_constant_columns_as_the_stdlib_writes_them(self, tmp_path, fmt, header, columns):
        spec = argparse.Namespace(command="single-sweep", format=fmt,
                                  out=str(tmp_path / f"emit.{fmt}"))
        cli._emit(spec, header, columns)
        _stdlib_table(tmp_path / f"stdlib.{fmt}", fmt, header, columns)
        assert (tmp_path / f"emit.{fmt}").read_bytes() == (tmp_path / f"stdlib.{fmt}").read_bytes()
