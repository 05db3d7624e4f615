"""Command-line interface: subcommands, exit codes, output formats."""
import dataclasses
import json
import math
import re
import shlex
from pathlib import Path
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest

import entrobound.verify as verify_mod
from entrobound import __version__
from entrobound.cli import SWEEP_OPTIONS, main
from entrobound.ensembles import Ensemble
from entrobound.bounds import PRESETS, continuity_bound
from entrobound.gibbs import SpectrumModel, max_entropy, mean_energy, solve_inverse_temperature
from entrobound.operators import DensityMatrix
from entrobound.serialization import encode_ensemble, encode_matrix

LN2 = math.log(2.0)
README = Path(__file__).resolve().parent.parent / "README.md"
FORMATS = Path(__file__).resolve().parent.parent / "docs" / "formats.md"
# The subcommands whose README blocks show what they print.
README_COMMANDS = ("gibbs", "bound", "laa-check", "lemma2")
# Every README code block that runs one of them, as its lines: the
# command, then exactly what it prints.
README_EXAMPLES = [
    lines for lines in (block.splitlines() for block in
                        re.findall(r"^```[^\n]*\n(.*?)^```", README.read_text(), re.S | re.M))
    if lines and lines[0].startswith(tuple(f"$ entrobound {c} " for c in README_COMMANDS))
]


def write_counterexample_ensembles(tmp_path):
    mu = Ensemble(
        (0.5, 0.5),
        (DensityMatrix(np.diag([1.0, 0.0])), DensityMatrix(np.diag([0.0, 1.0]))),
    )
    nu = Ensemble(
        (0.6, 0.4),
        (DensityMatrix(np.diag([0.9, 0.1])), DensityMatrix(np.diag([0.0, 1.0]))),
    )
    first = tmp_path / "mu.json"
    second = tmp_path / "nu.json"
    first.write_text(json.dumps(encode_ensemble(mu)))
    second.write_text(json.dumps(encode_ensemble(nu)))
    return str(first), str(second)


class TestTopLevel:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == f"entrobound {__version__}"

    def test_usage_errors_exit_one(self, capsys):
        assert main(["gibbs"]) == 1
        assert "error:" in capsys.readouterr().err


class TestGibbsCommand:
    def test_two_level_frozen_solution(self, capsys):
        rc = main(["gibbs", "--levels", "0,1", "--energy", "0.25"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "inverse temperature: 1.098612" in out
        assert "max entropy: 0.562335144" in out
        assert "nats" in out

    def test_bits_conversion(self, capsys):
        rc = main(["gibbs", "--levels", "0,1", "--energy", "0.25", "--bits", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["unit"] == "bits"
        h2 = 0.25 * math.log2(4) + 0.75 * math.log2(4 / 3)
        assert payload["max_entropy"] == pytest.approx(h2, abs=1e-10)

    def test_lambda_mode(self, capsys):
        rc = main(["gibbs", "--oscillator", "1", "--lam", "1.0", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        # Mean energy of the unit oscillator at lam = 1.
        expected = 0.5 + 1.0 / (math.e - 1.0)
        assert payload["energy"] == pytest.approx(expected, rel=1e-9)
        assert payload["lambda"] == 1.0

    # Levels all at E0 have their mean level there: uniform at E0 too.
    @pytest.mark.parametrize("levels, energy, d", [("0,1,2", "1.7", 3), ("1,1", "1", 2)])
    def test_unconstrained_energy_reports_the_uniform_state(self, capsys, levels, energy, d):
        rc = main(["gibbs", "--levels", levels, "--energy", energy])
        assert rc == 0
        out = capsys.readouterr().out
        assert "inverse temperature: 0\n" in out
        assert "mean energy: 1\n" in out
        assert f"max entropy: {math.log(d):.12g} nats" in out
        assert f"log partition: {math.log(d):.12g} nats" in out
        assert "flag: none" in out

    @pytest.mark.parametrize("levels, energies", [
        ((0.0, 1.0, 2.0), (0.05, 0.5, 0.9, 0.99999999999, 1.0, 1.7, 40.0)),
        ((0.0, 0.7, 1.1, 3.0), (0.2, 1.0, 1.19999999999, 1.2, 2.5)),
        ((0.0, 0.0, 1.0), (0.1, 1.0 / 3.0, 0.9)),
    ])
    def test_printed_max_entropy_is_max_entropy(self, capsys, levels, energies):
        model = SpectrumModel.explicit(levels)
        arg = ",".join(repr(x) for x in levels)
        for energy in energies:
            want = max_entropy(model, energy)
            assert main(["gibbs", "--levels", arg, "--energy", repr(energy)]) == 0
            assert f"max entropy: {want:.12g} nats" in capsys.readouterr().out
            assert main(["gibbs", "--levels", arg, "--energy", repr(energy), "--json"]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["max_entropy"] == want
            # The printed mean energy is that of the reported state.
            if payload["lambda"] == 0.0:
                state_energy = float(np.mean(levels))
            else:
                state_energy = mean_energy(model, payload["lambda"])
            if payload["flag"] is None:
                assert abs(payload["energy"] - state_energy) <= 1e-9 * max(1.0, energy)
            else:
                assert payload["energy"] == state_energy
            assert payload["energy"] <= energy + 1e-12

    @pytest.mark.parametrize("spectrum, energy", [
        (["--levels", "0,1,2.5"], 0.7),
        (["--oscillator", "1,2"], 3.0),
        (["--logpower", "3"], 2.0),
        (["--logpower", "2.5"], 37.5),  # the tail integral carries 0.9% of the mean
    ])
    def test_energy_and_lam_are_inverse(self, capsys, spectrum, energy):
        assert main(["gibbs", *spectrum, "--energy", repr(energy), "--json"]) == 0
        solved = json.loads(capsys.readouterr().out)
        assert main(["gibbs", *spectrum, "--lam", repr(solved["lambda"]), "--json"]) == 0
        back = json.loads(capsys.readouterr().out)
        assert back["energy"] == pytest.approx(energy, rel=1e-9)
        assert back["max_entropy"] == pytest.approx(solved["max_entropy"], rel=1e-9)

    def test_clamped_solve_reports_the_state_mean_energy(self, capsys):
        rc = main(["gibbs", "--oscillator", "1e-5", "--energy", "5e-5", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["flag"] == "lambda_cap"
        # mean_energy is of H - E0; the command prints the mean energy of H.
        model = SpectrumModel.oscillator(1e-5)
        assert payload["energy"] == model.ground_energy + mean_energy(model, payload["lambda"])

    @pytest.mark.parametrize("spectrum, ground, energy, lam", [
        (["--levels", "0,1,2.5"], 0.0, "0.7", None),          # solved
        (["--oscillator", "1,2"], 1.5, "3", None),            # solved
        (["--logpower", "3"], 0.0, "2", None),                # solved
        (["--levels", "0.5,1.5,2"], 0.5, "1.5", 0.0),         # uniform, mean level 4/3
        (["--levels", "0,0.00001"], 0.0, "0", 1e4),           # ground limit
        (["--levels", "0.25,0.25,1"], 0.25, "0.25", 1e4),     # ground limit
        (["--oscillator", "1"], 0.5, "0.5", 1e4),             # ground limit
        (["--logpower", "2.5"], 0.0, "0", 1e4),               # ground limit
    ])
    def test_printed_lines_satisfy_the_variational_identity(self, capsys, spectrum, ground,
                                                            energy, lam):
        # F = lam (E - E0) + ln Z(H - E0), with the printed mean energy E
        # and the printed ln Z of H, ln Z(H - E0) - lam E0.
        assert main(["gibbs", *spectrum, "--energy", energy, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        got = payload["lambda"]
        assert lam is None or got == lam
        assert payload["flag"] == ("lambda_cap" if lam == 1e4 else None)
        identity = got * (payload["energy"] - ground) + payload["log_partition"] + got * ground
        assert payload["max_entropy"] == pytest.approx(identity, rel=1e-12, abs=1e-12)

    def test_floor_clamped_solve_keeps_its_flag(self, capsys):
        assert main(["gibbs", "--oscillator", "1", "--energy", "1e9", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["flag"] == "lambda_floor"
        model = SpectrumModel.oscillator(1.0)
        assert payload["energy"] == model.ground_energy + mean_energy(model, payload["lambda"])

    @pytest.mark.parametrize("levels, energy, line", [
        ("1000000,1000000,1000001", "1000000", "max entropy: 0.69314718056 nats"),
        ("0,0.00001", "0", "max entropy: 0 nats"),
    ])
    def test_at_the_ground_prints_max_entropy(self, capsys, levels, energy, line):
        # ln(ground multiplicity), as max_entropy gives; the solve at the
        # clamped lam printed 0.693147659302 and 0.644396660074.
        model = SpectrumModel.explicit(float(x) for x in levels.split(","))
        assert main(["gibbs", "--levels", levels, "--energy", energy]) == 0
        out = capsys.readouterr().out.splitlines()
        assert line in out and "flag: lambda_cap" in out
        # The ground limit's mean energy is E0; the clamped solve printed
        # 4.75020812521e-06 for the second.
        assert f"mean energy: {energy}" in out
        assert line == f"max entropy: {max_entropy(model, float(energy)):.12g} nats"

    @pytest.mark.parametrize("spectrum, ground, energy, line", [
        (["--levels", "0,1"], "0", "-1e-10", "max entropy: 0 nats"),
        (["--levels", "0,0,1"], "0", "-5e-10", "max entropy: 0.69314718056 nats"),
        (["--oscillator", "1"], "0.5", "0.4999999999", "max entropy: 0 nats"),
        (["--oscillator", "1,1.5,2"], "2.25", "2.249999999", "max entropy: 0 nats"),
    ])
    def test_below_the_ground_prints_the_ground_limit(self, capsys, spectrum, ground, energy,
                                                      line):
        # Within the accepted tolerance below E0 the ground limit, as at
        # E0, with its mean energy E0; the clamped solve printed
        # "max entropy: -1e-06 nats" for the first.
        assert main(["gibbs", *spectrum, "--energy=" + energy]) == 0
        out = capsys.readouterr().out.splitlines()
        assert line in out and "flag: lambda_cap" in out
        assert f"mean energy: {ground}" in out

    def test_requires_exactly_one_target(self, capsys):
        assert main(["gibbs", "--levels", "0,1"]) == 1
        assert main(["gibbs", "--levels", "0,1", "--energy", "0.2", "--lam", "1.0"]) == 1

    def test_rejects_nonpositive_lambda(self, capsys):
        assert main(["gibbs", "--levels", "0,1", "--lam", "-1"]) == 1

    @pytest.mark.parametrize("argv, message", [
        (["--levels", "0,1", "--lam", "nan"], "--lam must be positive and finite, got nan"),
        (["--oscillator", "1", "--lam", "inf"], "--lam must be positive and finite, got inf"),
        (["--levels", "0,1", "--energy", "nan"], "--energy must be finite, got nan"),
        (["--oscillator", "1", "--energy", "inf"], "--energy must be finite, got inf"),
    ])
    def test_rejects_non_finite_inputs(self, capsys, argv, message):
        # Each printed nan, exited 3 as a numerical failure, or raised a
        # traceback from the Newton solve.
        assert main(["gibbs", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_hamiltonian_file_input(self, tmp_path, capsys):
        path = tmp_path / "h.json"
        path.write_text(json.dumps(encode_matrix(np.diag([0.0, 1.0]))))
        rc = main(["gibbs", "--hamiltonian", str(path), "--energy", "0.25", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["lambda"] == pytest.approx(math.log(3.0), abs=1e-8)

    def test_spectrum_file_input(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"kind": "oscillator", "frequencies": [1.0]}))
        rc = main(["gibbs", "--spectrum", str(path), "--energy", "1.5", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["max_entropy"] == pytest.approx(2 * LN2, abs=1e-6)

    def test_short_truncation_reads_the_tail_integral(self, capsys):
        # At lam = 1e-3 the integral past N = 50 is e^(6.7e13) times the series.
        rc = main(["gibbs", "--logpower", "1.2", "--truncation", "50", "--lam", "0.001", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["flag"] is None
        assert all(math.isfinite(payload[key]) for key in ("energy", "max_entropy", "log_partition"))

    @pytest.mark.parametrize("extra, line", [
        ([], "max entropy: 7.59198436578 nats"),
        (["--truncation", "100000"], "max entropy: 7.59197992312 nats"),
    ])
    def test_exponent_near_one_solves(self, capsys, extra, line):
        # At q = 1.01 the peak's u^q passes the largest float below
        # lam = 8.8e-4; those probes read +inf and the solve moves past them.
        assert main(["gibbs", "--logpower", "1.01", "--energy", "5", *extra]) == 0
        assert line in capsys.readouterr().out.splitlines()

    def test_exponent_near_one_solves_at_huge_energy(self, capsys):
        assert main(["gibbs", "--logpower", "1.01", "--energy", "1e30", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["flag"] is None
        assert payload["lambda"] == pytest.approx(0.4996, rel=1e-4)


class TestBoundCommand:
    def test_closed_form_is_an_unknown_option(self, capsys):
        rc = main(["bound", "--preset", "entropy", "--oscillator", "1", "--closed-form",
                   "--epsilon", "0.08", "--energy", "1.5"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --closed-form" in captured.err

    def test_dimension_backed_bound(self, capsys):
        rc = main(["bound", "--preset", "entropy", "--dim-b", "8", "--epsilon", "1.0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "bound: 3.46573590" in out

    def test_spectrum_bound_requires_energy(self, capsys):
        rc = main(["bound", "--preset", "entropy", "--levels", "0,1", "--epsilon", "0.1"])
        assert rc == 1
        assert "--energy" in capsys.readouterr().err

    def test_unknown_preset_exits_one(self, capsys):
        rc = main(["bound", "--preset", "negentropy", "--dim-b", "4", "--epsilon", "0.1"])
        assert rc == 1

    def test_pure_flag_shrinks_bound(self, capsys):
        args = ["bound", "--preset", "entropy", "--dim-b", "8", "--epsilon", "0.2", "--json"]
        main(args)
        mixed = json.loads(capsys.readouterr().out)["value"]
        main(args + ["--pure"])
        pure = json.loads(capsys.readouterr().out)["value"]
        assert pure < mixed

    def test_bits_flag(self, capsys):
        base = ["bound", "--preset", "entropy", "--dim-b", "2", "--epsilon", "0.5", "--json"]
        main(base)
        nats = json.loads(capsys.readouterr().out)["value"]
        main(base + ["--bits"])
        bits = json.loads(capsys.readouterr().out)["value"]
        assert bits == pytest.approx(nats / LN2, rel=1e-12)

    @pytest.mark.parametrize("command,values", [
        ("--oscillator 1.0 --preset entropy --epsilon 0.08 --energy 1.5",
         ("2.2634585038777555", "1.4258810798583952", "0.8375774240193601", '"entropy"', "0.08",
          "0.08", "1.5", "13.0", "3.564702699645988")),
        ("--dim-b 8 --preset cond-entropy --epsilon 1.0",
         ("5.545177444479562", "4.1588830833596715", "1.3862943611198906", '"cond-entropy"', "1.0",
          "1.0", "null", "null", "2.0794415416798357")),
        ("--logpower 2.5 --preset entropy --epsilon 0.08 --energy 3",
         ("3.1146256176675386", "2.2770481936481786", "0.8375774240193601", '"entropy"', "0.08",
          "0.08", "3.0", "37.5", "5.692620484120446")),
        ("--logpower 2 --preset entropy --epsilon 0.01 --energy 2900",
         ("77.15994485663936", "76.73234235818302", "0.42760249845634224", '"entropy"', "0.01",
          "0.01", "2900.0", "290000.0", "542.5795961779897")),
    ], ids=["oscillator", "dim-b", "logpower2.5", "logpower2"])
    def test_readme_bounds_print_the_pinned_json(self, capsys, command, values):
        # The README's bound commands with --json, byte for byte: the
        # BoundResult fields in order, then the unit.
        keys = ("value", "main_term", "additive_term", "preset", "epsilon", "epsilon_effective",
                "energy", "f_argument", "f_value", "pure", "unit")
        lines = [f'  "{k}": {v}' for k, v in zip(keys, values + ("false", '"nats"'), strict=True)]
        assert main(["bound", *command.split(), "--json"]) == 0
        assert capsys.readouterr().out == "{\n" + ",\n".join(lines) + "\n}\n"

    @pytest.mark.parametrize("energy", ["nan", "inf"])
    def test_non_finite_energy_exits_one(self, capsys, energy):
        rc = main(["bound", "--preset", "entropy", "--oscillator", "1", "--epsilon", "0.1",
                   "--energy", energy])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: continuity_bound: energy={energy}" in captured.err

    def test_overflowing_f_argument_exits_one(self, capsys):
        # E0 + (E - E0) / eps overflows to inf: one error line names the
        # given energy and epsilon and says which to change.
        rc = main(["bound", "--preset", "entropy", "--oscillator", "1", "--epsilon", "0.001",
                   "--energy", "1e308"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: continuity_bound: F's argument E0 + (E - E0)/epsilon overflows at energy "
            "1e+308 and epsilon 0.001; lower the energy or raise epsilon"]

    NEGATIVE_GROUND = ["bound", "--preset", "entropy", "--levels=-10,-9,-8,-7,-6,-5,-4,-3"]

    @pytest.mark.parametrize("eps, energy, line", [
        ("0.5", "-4", "bound: 3.4657359028 nats"),
        ("0.1", "-9.95", "bound: 1.32174743102 nats"),
    ])
    def test_negative_ground_prints_the_shifted_bound(self, capsys, eps, energy, line):
        # Levels 0..7 at E + 10 print the same lines.
        rc = main(self.NEGATIVE_GROUND + ["--epsilon", eps, f"--energy={energy}"])
        assert rc == 0
        assert line in capsys.readouterr().out.splitlines()

    def test_ground_far_below_zero_prints_the_bound_of_the_lowered_levels(self, capsys):
        # Levels -1e12 .. -1e12 + 15 and levels 0 .. 15, each at E0 +
        # 0.4000244140625; lam E + ln Z of H once printed 2.07944154168
        # for the first, reading every level within 1 of E0 as ground.
        for first in (-10**12, 0):
            levels = ",".join(str(first + k) for k in range(16))
            energy = repr(first + 0.4000244140625)
            assert main(["bound", "--preset", "entropy", f"--levels={levels}", "--epsilon", "0.5",
                         f"--energy={energy}"]) == 0
            assert "bound: 2.62286247482 nats" in capsys.readouterr().out.splitlines()

    def test_energy_below_ground_names_the_given_energy(self, capsys):
        # The F argument, E0 + (E - E0)/eps = -10.5, is not what the user gave.
        rc = main(self.NEGATIVE_GROUND + ["--epsilon", "0.1", "--energy=-10.05"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: continuity_bound: energy -10.05 below the ground "
                                "energy -10.0\n")

    def test_solved_oscillator_is_exact_far_past_any_series_cut(self, capsys):
        # E0 + (E - E0)/eps_eff = 30000.5: F = g(30000), not a sum cut at 4096 terms.
        rc = main(["bound", "--oscillator", "1.0", "--preset", "entropy", "--epsilon", "0.01",
                   "--energy", "2", "--pure"])
        assert rc == 0
        assert "bound: 0.169191229293 nats" in capsys.readouterr().out.splitlines()

    def test_formerly_refused_logpower_query_prints_a_bound(self, capsys):
        # E / eps = 37.5 needs the series past its 4096 default terms; the
        # tail integral carries it, at most 1e-6 above the 100000-term bound.
        rc = main(["bound", "--logpower", "2.5", "--preset", "entropy", "--epsilon", "0.08",
                   "--energy", "3", "--json"])
        assert rc == 0
        value = json.loads(capsys.readouterr().out)["value"]
        assert 3.11462544519 <= value <= 3.11462544519 + 1e-6

    def test_logpower_bound(self, capsys):
        rc = main(["bound", "--logpower", "3", "--preset", "entropy", "--epsilon", "0.08",
                   "--energy", "1"])
        assert rc == 0
        assert "bound: 2.16332994402 nats" in capsys.readouterr().out.splitlines()

    def test_raised_truncation_reaches_the_logpower_bound(self, capsys):
        rc = main(["bound", "--logpower", "2.5", "--preset", "entropy", "--epsilon", "0.08",
                   "--energy", "3", "--truncation", "100000"])
        assert rc == 0
        assert "bound: 3.1146254452 nats" in capsys.readouterr().out.splitlines()

    def test_logpower_exponent_near_one_bound(self, capsys):
        rc = main(["bound", "--logpower", "1.01", "--preset", "entropy", "--epsilon", "0.1",
                   "--energy", "1", "--json"])
        assert rc == 0
        assert math.isfinite(json.loads(capsys.readouterr().out)["value"])

    @pytest.mark.parametrize("energy,line", [("1e6", "bound: 13884270.4056 nats"),
                                             ("1e4", "bound: 139484.929493 nats")])
    def test_logpower_exponent_nearer_one_bound(self, capsys, energy, line):
        rc = main(["bound", "--logpower", "1.001", "--preset", "entropy", "--epsilon", "0.01",
                   "--energy", energy])
        assert rc == 0
        assert line in capsys.readouterr().out.splitlines()

    def test_dim_b_refuses_energy(self, capsys):
        rc = main(["bound", "--preset", "entropy", "--dim-b", "8", "--epsilon", "0.1",
                   "--energy", "1.0"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--dim-b takes no --energy" in captured.err


def _mp_envelope(model, x):
    """F(E0 + x) in 60-digit arithmetic: lam x + ln Z(lam) where the mean excess is x."""
    if x == 0:
        return mpmath.mpf(0)
    if model.kind == "explicit":
        excitations = [mpmath.mpf(level) - mpmath.mpf(model.levels[0]) for level in model.levels]
        if x >= mpmath.fsum(excitations) / len(excitations):
            return mpmath.log(len(excitations))

        def log_z(lam):
            return mpmath.log(mpmath.fsum(mpmath.exp(-lam * e) for e in excitations))

        def mean(lam):
            return mpmath.fsum(e * mpmath.exp(-lam * e) for e in excitations) / mpmath.exp(log_z(lam))
    else:
        freqs = [mpmath.mpf(f) for f in model.frequencies]

        def log_z(lam):
            return -mpmath.fsum(mpmath.log(-mpmath.expm1(-lam * f)) for f in freqs)

        def mean(lam):
            return mpmath.fsum(f / mpmath.expm1(lam * f) for f in freqs)
    # The float solve only starts the 60-digit root.
    start = solve_inverse_temperature(model, model.ground_energy + float(x)).lam
    lam = mpmath.findroot(lambda lam: mean(lam) - x, mpmath.mpf(start))
    return lam * x + log_z(lam)


class TestPrintedBoundsRoundUp:
    SPECTRA = {"--oscillator=1": SpectrumModel.oscillator(1.0),
               "--oscillator=1,1.5,2": SpectrumModel.oscillator((1.0, 1.5, 2.0)),
               "--levels=" + ",".join(str(k) for k in range(16)): SpectrumModel.explicit(range(16))}
    LABELS = ("spectrum envelope term", "main term", "additive term", "bound")

    @staticmethod
    def _queries():
        rng = np.random.default_rng(20261021)
        for spectrum in TestPrintedBoundsRoundUp.SPECTRA:
            for preset in sorted(PRESETS):
                for k in range(3):
                    eps = float(np.exp(rng.uniform(math.log(0.005), math.log(0.5))))
                    excess = 0.0 if k == 0 and preset == "entropy" else float(
                        np.exp(rng.uniform(math.log(1e-3), math.log(3.0))))
                    yield spectrum, preset, eps, excess, rng.uniform() < 0.3, rng.uniform() < 0.25

    def test_every_printed_decimal_is_at_or_above_the_60_digit_value(self, capsys):
        checked = 0
        for spectrum, preset, eps, excess, pure, bits in self._queries():
            model = self.SPECTRA[spectrum]
            energy = model.ground_energy + excess
            argv = ["bound", spectrum, "--preset", preset, "--epsilon", repr(eps),
                    "--energy", repr(energy)] + ["--pure"] * pure + ["--bits"] * bits
            assert main(argv) == 0
            printed = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
            desc = PRESETS[preset]
            with mpmath.workdps(60):
                eps_eff = mpmath.mpf(eps) ** 2 / 2 if pure else mpmath.mpf(eps)
                delta = mpmath.sqrt(2 * eps_eff)
                x = (mpmath.mpf(energy) - mpmath.mpf(model.ground_energy)) / eps_eff
                f = _mp_envelope(model, x)
                main_term = (mpmath.mpf(desc.c_minus) + desc.c_plus) * delta * f
                additive = desc.g_multiplier * ((1 + delta) * mpmath.log1p(delta)
                                                - delta * mpmath.log(delta))
                unit = mpmath.log(2) if bits else 1
                for label, exact in zip(self.LABELS, (f, main_term, additive, main_term + additive)):
                    value, name = printed[label].split()
                    assert name == ("bits" if bits else "nats")
                    assert mpmath.mpf(value) >= exact / unit, (argv, label, value)
                    checked += 1
            value = continuity_bound(preset, model, eps, energy, pure=pure).value / (LN2 if bits else 1)
            assert abs(float(printed["bound"].split()[0]) - value) <= 1e-10 * value
        assert checked == 4 * 3 * 6 * 3


class TestReadmeExamples:
    def test_readme_shows_every_printing_command(self):
        commands = {lines[0].split()[2] for lines in README_EXAMPLES}
        assert commands == set(README_COMMANDS)

    @pytest.mark.parametrize("lines", README_EXAMPLES, ids=lambda lines: lines[0][13:])
    def test_printed_lines_equal_the_block(self, capsys, lines):
        assert main(shlex.split(lines[0])[2:]) == 0
        assert capsys.readouterr().out.splitlines() == lines[1:]


class TestTruncationOption:
    BOUND = ["bound", "--preset", "entropy", "--epsilon", "0.1", "--truncation", "5"]

    @pytest.fixture
    def files(self, tmp_path):
        ham = tmp_path / "h.json"
        ham.write_text(json.dumps(encode_matrix(np.diag([0.0, 1.0]))))
        spec = tmp_path / "explicit.json"
        spec.write_text(json.dumps({"kind": "explicit", "levels": [0.0, 1.0]}))
        osc = tmp_path / "oscillator.json"
        osc.write_text(json.dumps({"kind": "oscillator", "frequencies": [1.0]}))
        return {"HAM": str(ham), "SPEC": str(spec), "OSC": str(osc)}

    @pytest.mark.parametrize("envelope,what", [
        (["--levels", "0,1", "--energy", "0.3"], "an explicit spectrum"),
        (["--hamiltonian", "HAM", "--energy", "0.3"], "an explicit spectrum"),
        (["--spectrum", "SPEC", "--energy", "0.3"], "an explicit spectrum"),
        (["--oscillator", "1", "--energy", "1.5"], "an oscillator spectrum"),
        (["--spectrum", "OSC", "--energy", "1.5"], "an oscillator spectrum"),
        (["--dim-b", "4"], "the finite --dim-b form"),
    ], ids=["levels", "hamiltonian", "explicit-spectrum-file", "oscillator",
            "oscillator-spectrum-file", "dim-b"])
    def test_bound_refuses_truncation_without_a_series(self, capsys, files, envelope, what):
        rc = main(self.BOUND + [files.get(arg, arg) for arg in envelope])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--truncation applies only to a log-power spectrum; {what}" in captured.err

    @pytest.mark.parametrize("envelope", [["--levels", "0,1"], ["--hamiltonian", "HAM"],
                                          ["--spectrum", "SPEC"], ["--oscillator", "1"],
                                          ["--spectrum", "OSC"]],
                             ids=["levels", "hamiltonian", "explicit-spectrum-file",
                                  "oscillator", "oscillator-spectrum-file"])
    def test_gibbs_refuses_truncation_without_a_series(self, capsys, files, envelope):
        rc = main(["gibbs", "--energy", "0.75", "--truncation", "5"]
                  + [files.get(arg, arg) for arg in envelope])
        assert rc == 1
        assert "--truncation applies only to a log-power spectrum" in capsys.readouterr().err

    def test_logpower_spectrum_file_keeps_its_truncation(self, tmp_path, capsys):
        path = tmp_path / "logpower.json"
        path.write_text(json.dumps({"kind": "logpower", "q": 2.5, "truncation": 100}))

        def log_z(*spectrum):
            assert main(["gibbs", *spectrum, "--lam", "0.5", "--json"]) == 0
            return json.loads(capsys.readouterr().out)["log_partition"]

        from_file = log_z("--spectrum", str(path))
        assert from_file == log_z("--logpower", "2.5", "--truncation", "100")
        assert from_file != log_z("--logpower", "2.5")
        # --truncation overrides the file's.
        assert log_z("--spectrum", str(path), "--truncation", "4096") == log_z("--logpower", "2.5")


class TestVerifyCommand:
    BASE = ["verify", "--family", "entropy", "--dims", "4", "--trials", "3",
            "--epsilons", "0.1,0.25", "--energy", "1.0", "--seed", "7"]

    def test_single_family_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = main(self.BASE + ["--out", str(out)])
        assert rc == 0
        text = out.read_text()
        assert text.startswith("# entrobound sweep format 2\n# config-sha256: ")
        assert text.count("\n") == 3 + 6
        stdout = capsys.readouterr().out
        assert "entropy: 6 rows, 0 violations" in stdout

    def test_stdout_csv_mode(self, capsys):
        rc = main(self.BASE + ["--out", "-"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("# entrobound sweep format 2")

    def test_manifest_written(self, tmp_path):
        out = tmp_path / "sweep.csv"
        manifest = tmp_path / "run.json"
        rc = main(self.BASE + ["--out", str(out), "--manifest", str(manifest)])
        assert rc == 0
        data = json.loads(manifest.read_text())
        assert data["command"] == "verify"
        assert len(data["reports"]) == 1
        assert data["reports"][0]["family"] == "entropy"
        assert data["reports"][0]["violations"] == 0

    def test_csv_has_no_timestamps(self, tmp_path):
        out = tmp_path / "sweep.csv"
        main(self.BASE + ["--out", str(out)])
        text = out.read_text()
        assert "20" + "26" not in text.split("\n")[0]
        assert "utc" not in text.lower()

    def test_suite_writes_all_csvs_and_manifest(self, tmp_path, capsys, monkeypatch):
        # Each sweep's CSV and summary line are out before the next sweep starts.
        printed, seen = [], []

        def run_sweep(config):
            printed.append(capsys.readouterr().out)
            seen.append((len(list(tmp_path.glob("*.csv"))), "".join(printed).count("\n")))
            return verify_mod.run_sweep(config)

        monkeypatch.setattr("entrobound.cli.run_sweep", run_sweep)
        rc = main(["verify", "--suite", "--trials", "2", "--out-dir", str(tmp_path)])
        assert rc == 0
        assert seen == [(k, k) for k in range(15)]
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert len(manifest["reports"]) == 15
        for entry in manifest["reports"]:
            assert entry["violations"] == 0
            assert (tmp_path / entry["csv"].split("/")[-1]).exists()
        names = {entry["csv"].split("/")[-1] for entry in manifest["reports"]}
        assert "entropy.csv" in names
        assert "channel-mi-attenuator-pure.csv" in names

    def test_suite_manifest_path_is_honoured(self, tmp_path, capsys):
        manifest = tmp_path / "elsewhere" / "run.json"
        manifest.parent.mkdir()
        out_dir = tmp_path / "sweeps"
        rc = main(["verify", "--suite", "--trials", "1", "--out-dir", str(out_dir),
                   "--manifest", str(manifest)])
        assert rc == 0
        assert len(json.loads(manifest.read_text())["reports"]) == 15
        assert not (out_dir / "manifest.json").exists()

    SINGLE_SWEEP_OPTIONS = [
        ["--family", "entropy"], ["--epsilons", "0.3"], ["--energy", "2"],
        ["--sampler", "boundary"], ["--pure"], ["--dims", "4"],
        ["--channel", "identity"],
    ]

    @pytest.mark.parametrize("option", SINGLE_SWEEP_OPTIONS)
    def test_suite_refuses_single_sweep_options(self, tmp_path, capsys, option):
        rc = main(["verify", "--suite", "--trials", "1", "--out-dir", str(tmp_path)] + option)
        assert rc == 1
        assert f"drop {option[0]}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_every_config_knob_is_a_sweep_option(self):
        # A SweepConfig field the command line cannot set, or an option no
        # field reads, fails here; --pure sets the sampler.
        knobs = {f.name for f in dataclasses.fields(verify_mod.SweepConfig)}
        assert set(SWEEP_OPTIONS) == knobs - {"seed", "trials"} | {"pure"}
        refused = {option[0] for option in self.SINGLE_SWEEP_OPTIONS}
        assert refused == {"--" + opt.replace("_", "-") for opt in SWEEP_OPTIONS}

    def test_digest_payload_has_the_documented_keys(self, monkeypatch):
        payloads = []
        monkeypatch.setattr(verify_mod, "canonical_json",
                            lambda obj: payloads.append(obj) or json.dumps(obj))
        verify_mod.config_digest(verify_mod.SweepConfig(family="channel-mi", seed=1))
        count, keys = re.search(r"exactly these (\d+) keys: (.*?)\. ", FORMATS.read_text(),
                                re.S).groups()
        documented = re.findall(r"`(\w+)`", keys)
        assert len(documented) == int(count) == 12
        assert sorted(payloads[0]) == sorted(documented)

    def test_ensemble_size_is_not_an_option(self, capsys):
        rc = main(["verify", "--family", "holevo", "--trials", "1", "--epsilons", "0.1",
                   "--ensemble-size", "3"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --ensemble-size 3" in captured.err

    def test_suite_requires_out_dir(self, capsys):
        assert main(["verify", "--suite", "--trials", "2"]) == 1

    def test_suite_refuses_out(self, tmp_path, capsys):
        rc = main(["verify", "--suite", "--trials", "1", "--out-dir", str(tmp_path),
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        assert "drop --out" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_single_sweep_refuses_out_dir(self, tmp_path, capsys):
        out_dir = tmp_path / "sweeps"
        rc = main(self.BASE + ["--out-dir", str(out_dir)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--out-dir needs --suite" in captured.err
        assert not out_dir.exists()

    @pytest.mark.parametrize("energy", ["nan", "inf"])
    def test_non_finite_energy_exits_one(self, capsys, energy):
        rc = main(["verify", "--family", "entropy", "--dims", "4", "--trials", "1",
                   "--epsilons", "0.1", "--energy", energy])
        assert rc == 1
        assert f"error: sweep energy {energy} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("dims", ["0", "-2", "4,0"])
    def test_nonpositive_dim_exits_one(self, capsys, dims):
        family = "cond-entropy" if "," in dims else "entropy"
        rc = main(["verify", "--family", family, "--dims", dims, "--trials", "1",
                   "--epsilons", "0.1"])
        assert rc == 1
        bad = [d for d in dims.split(",") if int(d) < 1][0]
        assert f"got dim {bad} in dims" in capsys.readouterr().err

    def test_family_without_a_channel_refuses_one(self, capsys):
        rc = main(self.BASE + ["--channel", "depolarizing:0.25"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "channel applies only to channel sweeps; entropy sweeps have no channel" \
            in captured.err

    @pytest.mark.parametrize("channel,message", [
        ("dephasing", "error: channel 'dephasing' takes 1 parameter(s) (p), got 0\n"),
        ("identity:0.3", "error: channel 'identity' takes 0 parameter(s), got 1\n"),
    ], ids=["missing", "extra"])
    def test_channel_parameter_count_exits_one(self, capsys, channel, message):
        rc = main(["verify", "--family", "channel-mi", "--channel", channel, "--trials", "1",
                   "--epsilons", "0.01"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message

    def test_family_or_suite_required(self, capsys):
        assert main(["verify", "--trials", "2"]) == 1

    def test_pure_flag_form_used_by_the_benchmark(self, capsys):
        # perfbench/workloads.py::verify_command passes --pure next to
        # --sampler pure; the flag stays even though the sampler implies it.
        rc = main(["verify", "--family", "channel-mi", "--trials", "1", "--epsilons", "0.1",
                   "--energy", "2.0", "--seed", "1", "--sampler", "pure", "--pure",
                   "--channel", "attenuator:0.8"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        rows = [ln for ln in lines if not ln.startswith("#")][1:]
        assert len(rows) == 1
        margin = float(rows[0].split(",")[verify_mod.CSV_COLUMNS.index("margin")])
        assert margin >= verify_mod.MARGIN_TOL

    PURE_SAMPLER = ["verify", "--trials", "2", "--epsilons", "0.1", "--energy", "2.0",
                    "--seed", "1", "--sampler", "pure", "--out", "-"]
    PURE = PURE_SAMPLER + ["--pure"]

    @pytest.mark.parametrize("family", ["entropy", "channel-mi"])
    @pytest.mark.parametrize("variant", [["--pure"], []], ids=["pure", "sampler-only"])
    def test_pure_sweep_without_an_ancilla_exits_one(self, capsys, family, variant):
        # f of a pure state on a single factor is 0, so the sweep could not fail.
        rc = main(self.PURE_SAMPLER + variant + ["--family", family, "--dims", "16"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "ancilla" in captured.err and "(16, 2)" in captured.err

    def test_pure_sampler_alone_is_the_pure_variant(self, capsys):
        # --sampler pure bounds with the pure-state variant; --pure adds nothing.
        csvs = []
        for variant in ([], ["--pure"]):
            rc = main(["verify", "--family", "entropy", "--trials", "3", "--epsilons", "0.1",
                       "--seed", "1", "--sampler", "pure", *variant])
            assert rc == 0
            csvs.append(capsys.readouterr().out)
        assert csvs[0] == csvs[1]
        rows = [ln.split(",") for ln in csvs[0].splitlines() if not ln.startswith("#")][1:]
        col = verify_mod.CSV_COLUMNS.index("bound")
        assert [r[col] for r in rows] == ["0.61235857930814008"] * 3

    @pytest.mark.parametrize("sampler", ["boundary", "mixed"])
    def test_pure_flag_contradicting_the_sampler_exits_one(self, capsys, sampler):
        rc = main(["verify", "--family", "entropy", "--trials", "1", "--epsilons", "0.1",
                   "--seed", "1", "--sampler", sampler, "--pure"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--pure" in captured.err and f"--sampler {sampler}" in captured.err

    @pytest.mark.parametrize("flags", [["--pure"], ["--sampler", "boundary"],
                                       ["--sampler", "pure"]])
    def test_holevo_refuses_every_sampler_but_mixed(self, capsys, flags):
        rc = main(["verify", "--family", "holevo", "--trials", "1", "--epsilons", "0.1",
                   "--seed", "1", *flags])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: holevo sweeps take the sampler(s) mixed; got" in captured.err

    @pytest.mark.parametrize("suite", [False, True], ids=["family", "suite"])
    def test_negative_seed_exits_one(self, tmp_path, capsys, suite):
        sweeps = ["--suite", "--out-dir", str(tmp_path)] if suite else ["--family", "entropy"]
        assert main(["verify", "--trials", "1", "--seed", "-1", *sweeps]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: seed must be >= 0, got -1\n"

    def test_pure_flag_alone_is_the_pure_sampler(self, capsys):
        csvs = []
        for flags in (["--pure"], ["--sampler", "pure"]):
            rc = main(["verify", "--family", "entropy", "--trials", "2", "--epsilons", "0.1",
                       "--seed", "1", *flags])
            assert rc == 0
            csvs.append(capsys.readouterr().out)
        assert csvs[0] == csvs[1]

    @pytest.mark.parametrize("family", ["entropy", "channel-mi"])
    def test_pure_sampler_alone_draws_on_the_ancilla_dims(self, capsys, family):
        # --sampler pure without --pure also takes pure_dims, so f is not 0.
        rc = main(self.PURE_SAMPLER + ["--family", family])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        rows = [ln.split(",") for ln in lines if not ln.startswith("#")][1:]
        col = verify_mod.CSV_COLUMNS.index("abs_diff")
        assert len(rows) == 2
        assert min(float(r[col]) for r in rows) > 1e-3

    def test_pure_channel_sweep_accepts_an_ancilla(self, capsys):
        rc = main(self.PURE + ["--family", "channel-mi", "--dims", "16,2"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        rows = [ln.split(",") for ln in lines if not ln.startswith("#")][1:]
        col = verify_mod.CSV_COLUMNS.index("abs_diff")
        assert len(rows) == 2
        assert max(float(r[col]) for r in rows) > 1e-9

    def test_violation_exits_two(self, tmp_path, monkeypatch, capsys):
        def broken_bound(preset, model, eps, energy, pure=False):
            return SimpleNamespace(value=0.0)

        monkeypatch.setattr(verify_mod, "continuity_bound", broken_bound)
        rc = main(self.BASE + ["--out", str(tmp_path / "v.csv")])
        assert rc == 2
        assert "bound violation" in capsys.readouterr().err


class TestLaaCheckCommand:
    def test_negative_seed_exits_one(self, capsys):
        rc = main(["laa-check", "--quantity", "entropy", "--dims", "4", "--trials", "2",
                   "--seed", "-1"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: seed must be >= 0, got -1\n"

    def test_passes_and_reports(self, capsys):
        rc = main(["laa-check", "--quantity", "entropy", "--dims", "4",
                   "--trials", "50", "--seed", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "verdict: PASS" in out
        assert "worst lower slack" in out

    def test_json_payload(self, capsys):
        rc = main(["laa-check", "--quantity", "mutual-info", "--dims", "2,2",
                   "--trials", "40", "--seed", "3", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        assert payload["quantity"] == "mutual-info"
        assert payload["worst_lower"] >= -1e-8

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_nonpositive_trials_exit_one(self, capsys, trials):
        rc = main(["laa-check", "--quantity", "entropy", "--dims", "3",
                   "--trials", trials])
        assert rc == 1
        assert "trials" in capsys.readouterr().err

    def test_dims_shape_error_exits_one(self, capsys):
        rc = main(["laa-check", "--quantity", "entropy", "--dims", "2,2",
                   "--trials", "5"])
        assert rc == 1

    @pytest.mark.parametrize("quantity,dims", [("entropy", "0"), ("mutual-info", "2,-1")])
    def test_nonpositive_dim_exits_one(self, capsys, quantity, dims):
        rc = main(["laa-check", "--quantity", quantity, "--dims", dims, "--trials", "3"])
        assert rc == 1
        bad = [d for d in dims.split(",") if int(d) < 1][0]
        assert f"error: laa-check of {quantity} needs factor dims >= 1, got dim {bad}" \
            in capsys.readouterr().err


class TestLemma2Command:
    def test_cubic_exponent_is_consistent(self, capsys):
        rc = main(["lemma2", "--q", "3", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "consistent"

    def test_square_exponent_is_inconsistent(self, capsys):
        rc = main(["lemma2", "--q", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "verdict: inconsistent" in out
        assert "certified lower bound" in out

    def test_integral_mean_energy_rises_as_lam_falls(self, capsys):
        # The integral leads the measure from lam = 0.5 down.  At lam = 0.01
        # its mean is about 3.5e21: the two logs share the peak exponent
        # 3.5e18, whose ulp (512) exceeds their difference (50).
        rc = main(["lemma2", "--q", "1.1", "--lambdas", "1,0.1,0.01,1e-7", "--json"])
        assert rc == 0
        energies = json.loads(capsys.readouterr().out)["energies"]
        assert all(math.isfinite(e) for e in energies)
        assert all(a < b for a, b in zip(energies, energies[1:]))
        assert energies[2] == pytest.approx(3.5049e21, rel=1e-4)

    def test_rejects_small_exponent(self, capsys):
        rc = main(["lemma2", "--q", "0.5"])
        assert rc == 1


class TestEnsembleDistCommand:
    def test_ordered_metric(self, tmp_path, capsys):
        first, second = write_counterexample_ensembles(tmp_path)
        rc = main(["ensemble-dist", "--first", first, "--second", second,
                   "--metric", "d0", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metric"] == "d0"
        assert payload["value"] == pytest.approx(0.1, abs=1e-12)

    def test_transport_metric_with_plan(self, tmp_path, capsys):
        first, second = write_counterexample_ensembles(tmp_path)
        rc = main(["ensemble-dist", "--first", first, "--second", second,
                   "--metric", "dstar", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == pytest.approx(0.14, abs=1e-9)
        plan = np.asarray(payload["plan"])
        assert np.allclose(plan, [[0.5, 0.0], [0.1, 0.4]], atol=1e-8)

    def test_default_metric_is_ordered(self, tmp_path, capsys):
        first, second = write_counterexample_ensembles(tmp_path)
        rc = main(["ensemble-dist", "--first", first, "--second", second])
        assert rc == 0
        assert "ordered distance: 0.1" in capsys.readouterr().out

    def test_bad_file_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        rc = main(["ensemble-dist", "--first", str(bad), "--second", str(bad)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestMalformedInput:
    """Outside input exits 1 with an error line, never a traceback."""

    SPECTRA = [
        {"kind": "explicit", "levels": "0123"},           # read as levels 0, 1, 2, 3
        {"kind": "explicit", "levels": [0, None]},
        {"kind": "explicit", "levels": None},
        {"kind": "explicit", "levels": [0, True]},
        {"kind": "explicit", "levels": [[0, 1]]},
        {"kind": "explicit", "levels": [0, 1], "frequencies": [1.0]},  # dropped
        {"kind": "explicit", "levels": [0, 1], "spacing": 1},
        {"kind": "oscillator", "frequencies": "12"},
        {"kind": "oscillator", "frequencies": True},
        {"kind": "logpower", "q": "abc"},                 # a ValueError traceback
        {"kind": "logpower", "q": None},
        {"kind": "logpower", "q": True},
        {"kind": "logpower", "q": 2.5, "truncation": "100"},
        {"kind": ["explicit"], "levels": [0, 1]},
        None,
    ]

    @pytest.mark.parametrize("command", [
        ["gibbs", "--energy", "1"],
        ["bound", "--preset", "entropy", "--epsilon", "0.1", "--energy", "1"],
    ])
    @pytest.mark.parametrize("spectrum", SPECTRA, ids=json.dumps)
    def test_spectrum_file(self, tmp_path, capsys, command, spectrum):
        path = tmp_path / "spectrum.json"
        path.write_text(json.dumps(spectrum))
        assert main(command + ["--spectrum", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err

    @pytest.mark.parametrize("change", [
        {"weights": ["a"]},                               # a ValueError traceback
        {"weights": ["1"]}, {"weights": [None]}, {"weights": [True]},
        {"weights": [float("nan")]}, {"weights": 1.0}, {"weights": [0.5, 0.5]},
        {"states": []}, {"states": 2},
    ], ids=json.dumps)
    def test_ensemble_file(self, tmp_path, capsys, change):
        first, _ = write_counterexample_ensembles(tmp_path)
        single = encode_ensemble(Ensemble((1.0,), (DensityMatrix(np.diag([1.0, 0.0])),)))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**single, **change}))
        assert main(["ensemble-dist", "--first", first, "--second", str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err
