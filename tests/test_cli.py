"""Command-line interface: subcommands, exit codes, output formats."""
import json
import math
import re
import shlex
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import entrobound.verify as verify_mod
from entrobound import __version__
from entrobound.cli import main
from entrobound.ensembles import Ensemble
from entrobound.gibbs import SpectrumModel, max_entropy, mean_energy
from entrobound.operators import DensityMatrix
from entrobound.serialization import encode_ensemble, encode_matrix

LN2 = math.log(2.0)
README = Path(__file__).resolve().parent.parent / "README.md"
# Every README code block that runs `entrobound gibbs` or `entrobound
# bound`, as its lines: the command, then exactly what it prints.
README_EXAMPLES = [
    lines for lines in (block.splitlines() for block in
                        re.findall(r"^```[^\n]*\n(.*?)^```", README.read_text(), re.S | re.M))
    if lines and lines[0].startswith(("$ entrobound gibbs ", "$ entrobound bound "))
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

    def test_unconstrained_energy_reports_the_uniform_state(self, capsys):
        rc = main(["gibbs", "--levels", "0,1,2", "--energy", "1.7"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "inverse temperature: 0\n" in out
        assert "mean energy: 1\n" in out
        assert f"max entropy: {math.log(3.0):.12g} nats" in out
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

    def test_clamped_solve_reports_the_state_mean_energy(self, capsys):
        rc = main(["gibbs", "--oscillator", "1e-5", "--energy", "5e-5", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["flag"] == "lambda_cap"
        assert payload["energy"] == mean_energy(SpectrumModel.oscillator(1e-5), payload["lambda"])

    def test_requires_exactly_one_target(self, capsys):
        assert main(["gibbs", "--levels", "0,1"]) == 1
        assert main(["gibbs", "--levels", "0,1", "--energy", "0.2", "--lam", "1.0"]) == 1

    def test_rejects_nonpositive_lambda(self, capsys):
        assert main(["gibbs", "--levels", "0,1", "--lam", "-1"]) == 1

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

    def test_hopeless_truncation_exits_three(self, capsys):
        rc = main(["gibbs", "--logpower", "1.2", "--truncation", "50", "--lam", "0.001"])
        assert rc == 3
        assert "numerical failure" in capsys.readouterr().err


class TestBoundCommand:
    def test_oscillator_closed_form_frozen(self, capsys):
        rc = main([
            "bound", "--preset", "entropy", "--oscillator", "1", "--closed-form",
            "--epsilon", "0.08", "--energy", "1.5", "--json",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == pytest.approx(2.4205818483128776, abs=1e-9)
        assert payload["preset"] == "entropy"

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

    @pytest.mark.parametrize("energy", ["nan", "inf"])
    @pytest.mark.parametrize("closed_form", [[], ["--closed-form"]], ids=["solved", "closed-form"])
    def test_non_finite_energy_exits_one(self, capsys, energy, closed_form):
        rc = main(["bound", "--preset", "entropy", "--oscillator", "1", "--epsilon", "0.1",
                   "--energy", energy] + closed_form)
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: continuity_bound: energy={energy}" in captured.err

    def test_closed_form_needs_oscillator(self, capsys):
        rc = main(["bound", "--preset", "entropy", "--levels", "0,1", "--closed-form",
                   "--epsilon", "0.1", "--energy", "0.3"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--closed-form needs --oscillator" in captured.err

    def test_solved_oscillator_is_exact_far_past_any_series_cut(self, capsys):
        # E / eps_eff = 4e4: F = g(39999.5), not a sum cut at 4096 terms.
        rc = main(["bound", "--oscillator", "1.0", "--preset", "entropy", "--epsilon", "0.01",
                   "--energy", "2", "--pure"])
        assert rc == 0
        assert "bound: 0.172067883352 nats" in capsys.readouterr().out.splitlines()

    def test_dim_b_refuses_energy(self, capsys):
        rc = main(["bound", "--preset", "entropy", "--dim-b", "8", "--epsilon", "0.1",
                   "--energy", "1.0"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--dim-b takes no --energy" in captured.err


class TestReadmeExamples:
    def test_readme_shows_both_commands(self):
        commands = {lines[0].split()[2] for lines in README_EXAMPLES}
        assert commands == {"gibbs", "bound"}

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
        (["--oscillator", "1", "--closed-form", "--energy", "1.5"], "the --closed-form cap"),
    ], ids=["levels", "hamiltonian", "explicit-spectrum-file", "oscillator",
            "oscillator-spectrum-file", "dim-b", "closed-form"])
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

    def test_suite_writes_all_csvs_and_manifest(self, tmp_path, capsys):
        rc = main(["verify", "--suite", "--trials", "2", "--out-dir", str(tmp_path)])
        assert rc == 0
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

    @pytest.mark.parametrize("option", [
        ["--family", "entropy"], ["--epsilons", "0.3"], ["--energy", "2"],
        ["--sampler", "boundary"], ["--pure"], ["--dims", "4"],
        ["--channel", "identity"], ["--ensemble-size", "3"],
    ])
    def test_suite_refuses_single_sweep_options(self, tmp_path, capsys, option):
        rc = main(["verify", "--suite", "--trials", "1", "--out-dir", str(tmp_path)] + option)
        assert rc == 1
        assert f"drop {option[0]}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

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

    def test_state_family_refuses_ensemble_size(self, capsys):
        rc = main(self.BASE + ["--ensemble-size", "3"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "ensemble_size 3 applies only to ensemble sweeps" in captured.err

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

    def test_violation_exits_two(self, tmp_path, monkeypatch, capsys):
        def broken_bound(preset, model, eps, energy, pure=False):
            return SimpleNamespace(value=0.0)

        monkeypatch.setattr(verify_mod, "continuity_bound", broken_bound)
        rc = main(self.BASE + ["--out", str(tmp_path / "v.csv")])
        assert rc == 2
        assert "bound violation" in capsys.readouterr().err


class TestLaaCheckCommand:
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
