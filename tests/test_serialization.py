"""JSON and CSV codecs: round trips, error reporting, determinism."""
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

from entrobound.ensembles import Ensemble
from entrobound.errors import ValidationError
from entrobound.gibbs import SpectrumModel
from entrobound.serialization import (
    canonical_json,
    decode_ensemble,
    decode_matrix,
    decode_spectrum,
    encode_ensemble,
    encode_matrix,
    format_float,
    jsonable,
    load_json,
    sha256_hex,
    write_csv,
)
from conftest import random_density


class TestMatrixCodec:
    def test_round_trip_complex(self, rng):
        mat = random_density(rng, 3).matrix
        back = decode_matrix(encode_matrix(mat))
        assert np.allclose(back, mat, atol=0)

    def test_encode_rejects_non_square(self):
        with pytest.raises(ValidationError):
            encode_matrix(np.zeros((2, 3)))

    def test_decode_names_missing_field(self):
        with pytest.raises(ValidationError, match="'im'"):
            decode_matrix({"dim": 2, "re": [[1, 0], [0, 0]]})

    def test_decode_names_bad_dim(self):
        with pytest.raises(ValidationError, match="dim"):
            decode_matrix({"dim": "two", "re": [[1]], "im": [[0]]})

    def test_decode_names_shape_mismatch(self):
        with pytest.raises(ValidationError, match="'re'"):
            decode_matrix({"dim": 2, "re": [[1, 0]], "im": [[0, 0], [0, 0]]})

    def test_decode_rejects_non_numeric(self):
        with pytest.raises(ValidationError, match="numeric"):
            decode_matrix({"dim": 1, "re": [["x"]], "im": [[0]]})

    def test_decode_rejects_non_object(self):
        with pytest.raises(ValidationError, match="object"):
            decode_matrix([1, 2, 3])


class TestFileLoading:
    def test_load_density_round_trip(self, tmp_path, rng):
        rho = random_density(rng, 2)
        path = tmp_path / "state.json"
        path.write_text(json.dumps(encode_matrix(rho.matrix)))
        loaded = decode_matrix(load_json(str(path)))
        assert np.allclose(loaded, rho.matrix)

    def test_load_json_reports_path_on_garbage(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError, match="broken.json"):
            load_json(str(path))


class TestEnsembleCodec:
    def test_round_trip(self, rng):
        ens = Ensemble(
            (0.25, 0.75),
            (random_density(rng, 2), random_density(rng, 2)),
        )
        back = decode_ensemble(encode_ensemble(ens))
        assert back.weights == ens.weights
        for a, b in zip(back.states, ens.states):
            assert np.allclose(a.matrix, b.matrix)

    def test_missing_field_named(self):
        with pytest.raises(ValidationError, match="'states'"):
            decode_ensemble({"weights": [1.0]})

    def test_length_mismatch_rejected(self, rng):
        obj = encode_ensemble(Ensemble((1.0,), (random_density(rng, 2),)))
        obj["weights"] = [0.5, 0.5]
        with pytest.raises(ValidationError, match="length"):
            decode_ensemble(obj)


FORMATS_DOC = Path(__file__).resolve().parents[1] / "docs" / "formats.md"


class TestSpectrumCodec:
    @pytest.mark.parametrize("text,model", [
        ('{"kind": "explicit",   "levels": [0.0, 1.0, 3.5]}',
         SpectrumModel.explicit((0.0, 1.0, 3.5))),
        ('{"kind": "oscillator", "frequencies": [1.0, 2.0]}',
         SpectrumModel.oscillator((1.0, 2.0))),
        ('{"kind": "logpower",   "q": 2.5, "truncation": 4096}',
         SpectrumModel.log_power(2.5, truncation=4096)),
    ])
    def test_decodes_the_documented_objects(self, text, model):
        # Each object is a line of the Spectrum JSON example in docs/formats.md.
        assert text in FORMATS_DOC.read_text(encoding="utf-8").splitlines()
        assert decode_spectrum(json.loads(text)) == model

    def test_logpower_truncation_decoded(self):
        model = decode_spectrum({"kind": "logpower", "q": 2.5, "truncation": 100})
        assert model.truncation == 100
        assert decode_spectrum({"kind": "logpower", "q": 2.5}).truncation == 4096

    @pytest.mark.parametrize("obj,match", [
        ({"kind": "oscillator", "frequencies": [1.0], "truncation": 100}, "log-power"),
        ({"kind": "explicit", "levels": [0.0, 1.0], "truncation": 100}, "log-power"),
        ({"kind": "logpower", "q": 2.5, "truncation": 100.5}, "integer"),
        ({"kind": "logpower", "q": 2.5, "truncation": 1}, ">= 2"),
    ])
    def test_truncation_refused_where_it_does_not_apply(self, obj, match):
        with pytest.raises(ValidationError, match=match):
            decode_spectrum(obj)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError, match="kind"):
            decode_spectrum({"kind": "harmonic"})

    def test_missing_parameter_named(self):
        with pytest.raises(ValidationError, match="'frequencies'"):
            decode_spectrum({"kind": "oscillator"})

    @pytest.mark.parametrize("obj,match", [
        ({"kind": "explicit", "levels": [0.0, 1.0], "frequencies": [1.0]},
         "frequencies applies only to an oscillator spectrum"),
        ({"kind": "oscillator", "frequencies": [1.0], "q": 2.0}, "q applies only to a log-power"),
        ({"kind": "explicit", "levels": [0.0, 1.0], "spacing": 1.0}, "unknown field.*'spacing'"),
        ({"kind": "explicit", "levels": "0123"}, "levels must be a list of numbers, got '0123'"),
        ({"kind": "explicit", "levels": [0.0, None]}, "an entry of levels must be a number, got None"),
        ({"kind": "explicit", "levels": None}, "needs 'levels'"),
        ({"kind": "explicit", "levels": 5.0}, "levels must be a list of numbers, got 5.0"),
        ({"kind": "oscillator", "frequencies": "12"}, "frequencies must be a list of numbers"),
        ({"kind": "oscillator", "frequencies": [True]}, "an entry of frequencies must be a number"),
        ({"kind": "oscillator", "frequencies": True}, "an entry of frequencies must be a number"),
        ({"kind": "logpower", "q": "abc"}, "q must be a number, got 'abc'"),
        ({"kind": "logpower", "q": False}, "q must be a number, got False"),
        ({"kind": "logpower", "q": 2.5, "truncation": True}, "integer"),
    ])
    def test_refuses_a_field_or_value_its_kind_does_not_take(self, obj, match):
        with pytest.raises(ValidationError, match=match):
            decode_spectrum(obj)

    def test_a_scalar_frequency_is_one_mode(self):
        model = decode_spectrum({"kind": "oscillator", "frequencies": 2.0})
        assert model == SpectrumModel.oscillator((2.0,)) == SpectrumModel.oscillator(2)


class TestCanonicalJson:
    def test_key_order_is_stable(self):
        a = canonical_json({"b": 1, "a": [2, 3]})
        b = canonical_json({"a": [2, 3], "b": 1})
        assert a == b == '{"a":[2,3],"b":1}'

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            canonical_json({"x": math.nan})

    def test_sha256_known_value(self):
        assert sha256_hex("") == (
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        )


class TestJsonable:
    def test_non_finite_floats_become_strings(self):
        assert jsonable(math.inf) == "inf"
        assert jsonable(-math.inf) == "-inf"
        assert jsonable(math.nan) == "nan"
        assert jsonable(1.5) == 1.5

    def test_complex_and_arrays(self):
        assert jsonable(1 + 2j) == {"re": 1.0, "im": 2.0}
        out = jsonable(np.eye(2))
        assert out["dim"] == 2
        assert jsonable(np.array([1.0, math.inf])) == [1.0, "inf"]

    def test_dataclass_recursion(self):
        from entrobound.bounds import continuity_bound_finite

        out = jsonable(continuity_bound_finite("entropy", 4, 0.1))
        assert out["preset"] == "entropy"
        assert out["energy"] is None
        json.dumps(out)

    def test_numpy_scalars(self):
        assert jsonable(np.float64(0.5)) == 0.5
        assert jsonable(np.int64(7)) == 7


class TestCsvWriter:
    def test_float_cells_round_trip_exactly(self):
        values = [1 / 3, 0.1, math.pi, 1e-300, 123456789.123456789]
        stream = io.StringIO()
        write_csv(stream, ["config"], ["x"], [[v] for v in values])
        lines = stream.getvalue().splitlines()
        assert lines[0] == "# config"
        assert lines[1] == "x"
        for raw, original in zip(lines[2:], values):
            assert float(raw) == original

    def test_mixed_cell_types(self):
        stream = io.StringIO()
        write_csv(stream, [], ["name", "n", "x"], [["trial", 3, 0.5]])
        assert stream.getvalue() == "name,n,x\ntrial,3,0.5\n"

    def test_format_float_shortest_exact(self):
        assert format_float(0.1) == "0.10000000000000001"
        assert float(format_float(2 / 3)) == 2 / 3
