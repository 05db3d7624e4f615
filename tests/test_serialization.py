"""JSON and CSV codecs: round trips, error reporting, determinism."""
import io
import json
import math

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
    encode_spectrum,
    format_float,
    jsonable,
    load_density,
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
        loaded = load_density(str(path))
        assert np.allclose(loaded.matrix, rho.matrix)

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


class TestSpectrumCodec:
    @pytest.mark.parametrize(
        "model",
        [
            SpectrumModel.explicit((0.0, 1.0, 1.5)),
            SpectrumModel.oscillator((1.0, 2.5)),
            SpectrumModel.log_power(2.0),
            SpectrumModel.log_power(2.5, truncation=100),
        ],
    )
    def test_round_trip(self, model):
        assert decode_spectrum(json.loads(json.dumps(encode_spectrum(model)))) == model

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
