"""JSON and CSV codecs shared by the CLI and the verification harness.

Matrices travel as {"dim": n, "re": [[..]], "im": [[..]]} with real and
imaginary parts as nested lists.  Floats in CSV output are printed with
the %.17g format so a run can be reproduced byte for byte.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math

import numpy as np

from .ensembles import Ensemble
from .errors import ValidationError
from .gibbs import SpectrumModel
from .operators import DensityMatrix, HermitianOperator

FLOAT_FORMAT = "%.17g"
SPECTRUM_FIELDS = {f.name for f in dataclasses.fields(SpectrumModel)}


def format_float(x: float) -> str:
    return FLOAT_FORMAT % float(x)


def encode_matrix(matrix) -> dict:
    arr = np.asarray(matrix, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"encode_matrix: expected a square matrix, got shape {arr.shape}")
    return {
        "dim": int(arr.shape[0]),
        "re": arr.real.tolist(),
        "im": arr.imag.tolist(),
    }


def decode_matrix(obj) -> np.ndarray:
    if not isinstance(obj, dict):
        raise ValidationError(f"matrix object must be a JSON object, got {type(obj).__name__}")
    for field in ("dim", "re", "im"):
        if field not in obj:
            raise ValidationError(f"matrix object missing field {field!r}")
    dim = obj["dim"]
    if not isinstance(dim, int) or dim < 1:
        raise ValidationError(f"matrix field 'dim' must be a positive integer, got {dim!r}")
    try:
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"matrix fields 're'/'im' are not numeric arrays: {exc}") from None
    if re.shape != (dim, dim):
        raise ValidationError(f"matrix field 're' has shape {re.shape}, expected {(dim, dim)}")
    if im.shape != (dim, dim):
        raise ValidationError(f"matrix field 'im' has shape {im.shape}, expected {(dim, dim)}")
    return re + 1j * im


def load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: invalid JSON ({exc})") from None


def load_hermitian(path: str) -> HermitianOperator:
    return HermitianOperator(decode_matrix(load_json(path)))


def encode_ensemble(ensemble: Ensemble) -> dict:
    return {
        "weights": [float(w) for w in ensemble.weights],
        "states": [encode_matrix(s.matrix) for s in ensemble.states],
    }


def decode_ensemble(obj) -> Ensemble:
    if not isinstance(obj, dict):
        raise ValidationError("ensemble object must be a JSON object")
    for field in ("weights", "states"):
        if field not in obj:
            raise ValidationError(f"ensemble object missing field {field!r}")
        if not isinstance(obj[field], list):
            raise ValidationError(f"ensemble field {field!r} must be a list")
    states = tuple(DensityMatrix(decode_matrix(s)) for s in obj["states"])
    return Ensemble(obj["weights"], states)


def load_ensemble(path: str) -> Ensemble:
    return decode_ensemble(load_json(path))


def decode_spectrum(obj) -> SpectrumModel:
    """A SpectrumModel of its fields; the model checks which fields its kind takes."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValidationError("spectrum object must be a JSON object with a 'kind' field")
    unknown = sorted(set(obj) - SPECTRUM_FIELDS)
    if unknown:
        raise ValidationError(f"spectrum object has unknown field(s) {', '.join(map(repr, unknown))}")
    return SpectrumModel(**obj)


def canonical_json(obj) -> str:
    """Deterministic JSON used for hashing configurations."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def sha256_hex(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def jsonable(value):
    """Convert dataclasses, arrays and non-finite floats to JSON-safe data."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: jsonable(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, np.ndarray):
        if value.ndim == 2 and value.shape[0] == value.shape[1]:
            return encode_matrix(value)
        return [jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating, float)):
        x = float(value)
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return x
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    return value


def write_csv(stream, comments, columns, rows):
    """Write a CSV table with '#'-prefixed header comments.

    Floats are rendered with FLOAT_FORMAT, everything else with str().
    """
    for line in comments:
        stream.write(f"# {line}\n")
    stream.write(",".join(columns) + "\n")
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, (float, np.floating)):
                cells.append(format_float(cell))
            else:
                cells.append(str(cell))
        stream.write(",".join(cells) + "\n")
