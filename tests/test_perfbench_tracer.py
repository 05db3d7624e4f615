"""The benchmark's tracer still installs on the library.

perfbench/tracing.py wraps library names such as ``channels.purify`` and
``channels.mutual_information`` by ``getattr``; a refactor that removes
one makes every traced benchmark run fail with AttributeError.
"""
from pathlib import Path

import numpy as np

import entrobound.verify

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    eigh, channel_mi = np.linalg.eigh, entrobound.verify.channel_mi
    tr = tracing.Tracer()
    try:
        tracing.instrument(tr)
        assert np.linalg.eigh is not eigh
        assert entrobound.verify.channel_mi is not channel_mi
    finally:
        tr.restore()
    assert np.linalg.eigh is eigh and entrobound.verify.channel_mi is channel_mi
