"""The benchmark's tracer still installs on the library, and still sees it.

perfbench/tracing.py wraps library names such as ``channels.purify`` and
``channels.mutual_information`` by ``getattr``; a refactor that removes
one makes every traced benchmark run fail with AttributeError.  A name
that is bound at import instead of looked up when called keeps the wrap
installable but leaves its spans empty, so the sweeps below check that
the sampler, setup and evaluation spans are really recorded.
"""
from pathlib import Path

import numpy as np
import pytest

import entrobound.verify

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    return tracing


def test_tracer_installs_and_restores(tracing):
    eigh, channel_mi = np.linalg.eigh, entrobound.verify.channel_mi
    tr = tracing.Tracer()
    try:
        tracing.instrument(tr)
        assert np.linalg.eigh is not eigh
        assert entrobound.verify.channel_mi is not channel_mi
    finally:
        tr.restore()
    assert np.linalg.eigh is eigh and entrobound.verify.channel_mi is channel_mi


@pytest.mark.parametrize("family, sampler, label", [
    ("entropy", "boundary", "boundary"),
    ("holevo", "mixed", "ensemble"),
])
def test_traced_sweep_records_its_layers(tracing, family, sampler, label):
    v = entrobound.verify
    config = v.SweepConfig(family=family, seed=1, trials=1, epsilons=(0.1,), sampler=sampler)
    tr = tracing.Tracer()
    try:
        tracing.instrument(tr)
        report = v.run_sweep(config)
    finally:
        tr.restore()
    assert len(report.rows) == 1
    assert len(tr.select("verify.sample", label)) == 1
    assert len(tr.select("verify.sample")) == 1
    assert len(tr.select("verify.setup", family)) == 1
    assert len(tr.select("verify.eval", family)) == 2
