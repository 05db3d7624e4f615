"""Property-based invariants over randomized inputs."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrobound.ensembles import Ensemble, ordered_distance, transport_distance
from entrobound.entropy import (
    binary_entropy,
    relative_entropy,
    thermal_entropy,
    von_neumann_entropy,
)
from entrobound.gibbs import SpectrumModel, max_entropy
from entrobound.operators import (
    DensityMatrix,
    PureStateVector,
    partial_trace,
    purify,
    trace_norm,
)
from entrobound.afw import _jordan_pair
from conftest import random_density

probabilities = st.floats(min_value=1e-9, max_value=1.0 - 1e-9)
seeds = st.integers(min_value=0, max_value=2**31 - 1)


@given(p=probabilities)
@settings(max_examples=80, deadline=None)
def test_binary_entropy_symmetry(p):
    assert binary_entropy(p) == pytest.approx(binary_entropy(1.0 - p), abs=1e-12)
    assert 0.0 <= binary_entropy(p) <= math.log(2.0) + 1e-15


@given(x=st.floats(min_value=1e-6, max_value=500.0))
@settings(max_examples=80, deadline=None)
def test_thermal_entropy_dual_forms_agree(x):
    closed = (x + 1.0) * math.log(x + 1.0) - x * math.log(x)
    assert thermal_entropy(x) == pytest.approx(closed, abs=1e-11)


@given(x=st.floats(min_value=1e-6, max_value=100.0),
       y=st.floats(min_value=1e-6, max_value=100.0))
@settings(max_examples=60, deadline=None)
def test_thermal_entropy_monotone(x, y):
    lo, hi = min(x, y), max(x, y)
    assert thermal_entropy(lo) <= thermal_entropy(hi) + 1e-12


@given(e=st.floats(min_value=1e-4, max_value=0.5 - 1e-4))
@settings(max_examples=60, deadline=None)
def test_two_level_max_entropy_is_binary_entropy(e):
    model = SpectrumModel.explicit((0.0, 1.0))
    assert max_entropy(model, e) == pytest.approx(binary_entropy(e), abs=1e-8)


@given(seed=seeds, dim=st.integers(min_value=2, max_value=5))
@settings(max_examples=40, deadline=None)
def test_purification_marginal_recovers_state(seed, dim):
    rng = np.random.default_rng(seed)
    rho = random_density(rng, dim)
    psi = purify(rho)
    marginal = partial_trace(
        DensityMatrix(np.outer(psi.vector, psi.vector.conj())), (dim, dim), (0,)
    )
    assert np.max(np.abs(marginal.matrix - rho.matrix)) <= 1e-10


@given(seed=seeds)
@settings(max_examples=40, deadline=None)
def test_jordan_vectors_reconstruct_difference(seed):
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    u /= np.linalg.norm(u)
    w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    w /= np.linalg.norm(w)
    overlap = np.vdot(u, w)
    if abs(overlap) > 1e-12:
        w = w * (overlap.conjugate() / abs(overlap))
    c = abs(np.vdot(u, w))
    if c > 1.0 - 1e-6:
        return
    _, delta, gp, gm = _jordan_pair(PureStateVector(u), PureStateVector(w))
    assert delta == pytest.approx(math.sqrt(1.0 - c * c), abs=1e-12)
    m = np.outer(u, u.conj()) - np.outer(w, w.conj())
    rebuilt = delta * (np.outer(gp, gp.conj()) - np.outer(gm, gm.conj()))
    assert np.max(np.abs(rebuilt - m)) <= 1e-9


@given(seed=seeds, dim=st.integers(min_value=2, max_value=4))
@settings(max_examples=40, deadline=None)
def test_relative_entropy_nonnegative(seed, dim):
    rng = np.random.default_rng(seed)
    rho = random_density(rng, dim)
    sigma = random_density(rng, dim)
    assert relative_entropy(rho, sigma) >= -1e-10


@given(seed=seeds, dim=st.integers(min_value=2, max_value=4))
@settings(max_examples=40, deadline=None)
def test_entropy_bounded_by_log_dim(seed, dim):
    rng = np.random.default_rng(seed)
    rho = random_density(rng, dim)
    s = von_neumann_entropy(rho)
    assert -1e-12 <= s <= math.log(dim) + 1e-10


@given(seed=seeds, size=st.integers(min_value=2, max_value=4))
@settings(max_examples=25, deadline=None)
def test_matched_weight_transport_refines_ordered(seed, size):
    rng = np.random.default_rng(seed)
    weights = tuple(rng.dirichlet(np.ones(size)))
    mu = Ensemble(weights, tuple(random_density(rng, 2) for _ in range(size)))
    nu = Ensemble(weights, tuple(random_density(rng, 2) for _ in range(size)))
    assert transport_distance(mu, nu) <= ordered_distance(mu, nu) + 1e-9


@given(seed=seeds, dim=st.integers(min_value=2, max_value=4))
@settings(max_examples=40, deadline=None)
def test_trace_distance_between_zero_and_one(seed, dim):
    rng = np.random.default_rng(seed)
    rho = random_density(rng, dim)
    sigma = random_density(rng, dim)
    dist = 0.5 * trace_norm(rho.matrix - sigma.matrix)
    assert -1e-12 <= dist <= 1.0 + 1e-12
