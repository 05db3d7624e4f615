"""Ensemble containers and the two ensemble distances."""
import itertools
import math

import numpy as np
import pytest

from entrobound.ensembles import (
    Ensemble,
    TransportPlan,
    ordered_distance,
    qc_state,
    split_ensemble,
    transport_distance,
    transport_plan,
)
from entrobound.errors import ValidationError
from entrobound.operators import DensityMatrix, partial_trace
from conftest import random_density


def random_ensemble(rng, size, dim):
    weights = rng.dirichlet(np.ones(size))
    states = tuple(random_density(rng, dim) for _ in range(size))
    return Ensemble(tuple(weights), states)


def vertex_enumeration_minimum(cost, p, q):
    """Exact transport optimum by enumerating basic feasible solutions.

    Vertices of the transportation polytope use at most m + n - 1 cells;
    every support of that size is solved directly and filtered for
    feasibility.  Slow but independent of any LP solver.
    """
    m, n = cost.shape
    a_eq = np.zeros((m + n, m * n))
    for i in range(m):
        a_eq[i, i * n : (i + 1) * n] = 1.0
    for j in range(n):
        a_eq[m + j, j::n] = 1.0
    b_eq = np.concatenate([p, q])
    flat_cost = cost.reshape(-1)
    best = math.inf
    k = m + n - 1
    for support in itertools.combinations(range(m * n), k):
        cols = a_eq[:, support]
        x, _, rank, _ = np.linalg.lstsq(cols, b_eq, rcond=None)
        if rank < k:
            continue
        if np.max(np.abs(cols @ x - b_eq)) > 1e-9:
            continue
        if np.min(x) < -1e-9:
            continue
        best = min(best, float(np.clip(x, 0.0, None) @ flat_cost[list(support)]))
    return best


class TestEnsembleContainer:
    @pytest.mark.parametrize("weight", ["a", "1", None, True, math.nan, [1.0]])
    def test_refuses_a_weight_that_is_no_number(self, weight):
        with pytest.raises(ValidationError, match="Ensemble"):
            Ensemble((weight,), (DensityMatrix(np.diag([1.0, 0.0])),))

    def test_average(self, rng):
        ens = random_ensemble(rng, 3, 2)
        avg = sum(p * st.matrix for p, st in zip(ens.weights, ens.states))
        assert np.allclose(ens.average().matrix, avg)

    def test_rejects_length_mismatch(self, rng):
        with pytest.raises(ValidationError):
            Ensemble((0.5, 0.5), (random_density(rng, 2),))

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            Ensemble((), ())

    def test_rejects_negative_weight(self, rng):
        states = (random_density(rng, 2), random_density(rng, 2))
        with pytest.raises(ValidationError):
            Ensemble((1.2, -0.2), states)

    def test_rejects_unnormalized_weights(self, rng):
        states = (random_density(rng, 2), random_density(rng, 2))
        with pytest.raises(ValidationError):
            Ensemble((0.5, 0.4), states)

    def test_rejects_mixed_dimensions(self, rng):
        with pytest.raises(ValidationError):
            Ensemble((0.5, 0.5), (random_density(rng, 2), random_density(rng, 3)))


class TestTransportPlanContainer:
    def test_accepts_valid_coupling(self):
        plan = TransportPlan(np.array([[0.5, 0.0], [0.1, 0.4]]), (0.5, 0.5), (0.6, 0.4))
        assert plan.matrix.shape == (2, 2)

    def test_rejects_negative_mass(self):
        with pytest.raises(ValidationError):
            TransportPlan(np.array([[0.6, -0.1], [0.1, 0.4]]), (0.5, 0.5), (0.7, 0.3))

    def test_rejects_marginal_violation(self):
        with pytest.raises(ValidationError):
            TransportPlan(np.array([[0.4, 0.1], [0.1, 0.4]]), (0.6, 0.4), (0.5, 0.5))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValidationError):
            TransportPlan(np.eye(2) * 0.5, (0.5, 0.5), (0.5, 0.3, 0.2))


class TestOrderedDistance:
    def test_zero_on_identical(self, rng):
        ens = random_ensemble(rng, 3, 3)
        assert ordered_distance(ens, ens) == pytest.approx(0.0, abs=1e-12)

    def test_hand_computed_diagonal_pair(self):
        mu = Ensemble((0.5, 0.5), (DensityMatrix(np.diag([1.0, 0.0])), DensityMatrix(np.diag([0.0, 1.0]))))
        nu = Ensemble(
            (0.6, 0.4),
            (DensityMatrix(np.diag([0.9, 0.1])), DensityMatrix(np.diag([0.0, 1.0]))),
        )
        # |0.5 - 0.54| + |0 - 0.06| halved, plus half of |0.5 - 0.4|.
        assert ordered_distance(mu, nu) == pytest.approx(0.1, abs=1e-12)

    def test_zero_padding_charges_half_weight(self, rng):
        state = random_density(rng, 2)
        mu = Ensemble((1.0,), (state,))
        nu = Ensemble((0.75, 0.25), (state, random_density(rng, 2)))
        got = ordered_distance(mu, nu)
        from entrobound.operators import trace_norm

        direct = 0.5 * trace_norm(1.0 * state.matrix - 0.75 * state.matrix)
        direct += 0.5 * trace_norm(0.25 * nu.states[1].matrix)
        assert got == pytest.approx(direct, abs=1e-12)

    def test_symmetry(self, rng):
        mu = random_ensemble(rng, 3, 2)
        nu = random_ensemble(rng, 3, 2)
        assert ordered_distance(mu, nu) == pytest.approx(ordered_distance(nu, mu), abs=1e-12)

    def test_rejects_dim_mismatch(self, rng):
        with pytest.raises(ValidationError):
            ordered_distance(random_ensemble(rng, 2, 2), random_ensemble(rng, 2, 3))


class TestTransportDistance:
    def test_matches_vertex_enumeration_3x3(self, rng):
        for _ in range(5):
            mu = random_ensemble(rng, 3, 3)
            nu = random_ensemble(rng, 3, 3)
            value, plan = transport_plan(mu, nu)
            from entrobound.ensembles import _trace_distance_costs

            cost = _trace_distance_costs(mu, nu)
            oracle = vertex_enumeration_minimum(cost, np.asarray(mu.weights), np.asarray(nu.weights))
            assert value == pytest.approx(oracle, abs=1e-9)

    def test_matches_vertex_enumeration_3x4(self, rng):
        mu = random_ensemble(rng, 3, 2)
        nu = random_ensemble(rng, 4, 2)
        value, _ = transport_plan(mu, nu)
        from entrobound.ensembles import _trace_distance_costs

        cost = _trace_distance_costs(mu, nu)
        oracle = vertex_enumeration_minimum(cost, np.asarray(mu.weights), np.asarray(nu.weights))
        assert value == pytest.approx(oracle, abs=1e-9)

    def test_mismatched_weights_can_exceed_ordered_distance(self):
        # Pinned counterexample: with different weight vectors the
        # coupling relaxation does not refine the ordered distance.
        mu = Ensemble((0.5, 0.5), (DensityMatrix(np.diag([1.0, 0.0])), DensityMatrix(np.diag([0.0, 1.0]))))
        nu = Ensemble(
            (0.6, 0.4),
            (DensityMatrix(np.diag([0.9, 0.1])), DensityMatrix(np.diag([0.0, 1.0]))),
        )
        assert ordered_distance(mu, nu) == pytest.approx(0.1, abs=1e-12)
        value, plan = transport_plan(mu, nu)
        assert value == pytest.approx(0.14, abs=1e-9)
        expected_plan = np.array([[0.5, 0.0], [0.1, 0.4]])
        assert np.allclose(plan.matrix, expected_plan, atol=1e-8)

    def test_matched_weights_never_exceed_ordered_distance(self, rng):
        # With equal weight vectors the identity coupling is feasible
        # and costs exactly the ordered distance.
        for _ in range(20):
            size = int(rng.integers(2, 5))
            dim = int(rng.integers(2, 4))
            weights = tuple(rng.dirichlet(np.ones(size)))
            mu = Ensemble(weights, tuple(random_density(rng, dim) for _ in range(size)))
            nu = Ensemble(weights, tuple(random_density(rng, dim) for _ in range(size)))
            assert transport_distance(mu, nu) <= ordered_distance(mu, nu) + 1e-9

    def test_splitting_invariance(self, rng):
        mu = random_ensemble(rng, 2, 2)
        nu = random_ensemble(rng, 3, 2)
        base = transport_distance(mu, nu)
        split = split_ensemble(mu, 0, 3)
        assert transport_distance(split, nu) == pytest.approx(base, abs=1e-9)
        assert transport_distance(mu, split) == pytest.approx(0.0, abs=1e-9)

    def test_symmetry(self, rng):
        mu = random_ensemble(rng, 3, 2)
        nu = random_ensemble(rng, 4, 2)
        assert transport_distance(mu, nu) == pytest.approx(transport_distance(nu, mu), abs=1e-9)

    def test_triangle_inequality(self, rng):
        for _ in range(10):
            mu = random_ensemble(rng, 2, 2)
            nu = random_ensemble(rng, 3, 2)
            xi = random_ensemble(rng, 2, 2)
            d_direct = transport_distance(mu, xi)
            d_via = transport_distance(mu, nu) + transport_distance(nu, xi)
            assert d_direct <= d_via + 1e-9

    def test_plan_marginals_match_weights(self, rng):
        mu = random_ensemble(rng, 3, 2)
        nu = random_ensemble(rng, 2, 2)
        _, plan = transport_plan(mu, nu)
        assert np.allclose(plan.matrix.sum(axis=1), mu.weights, atol=1e-9)
        assert np.allclose(plan.matrix.sum(axis=0), nu.weights, atol=1e-9)

    def test_size_cap_enforced(self, rng):
        state = random_density(rng, 2)
        big = Ensemble(tuple([1.0 / 13] * 13), tuple([state] * 13))
        small = Ensemble((1.0,), (state,))
        with pytest.raises(ValidationError, match="cap"):
            transport_plan(big, small)

    def test_rejects_dim_mismatch(self, rng):
        with pytest.raises(ValidationError):
            transport_plan(random_ensemble(rng, 2, 2), random_ensemble(rng, 2, 3))


class TestQcState:
    def test_block_structure_label_second(self, rng):
        ens = random_ensemble(rng, 3, 2)
        qc = qc_state(ens)
        assert qc.dim == 6
        n = len(ens)
        for i, (p, st) in enumerate(zip(ens.weights, ens.states)):
            for a in range(2):
                for b in range(2):
                    assert qc.matrix[a * n + i, b * n + i] == pytest.approx(
                        p * st.matrix[a, b], abs=1e-12
                    )

    def test_marginals(self, rng):
        ens = random_ensemble(rng, 3, 2)
        qc = qc_state(ens)
        system = partial_trace(qc, (2, 3), (0,))
        label = partial_trace(qc, (2, 3), (1,))
        assert np.allclose(system.matrix, ens.average().matrix, atol=1e-10)
        assert np.allclose(label.matrix, np.diag(ens.weights), atol=1e-10)


class TestSplitEnsemble:
    def test_divides_weight_equally(self, rng):
        ens = random_ensemble(rng, 2, 2)
        out = split_ensemble(ens, 1, 4)
        assert len(out) == 5
        assert out.weights[0] == ens.weights[0]
        for k in range(1, 5):
            assert out.weights[k] == pytest.approx(ens.weights[1] / 4)
            assert out.states[k] is ens.states[1]

    def test_rejects_bad_arguments(self, rng):
        ens = random_ensemble(rng, 2, 2)
        with pytest.raises(ValidationError):
            split_ensemble(ens, 0, 0)
        with pytest.raises(ValidationError):
            split_ensemble(ens, 5, 2)
