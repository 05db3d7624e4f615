"""Acceptance gate: the eight certification criteria, one verdict line each.

Every test prints a single PASS/FAIL line naming its criterion, then
asserts.  Stated tolerances and runtime budgets are hard-coded, not
configurable.
"""
import io
import math
import time

import numpy as np
import pytest

from entrobound.afw import afw_decompose, jordan_vectors
from entrobound.ensembles import (
    Ensemble,
    ordered_distance,
    split_ensemble,
    transport_distance,
    transport_plan,
    qc_state,
)
from entrobound.entropy import (
    binary_entropy,
    conditional_entropy,
    holevo_chi,
    mutual_information,
    relative_entropy,
    thermal_entropy,
    von_neumann_entropy,
)
from entrobound.gibbs import (
    SpectrumModel,
    gibbs_family_distance,
    gibbs_state,
    log_partition,
    log_power_comparison_integral,
    log_power_growth_diagnostic,
    max_entropy,
    mean_energy,
    oscillator_entropy_cap,
    solve_inverse_temperature,
)
from entrobound.operators import (
    DensityMatrix,
    HermitianOperator,
    SubsystemShape,
    partial_trace,
    tensor,
    trace_norm,
)
from entrobound.verify import SweepConfig, default_sweep_suite, laa_check, run_sweep
from conftest import random_density
from test_ensembles import vertex_enumeration_minimum

LN2 = math.log(2.0)


def _gate(number: int, label: str, failures: list, elapsed: float | None = None):
    status = "PASS" if not failures else "FAIL"
    timing = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"{status} criterion {number}: {label}{timing}")
    assert not failures, f"criterion {number}: " + "; ".join(failures)


def _close_pair(rng, dim, spread):
    rho = random_density(rng, dim)
    other = random_density(rng, dim)
    sigma = DensityMatrix((1 - spread) * rho.matrix + spread * other.matrix)
    return rho, sigma


def test_criterion_1_exact_identities():
    t0 = time.monotonic()
    failures = []
    rng = np.random.default_rng(101)

    # g-function dual forms on a grid, 1e-12.
    grid = np.concatenate([np.geomspace(1e-6, 500.0, 160), np.arange(1.0, 64.0)])
    for x in grid:
        direct = (x + 1.0) * math.log(x + 1.0) - x * math.log(x)
        dual = (1.0 + x) * binary_entropy(x / (1.0 + x))
        if abs(thermal_entropy(x) - direct) > 1e-12 or abs(thermal_entropy(x) - dual) > 1e-12:
            failures.append(f"g dual forms differ at x={x}")
            break

    # F = lam E + ln Z at the solved multiplier, against an
    # independently summed Gibbs entropy, 1e-9.
    spectra = (
        (SpectrumModel.explicit((0.0, 1.0)), 0.3),
        (SpectrumModel.explicit((0.0, 0.7, 1.1, 3.0)), 1.2),
        (SpectrumModel.oscillator((1.0,)), 1.5),
        (SpectrumModel.log_power(3.0), 2.0),
    )
    from entrobound.gibbs import truncated_levels

    for model, energy in spectra:
        sol = solve_inverse_temperature(model, energy)
        if abs(sol.f_value - (sol.lam * sol.energy + sol.log_z)) > 1e-9:
            failures.append(f"F identity broken for {model.kind}")
        count = len(model.levels) if model.kind == "explicit" else 4096
        levels = truncated_levels(model, count)
        logits = -sol.lam * (levels - levels.min())
        probs = np.exp(logits - np.log(np.sum(np.exp(logits))))
        entropy = float(-np.sum(probs * np.log(probs, out=np.zeros_like(probs),
                                                   where=probs > 0)))
        if abs(entropy - sol.f_value) > 1e-9:
            failures.append(f"Gibbs entropy mismatch for {model.kind}: "
                            f"{entropy} vs {sol.f_value}")

    # mean energy vs central finite difference of ln Z, 1e-5 relative.
    for model, lam in (
        (SpectrumModel.explicit((0.0, 1.0)), 0.7),
        (SpectrumModel.oscillator((1.0, 2.0)), 1.3),
        (SpectrumModel.log_power(3.0), 0.5),
    ):
        h = lam * 1e-6
        fd = -(log_partition(model, lam + h) - log_partition(model, lam - h)) / (2 * h)
        e = mean_energy(model, lam)
        if abs(fd - e) > 1e-5 * max(1.0, abs(e)):
            failures.append(f"mean energy vs d(lnZ)/dlam mismatch for {model.kind}")

    # Mutual information dual formulas, 1e-8.
    for dims in ((2, 3), (3, 3)):
        shape = SubsystemShape(dims)
        rho = random_density(rng, dims[0] * dims[1])
        h_a = von_neumann_entropy(partial_trace(rho, shape, (0,)))
        h_b = von_neumann_entropy(partial_trace(rho, shape, (1,)))
        h_ab = von_neumann_entropy(rho)
        mi = mutual_information(rho, shape)
        product = DensityMatrix(tensor(
            partial_trace(rho, shape, (0,)).matrix,
            partial_trace(rho, shape, (1,)).matrix,
        ))
        if abs(mi - (h_a + h_b - h_ab)) > 1e-8:
            failures.append(f"MI entropy-sum dual broken at {dims}")
        if abs(mi - relative_entropy(rho, product)) > 1e-8:
            failures.append(f"MI relative-entropy dual broken at {dims}")

    # Conditional entropy dual formulas, 1e-8.
    for dims in ((2, 4), (3, 3)):
        shape = SubsystemShape(dims)
        rho = random_density(rng, dims[0] * dims[1])
        ce = conditional_entropy(rho, shape)
        h_ab = von_neumann_entropy(rho)
        h_b = von_neumann_entropy(partial_trace(rho, shape, (1,)))
        h_a = von_neumann_entropy(partial_trace(rho, shape, (0,)))
        if abs(ce - (h_ab - h_b)) > 1e-8:
            failures.append(f"conditional-entropy chain dual broken at {dims}")
        if abs(ce - (h_a - mutual_information(rho, shape))) > 1e-8:
            failures.append(f"conditional-entropy MI dual broken at {dims}")

    # Holevo quantity equals the label-system mutual information, 1e-8.
    for size, dim in ((3, 2), (4, 3)):
        weights = tuple(rng.dirichlet(np.ones(size)))
        ens = Ensemble(weights, tuple(random_density(rng, dim) for _ in range(size)))
        chi = holevo_chi(ens)
        mi = mutual_information(qc_state(ens), SubsystemShape((dim, size)))
        if abs(chi - mi) > 1e-8:
            failures.append(f"chi vs qc-state MI broken at {size}x{dim}")

    # Gibbs-family distance dual formulas, 1e-7.
    levels = tuple(float(k) for k in range(6))
    ham = HermitianOperator(np.diag(np.asarray(levels)))
    model6 = SpectrumModel.explicit(levels)
    for _ in range(6):
        rho = random_density(rng, 6)
        d1 = gibbs_family_distance(rho, ham, model=model6)
        e = float(np.real(np.trace(ham.matrix @ rho.matrix)))
        d2 = max_entropy(model6, e) - von_neumann_entropy(rho)
        d3 = relative_entropy(rho, gibbs_state(ham, energy=e))
        if abs(d1 - d2) > 1e-7 or abs(d1 - d3) > 1e-7:
            failures.append(f"gibbs distance duals differ: {d1} {d2} {d3}")
            break

    # Mixing residual and gamma-vs-Jordan agreement on sampled
    # certificates, 1e-9 and 1e-8.
    for case in range(40):
        dim = 2 + case % 4
        h = HermitianOperator(np.diag(np.arange(float(dim))))
        if case % 2 == 0:
            rho, sigma = random_density(rng, dim), random_density(rng, dim)
            cert = afw_decompose(rho, sigma, h, energy_limit=float(dim - 1))
        else:
            rho, sigma = _close_pair(rng, dim, 0.1)
            cert = afw_decompose(rho, sigma, h, energy_limit=float(dim - 1), epsilon=0.2)
        if cert.mixing_residual > 1e-9:
            failures.append(f"mixing residual {cert.mixing_residual} above 1e-9")
            break
        gp, gm = jordan_vectors(cert.phi, cert.psi)
        err_p = np.max(np.abs(np.outer(gp.vector, gp.vector.conj()) - cert.tau_hat_plus.matrix))
        err_m = np.max(np.abs(np.outer(gm.vector, gm.vector.conj()) - cert.tau_hat_minus.matrix))
        if max(err_p, err_m) > 1e-8:
            failures.append(f"gamma vectors disagree with Jordan parts by {max(err_p, err_m)}")
            break

    elapsed = time.monotonic() - t0
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 1 min")
    _gate(1, "exact-identity suite at stated tolerances", failures, elapsed)


def test_criterion_2_closed_form_spot_checks():
    failures = []

    sol = solve_inverse_temperature(SpectrumModel.explicit((0.0, 1.0)), 0.25)
    if abs(sol.lam - math.log(3.0)) > 1e-8:
        failures.append(f"two-level multiplier {sol.lam} != ln 3")
    if abs(sol.f_value - binary_entropy(0.25)) > 1e-8:
        failures.append(f"two-level F {sol.f_value} != h2(0.25)")

    osc = SpectrumModel.oscillator((1.0,))
    f_val = max_entropy(osc, 1.5)
    if abs(f_val - 2 * LN2) > 1e-12:
        failures.append(f"oscillator F(1.5) = {f_val} != 2 ln 2")

    cap = oscillator_entropy_cap((1.0,), 1.5)
    if abs(cap - (LN2 + 1.0)) > 1e-12:
        failures.append(f"unit-mode cap at 1.5 is {cap}, not ln 2 + 1")

    for energy in np.linspace(0.51, 25.0, 50):
        if max_entropy(osc, float(energy)) > oscillator_entropy_cap((1.0,), float(energy)) + 1e-12:
            failures.append(f"F exceeds its cap at E={energy}")
            break

    two = SpectrumModel.oscillator((1.0, 1.0))
    for energy in (1.2, 1.5, 2.0):
        lhs = max_entropy(two, 2 * energy)
        rhs = 2 * max_entropy(osc, energy)
        if abs(lhs - rhs) > 1e-8:
            failures.append(f"two-mode additivity broken at E={energy}: {lhs} vs {rhs}")

    _gate(2, "closed-form spot checks", failures)


def test_criterion_3_mixing_inequality_suite():
    t0 = time.monotonic()
    failures = []
    batches = (
        ("entropy", ((2,), (3,), (5,), (9,))),
        ("cond-entropy", ((2, 2), (2, 3), (3, 3))),
        ("mutual-info", ((2, 2), (2, 4), (3, 3))),
        ("ree", ((2,), (4,), (8,))),
        ("gibbs-red", ((3,), (6,))),
    )
    trials_each = 700
    total = 0
    for quantity, dim_list in batches:
        for dims in dim_list:
            report = laa_check(quantity, dims, trials=trials_each, seed=31)
            total += report.trials
            if report.worst_lower < -1e-8:
                failures.append(
                    f"{quantity} {dims}: lower slack {report.worst_lower} below -1e-8"
                )
            if report.worst_upper < -1e-8:
                failures.append(
                    f"{quantity} {dims}: upper slack {report.worst_upper} below -1e-8"
                )
    if total < 10_000:
        failures.append(f"only {total} triples, need at least 10000")
    elapsed = time.monotonic() - t0
    if elapsed >= 120.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 2 min")
    _gate(3, f"mixing inequalities on {total} random triples", failures, elapsed)


def test_criterion_4_bound_dominance_sweeps():
    t0 = time.monotonic()
    failures = []
    suite = default_sweep_suite(trials=200)

    expected_shape = {
        ("entropy", False): ((16,), 2.0),
        ("cond-entropy", False): ((4, 4), 1.5),
        ("mutual-info", False): ((2, 2, 4), 2.0),
        ("gibbs-red", False): ((8,), 3.0),
        ("holevo", False): ((8,), 3.0),
        ("channel-mi", False): ((16,), 2.0),
    }
    reports = []
    for config in suite:
        report = run_sweep(config)
        reports.append(report)
        if config.epsilons != (0.01, 0.05, 0.1, 0.25, 0.5):
            failures.append(f"{config.family}: epsilon grid altered")
        if not config.pure:
            from entrobound.verify import resolve_wiring

            dims, energy = expected_shape[(config.family, config.pure)]
            wiring = resolve_wiring(config)
            if wiring.dims != dims or config.energy != energy:
                failures.append(f"{config.family}: battery parameters drifted")
        worst = min(row.margin for row in report.rows)
        if report.violations or worst < -1e-9:
            failures.append(
                f"{config.family}{'-pure' if config.pure else ''}: "
                f"{len(report.violations)} violations, worst margin {worst}"
            )

    pure_count = sum(1 for c in suite if c.pure)
    if pure_count != 5:
        failures.append(f"expected 5 pure-variant sweeps, found {pure_count}")
    if sum(1 for c in suite if c.channel is not None and not c.pure) != 5:
        failures.append("expected the 5-channel zoo")

    # Channel independence: one shared bound value per epsilon across
    # the zoo.
    zoo = [r for r, c in zip(reports, suite) if c.family == "channel-mi" and not c.pure]
    by_eps = {}
    for report in zoo:
        for row in report.rows:
            by_eps.setdefault(row.epsilon, set()).add(row.bound)
    for eps, bounds in by_eps.items():
        if len(bounds) != 1:
            failures.append(f"channel-mi bound not shared at eps={eps}: {bounds}")

    elapsed = time.monotonic() - t0
    if elapsed >= 900.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 15 min")
    rows = sum(len(r.rows) for r in reports)
    _gate(4, f"bound-dominance sweeps, {rows} rows, zero violations", failures, elapsed)


def test_criterion_5_energy_certificates():
    t0 = time.monotonic()
    failures = []
    rng = np.random.default_rng(55)
    cases = 0
    while cases < 1000 and not failures:
        dim = 2 + cases % 4
        h = HermitianOperator(np.diag(np.arange(float(dim))))
        limit = float(dim - 1)
        if cases % 2 == 0:
            rho, sigma = random_density(rng, dim), random_density(rng, dim)
            dist = 0.5 * trace_norm(rho.matrix - sigma.matrix)
            if dist < 1e-6:
                continue
            cert = afw_decompose(rho, sigma, h, energy_limit=limit)
        else:
            rho, sigma = _close_pair(rng, dim, float(rng.uniform(0.02, 0.3)))
            dist = 0.5 * trace_norm(rho.matrix - sigma.matrix)
            eps = min(0.5, dist * float(rng.uniform(1.0, 1.5)) + 1e-3)
            cert = afw_decompose(rho, sigma, h, energy_limit=limit, epsilon=eps)
        cases += 1
        exact = (1.0 + cert.overlap) * limit / cert.delta**2
        coarse = limit / cert.epsilon_used
        checks = (
            cert.energy_tau_plus <= cert.energy_bound_exact + 1e-8,
            cert.energy_tau_minus <= cert.energy_bound_exact + 1e-8,
            abs(cert.energy_bound_exact - exact) <= 1e-8 * max(1.0, exact),
            cert.energy_bound_exact <= coarse * (1 + 1e-12) + 1e-8,
        )
        if not all(checks):
            failures.append(
                f"case {cases}: chain broken "
                f"(tau+ {cert.energy_tau_plus}, tau- {cert.energy_tau_minus}, "
                f"exact {cert.energy_bound_exact}, coarse {coarse})"
            )
    if cases < 1000:
        failures.append(f"only {cases} certificates checked")
    _gate(5, f"energy certificate chain on {cases} decompositions", failures,
          time.monotonic() - t0)


def test_criterion_6_metric_suite():
    t0 = time.monotonic()
    failures = []
    rng = np.random.default_rng(66)

    def ens(size, dim, weights=None):
        w = rng.dirichlet(np.ones(size)) if weights is None else np.asarray(weights)
        return Ensemble(tuple(w), tuple(random_density(rng, dim) for _ in range(size)))

    for _ in range(25):
        mu, nu = ens(3, 2), ens(3, 2)
        if abs(ordered_distance(mu, nu) - ordered_distance(nu, mu)) > 1e-9:
            failures.append("ordered distance asymmetric")
        if abs(transport_distance(mu, nu) - transport_distance(nu, mu)) > 1e-9:
            failures.append("transport distance asymmetric")

    for _ in range(25):
        mu, nu, xi = ens(2, 2), ens(3, 2), ens(2, 2)
        if ordered_distance(mu, xi) > ordered_distance(mu, nu) + ordered_distance(nu, xi) + 1e-9:
            failures.append("ordered triangle inequality broken")
        if transport_distance(mu, xi) > (
            transport_distance(mu, nu) + transport_distance(nu, xi) + 1e-9
        ):
            failures.append("transport triangle inequality broken")

    # Transport refines the ordered distance on every matched-weight
    # draw (the identity coupling realizes the ordered cost).
    for _ in range(50):
        size = int(rng.integers(2, 5))
        w = tuple(rng.dirichlet(np.ones(size)))
        mu, nu = ens(size, 2, w), ens(size, 2, w)
        if transport_distance(mu, nu) > ordered_distance(mu, nu) + 1e-9:
            failures.append("transport exceeded ordered distance on matched weights")
            break

    for _ in range(20):
        mu = ens(3, 2)
        index = int(rng.integers(0, 3))
        pieces = int(rng.integers(2, 5))
        if transport_distance(mu, split_ensemble(mu, index, pieces)) > 1e-9:
            failures.append("splitting not at distance zero")
            break

    from entrobound.ensembles import _trace_distance_costs

    for _ in range(5):
        mu, nu = ens(3, 3), ens(3, 3)
        value, _ = transport_plan(mu, nu)
        oracle = vertex_enumeration_minimum(
            _trace_distance_costs(mu, nu), np.asarray(mu.weights), np.asarray(nu.weights)
        )
        if abs(value - oracle) > 1e-9:
            failures.append(f"LP value {value} differs from vertex oracle {oracle}")
            break

    _gate(6, "ensemble metric axioms and exact-solver agreement", failures,
          time.monotonic() - t0)


def test_criterion_7_growth_diagnostic():
    t0 = time.monotonic()
    failures = []

    cubic = log_power_growth_diagnostic(3.0)
    if cubic.verdict != "consistent":
        failures.append(f"q=3 verdict {cubic.verdict!r}, expected consistent")

    square = log_power_growth_diagnostic(2.0, truncation=10**6)
    if square.verdict != "inconsistent":
        failures.append(f"q=2 verdict {square.verdict!r}, expected inconsistent")

    # Bracket check: partition sums, truncated and their remainder
    # integral added, lie between the comparison integral and integral + 1.
    for q, truncation in ((2.0, 10**6), (3.0, 4096)):
        model = SpectrumModel.log_power(q, truncation=truncation)
        for lam in (0.5, 0.2, 0.1):
            z = math.exp(log_partition(model, lam))
            lower = log_power_comparison_integral(q, lam)
            if not lower - 1e-9 <= z <= lower + 1.0 + 1e-9:
                failures.append(
                    f"q={q} lam={lam}: sum {z} outside bracket [{lower}, {lower + 1}]"
                )

    _gate(7, "log-power growth verdicts and integral brackets", failures,
          time.monotonic() - t0)


def test_criterion_8_csv_determinism():
    failures = []
    config = SweepConfig(family="entropy", energy=1.5, seed=424242, trials=25,
                         epsilons=(0.1, 0.25), dims=(8,))

    first = io.StringIO()
    run_sweep(config).to_csv(first)
    second = io.StringIO()
    run_sweep(config).to_csv(second)
    if first.getvalue() != second.getvalue():
        failures.append("repeated runs differ byte for byte")

    holevo_cfg = SweepConfig(family="holevo", energy=2.0, seed=7, trials=5,
                             epsilons=(0.2,), dims=(4,))
    a = io.StringIO()
    run_sweep(holevo_cfg).to_csv(a)
    b = io.StringIO()
    run_sweep(holevo_cfg).to_csv(b)
    if a.getvalue() != b.getvalue():
        failures.append("holevo sweep not deterministic")

    _gate(8, "byte-identical CSV reproduction", failures)
