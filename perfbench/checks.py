"""Output checks and the independent references they compare against.

Every reference here is computed without the library's own code path:
the channel mutual information from the full Stinespring output
vector and ``numpy.linalg.eigvalsh``, the Gibbs solutions from closed
forms.  ``corrupt=True`` shifts each reference by CORRUPTION, which the
smoke test uses to show that a wrong value fails the run.
"""
from __future__ import annotations

import math
from collections import Counter

import numpy as np

CHANNEL_MI_TOL = 1e-9
# The library's bisection stops at |mean - E| <= 1e-9 max(1, E); lambda
# and F move by at most a few times that at these energies.
CLOSED_FORM_TOL = 1e-7
CORRUPTION = 1e-6
MAX_EXAMPLES = 5


class Checks:
    """Named pass/fail counters with a few failure examples each."""

    def __init__(self):
        self.counts = Counter()
        self.failures = Counter()
        self.examples = {}

    def expect(self, name: str, ok: bool, detail: str = ""):
        self.counts[name] += 1
        if not ok:
            self.failures[name] += 1
            examples = self.examples.setdefault(name, [])
            if len(examples) < MAX_EXAMPLES:
                examples.append(detail)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def performed(self) -> int:
        return sum(self.counts.values())

    def summary(self) -> dict:
        return {"performed": dict(self.counts), "failed": dict(self.failures),
                "examples": self.examples}


class Recorder:
    """Context manager that records (args, result) of one module function."""

    def __init__(self, owner, attr: str):
        self.owner = owner
        self.attr = attr
        self.calls = []

    def __enter__(self):
        original = getattr(self.owner, self.attr)
        calls = self.calls

        def recording(*args, **kwargs):
            result = original(*args, **kwargs)
            calls.append((args, result))
            return result

        self.original = original
        setattr(self.owner, self.attr, recording)
        return self.calls

    def __exit__(self, *exc):
        setattr(self.owner, self.attr, self.original)
        return False


def _entropy(eigenvalues: np.ndarray) -> float:
    w = eigenvalues[eigenvalues > 0.0]
    return float(-np.sum(w * np.log(w)))


def reference_channel_mi(kraus, rho: np.ndarray) -> float:
    """I(B:R) of the channel output, from the Stinespring output vector.

    |psi>_SR purifies rho; V = sum_k K_k (x) |k>_E maps S to B (x) E.
    The vector (V (x) 1_R)|psi> is formed in full, rho_BR is its partial
    trace over E, and every entropy comes from numpy.linalg.eigvalsh.
    """
    d = rho.shape[0]
    w, v = np.linalg.eigh(rho)
    psi = v * np.sqrt(np.clip(w, 0.0, None))            # psi[s, r]
    n_env = len(kraus)
    d_out = kraus[0].shape[0]
    iso = np.zeros((d_out, n_env, d), dtype=complex)     # V[b, e, s]
    for e, k in enumerate(kraus):
        iso[:, e, :] = k
    out = np.einsum("bes,sr->ber", iso, psi)             # output vector on B, E, R
    rho_br = np.einsum("ber,cet->brct", out, out.conj()).reshape(d_out * d, d_out * d)
    rho_b = np.einsum("ber,cer->bc", out, out.conj())
    rho_r = np.einsum("ber,bet->rt", out, out.conj())
    return (_entropy(np.linalg.eigvalsh(rho_b)) + _entropy(np.linalg.eigvalsh(rho_r))
            - _entropy(np.linalg.eigvalsh(rho_br)))


def check_channel_mi(checks: Checks, calls, corrupt: bool):
    """Compare recorded channel_mi(channel, rho) values with the reference."""
    for (channel, rho), value in calls:
        want = reference_channel_mi(channel.kraus, rho.matrix)
        if corrupt:
            want += CORRUPTION
        checks.expect("channel-mi-reference", abs(value - want) <= CHANNEL_MI_TOL,
                      f"{channel.name}: library {value!r}, reference {want!r}")


def _h2(p: float) -> float:
    return -p * math.log(p) - (1.0 - p) * math.log(1.0 - p)


def _thermal(n: float) -> float:
    return (n + 1.0) * math.log1p(n) - n * math.log(n)


def check_closed_forms(checks: Checks, seed: int, corrupt: bool):
    """Two-level and single-mode Gibbs solutions against closed forms.

    Two levels {0, 1} at E = 1/4: lambda = ln 3, F = h2(1/4).  A single
    oscillator mode of frequency w at energy E has mean occupation
    n = E/w - 1/2 and F = (n+1) ln(n+1) - n ln n.
    """
    from entrobound.gibbs import SpectrumModel, max_entropy, solve_inverse_temperature

    shift = CORRUPTION if corrupt else 0.0
    sol = solve_inverse_temperature(SpectrumModel.explicit((0.0, 1.0)), 0.25)
    checks.expect("two-level-lambda", abs(sol.lam - (math.log(3.0) + shift)) <= CLOSED_FORM_TOL,
                  f"lambda {sol.lam!r} vs ln 3")
    checks.expect("two-level-F", abs(sol.f_value - (_h2(0.25) + shift)) <= CLOSED_FORM_TOL,
                  f"F {sol.f_value!r} vs h2(1/4)")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 99]))
    for _ in range(4):
        omega = float(rng.uniform(0.5, 2.0))
        energy = omega * (0.5 + float(rng.uniform(0.05, 5.0)))
        got = max_entropy(SpectrumModel.oscillator((omega,)), energy)
        want = _thermal(energy / omega - 0.5) + shift
        checks.expect("oscillator-F", abs(got - want) <= CLOSED_FORM_TOL,
                      f"omega={omega} E={energy}: F {got!r} vs g(n) {want!r}")


def cli_expected(lines, corrupt: bool) -> tuple:
    """The README lines the CLI must print; corrupted by one changed digit."""
    if not corrupt:
        return tuple(lines)
    return tuple(line.replace("5", "6", 1) for line in lines)
