"""Seeded inputs and timed loops of the four benchmark workloads.

Every input is derived from the ``--seed`` argument through
``numpy.random.SeedSequence`` tags, so one seed always yields the same
sweep configurations, bound-query stream and CLI commands.  The library
sees only those generated inputs.

Each workload has a *quota*: the fixed amount of work every run
completes whatever the machine's speed.  ``tightness`` and
``failed_share`` are computed over the quota, so they are deterministic
per seed and do not drift with throughput.  The timed loop then keeps
going until ``--seconds`` of wall time have passed; every operation it
performs is still checked.

Timings are taken over many samples of short units of fixed
composition (a sweep config, a window of bound queries, one log-power
grid point), as a low percentile of each unit's samples; see FAST_PCT
and Processor.
"""
from __future__ import annotations

import hashlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from entrobound import bounds, verify
from entrobound.errors import NumericalError
from entrobound.gibbs import SpectrumModel

import checks

WORKLOADS = ("sweep-channel", "sweep-states", "envelope", "cli-cold")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONSOLE = "import sys; from entrobound.cli import main; sys.exit(main())"

# SeedSequence tags: the workload index comes first, the purpose second.
TAG_ROUND, TAG_WARM, TAG_STREAM, TAG_LOGPOWER, TAG_PROBE, TAG_CERT = range(6)

# Interference from other programs only ever adds time.  On a shared
# 2-core host it comes and goes: the same loop of Python ran 30-45%
# slower for stretches of tenths of a second, and the share of slow
# time drifted from one minute to the next.  A median over a run
# follows that share.  Every timing is therefore the FAST_PCT
# percentile over many samples of one unit of fixed composition, short
# enough to fall in one stretch: the program's own cost of that unit,
# seen while nothing else ran.  A slowdown that lasts a whole run still
# shows.
FAST_PCT = 5
# bound_p50_ms: median of each window of this many consecutive queries,
# one block of the envelope stream or of the probe.  bound_p99_ms: p99
# of each chunk of P99_CHUNK queries, so that 10 or more lie beyond it.
WINDOW = 50
P99_CHUNK = 1000

# Rows per round come from trials x 5 epsilons x configs: 30 channel-mi
# rows (about 1.7 s on 2 cores) or 200 state rows (about 0.4 s).
SWEEP_TRIALS = {"sweep-channel": 1, "sweep-states": 4}
QUOTA_ROUNDS = {"sweep-channel": 6, "sweep-states": 4}
MARGIN_TOL = -1e-9

# The probe runs in chunks of P99_CHUNK queries; see sample_metrics.
# Each chunk follows PROBE_WARM untimed queries: right after a sweep
# round of 256x256 eigendecompositions the first few queries run slow,
# and those few are exactly a chunk's p99.
PROBE_CHUNKS = 10
PROBE_QUERIES = PROBE_CHUNKS * P99_CHUNK
PROBE_WARM = 50
CERT_ROWS = 600
SETUP_REPEATS = 5
COLD_CALLS = 7

ENVELOPE_SPECTRA = {
    "explicit": SpectrumModel.explicit(range(16)),
    "oscillator": SpectrumModel.oscillator((1.0,)),
    "oscillator3": SpectrumModel.oscillator((1.0, 1.5, 2.0)),
    "logpower2.5": SpectrumModel.log_power(2.5),
    "logpower3": SpectrumModel.log_power(3.0),
}
# One block of the stream: 48 cheap queries and one per log-power
# exponent, so log-power queries are 4% of the stream.  At the seed a
# log-power query costs 30-60 ms, or about 0.6 s when it fails, against
# well under 2 ms for the others; more of them would not fit 1000
# queries into one run.
ENVELOPE_BLOCK = (("explicit",) * 16 + ("oscillator",) * 16
                  + ("oscillator3",) * 16 + ("logpower2.5", "logpower3"))
# The stream runs in cycles of CYCLE_BLOCKS blocks.  Within a cycle each
# log-power exponent visits the same geometric grid of CYCLE_BLOCKS
# envelope arguments, in a seeded order; since a log-power query fails
# or succeeds by its argument alone, every cycle has the same number of
# failures, whatever the seed.  Runs stop only at a cycle boundary.
CYCLE_BLOCKS = 10
QUOTA_CYCLES = 2
QUOTA_QUERIES = QUOTA_CYCLES * CYCLE_BLOCKS * len(ENVELOPE_BLOCK)
EPSILON_RANGE = (0.005, 0.5)
# Ranges of the envelope argument E / eps_eff.  Explicit levels 0..15
# have uniform mean 7.5, so about a quarter of explicit queries take the
# "E >= uniform mean" shortcut and the rest solve for lambda.  Log-power
# queries fail at the seed above roughly 15 (q=2.5) or 30 (q=3).
EXPLICIT_ARG_RANGE = (0.02, 60.0)
LOGPOWER_ARG_RANGE = (0.5, 40.0)

CLI_COMMANDS = (
    ("gibbs", "--levels", "0,1", "--energy", "0.25"),
    ("bound", "--oscillator", "1.0", "--preset", "entropy",
     "--epsilon", "0.08", "--energy", "1.5"),
    ("bound", "--dim-b", "8", "--preset", "cond-entropy", "--epsilon", "1.0"),
)
# The lines README.md documents for the three commands above.
CLI_EXPECTED = ("max entropy: 0.562335144619 nats",
                "bound: 2.41000750746 nats",
                "bound: 5.54517744448 nats")
CLI_TIMEOUT_S = 120


def derived_rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *tags]))


def derived_int(seed: int, *tags: int) -> int:
    state = np.random.SeedSequence([seed, *tags]).generate_state(1, dtype=np.uint32)
    return int(state[0] >> 1)


def loguniform(rng, lo: float, hi: float) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def fast(values) -> float:
    """The FAST_PCT percentile of a unit's durations."""
    return percentile(values, FAST_PCT)


def chunks(values, size: int) -> list:
    """Consecutive whole chunks of ``size`` values; a short tail is dropped."""
    return [values[i:i + size] for i in range(0, len(values) - size + 1, size)]


# ---------------------------------------------------------------------------
# the processor
# ---------------------------------------------------------------------------

def _spin(n: int = 300) -> float:
    t0 = time.perf_counter()
    total = 0
    for i in range(n):
        total += i * i
    return time.perf_counter() - t0


class Processor:
    """Chooses the processor that each timed unit of one run starts on.

    On a shared host one processor can run at two thirds of the other's
    speed while a neighbour shares its core, for stretches of tenths of a
    second or longer, and a process left alone stays where it is.  So
    before every timed unit and side task, ``settle`` times a short loop
    on each processor the run may use and moves to the fastest.  That
    costs well under a millisecond and is not counted as the program's
    time.  Children inherit the choice.
    """

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.fastest_spin = math.inf  # the fastest loop time seen, for the report

    def settle(self):
        if len(self.cpus) < 2:
            return
        best = None
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            t = min(_spin() for _ in range(5))
            if best is None or t < best[0]:
                best = (t, cpu)
        os.sched_setaffinity(0, {best[1]})
        self.fastest_spin = min(self.fastest_spin, best[0])


@dataclass
class Outcome:
    """What one run measured, before it is turned into the result line."""

    metrics: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)
    checks: checks.Checks = field(default_factory=checks.Checks)
    attempted: int = 0
    quota_ops: int = 0
    quota_refused: int = 0
    refused: list = field(default_factory=list)
    samples: dict = field(default_factory=lambda: {"bound": [], "cold": [], "setup_s": []})
    # The unit durations each FAST_PCT metric was taken from.
    units: dict = field(default_factory=dict)
    cpu: Processor = field(default_factory=Processor)

    def metric(self, name: str, value: float, unit: str):
        self.metrics[name] = {"value": float(value), "unit": unit}

    def failed_share(self) -> float:
        # Add-one smoothing keeps the share above 0 when nothing fails,
        # so it has a median to compare against; one new failure still
        # moves it by a whole step.
        failed = self.quota_refused + self.checks.failed
        return (failed + 1) / (self.quota_ops + 1)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def sweep_configs(workload: str, seed: int, tag: int, index: int) -> list:
    """The suite configs of one sweep round, seeded per round."""
    wid = WORKLOADS.index(workload)
    base = derived_int(seed, wid, tag, index) % (2**31 - 100)
    suite = verify.default_sweep_suite(seed=base, trials=SWEEP_TRIALS[workload])
    if workload == "sweep-channel":
        return [c for c in suite if c.family == "channel-mi"]
    configs = [c for c in suite if c.family != "channel-mi"]
    configs.append(verify.SweepConfig(
        family="entropy", energy=2.0, seed=base + 15,
        trials=SWEEP_TRIALS[workload], sampler="boundary",
    ))
    return configs


@dataclass(frozen=True)
class Query:
    spectrum: str
    preset: str
    epsilon: float
    energy: float
    pure: bool
    grid: int | None = None  # log-power queries: index of the argument grid point

    @property
    def argument(self) -> float:
        eps_eff = 0.5 * self.epsilon * self.epsilon if self.pure else self.epsilon
        return self.energy / eps_eff

    @property
    def path(self) -> str:
        """The max_entropy branch: shortcut when E/eps_eff reaches the explicit levels' mean."""
        model = ENVELOPE_SPECTRA[self.spectrum]
        if model.kind == "explicit" and self.argument >= float(np.mean(model.levels)):
            return "shortcut"
        return "solve"


def _draw_query(rng, spectrum: str, arg_u: float | None = None) -> Query:
    preset = str(rng.choice(sorted(bounds.PRESETS)))
    pure = bool(rng.random() < 1.0 / 3.0)
    eps = loguniform(rng, *EPSILON_RANGE)
    eps_eff = 0.5 * eps * eps if pure else eps
    model = ENVELOPE_SPECTRA[spectrum]
    if model.kind == "oscillator":
        energy = model.ground_energy + float(rng.uniform(0.05, 4.0))
    else:
        lo, hi = EXPLICIT_ARG_RANGE if model.kind == "explicit" else LOGPOWER_ARG_RANGE
        u = float(rng.random()) if arg_u is None else arg_u
        energy = math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo))) * eps_eff
    return Query(spectrum, preset, eps, energy, pure)


def envelope_block(seed: int, index: int, tag: int = TAG_STREAM) -> list:
    """Block ``index`` of the query stream, in seeded order."""
    wid = WORKLOADS.index("envelope")
    rng = derived_rng(seed, wid, tag, index)
    cycle, slot = divmod(index, CYCLE_BLOCKS)
    kinds = list(ENVELOPE_BLOCK)
    rng.shuffle(kinds)
    queries = []
    for kind in kinds:
        arg_u, grid = None, None
        if kind.startswith("logpower"):
            order = derived_rng(seed, wid, TAG_LOGPOWER, cycle, ENVELOPE_BLOCK.index(kind))
            grid = int(order.permutation(CYCLE_BLOCKS)[slot])
            arg_u = (grid + 0.5) / CYCLE_BLOCKS
        queries.append(replace(_draw_query(rng, kind, arg_u), grid=grid))
    return queries


def probe_queries(workload: str, seed: int, n: int = PROBE_QUERIES, tag: int = TAG_PROBE) -> list:
    """Seeded (preset, spectrum, eps, E) queries: the envelope stream without log-power.

    A sweep's own bound queries are closed-form oscillator ones that take
    the same 30-50 us whatever the input, so their p99 measured only the
    host's interruptions: it spread by 0.12-0.32 of its median between
    sets of ten runs.  In this mix about a quarter of the queries are
    explicit-spectrum solves of about 0.6 ms, and those set the p99.
    The queries come in shuffled blocks with the kinds of a stream block,
    its log-power slots taken by explicit queries, so every WINDOW-query
    window has the same make-up and its median falls among the
    three-mode oscillator queries, not between two modes.
    """
    rng = derived_rng(seed, WORKLOADS.index(workload), tag)
    kinds = ["explicit" if k.startswith("logpower") else k for k in ENVELOPE_BLOCK]
    out = []
    while len(out) < n:
        rng.shuffle(kinds)
        for kind in kinds:
            q = _draw_query(rng, kind)
            out.append((q.preset, ENVELOPE_SPECTRA[kind], q.epsilon, q.energy, q.pure))
    return out[:n]


def build(workload: str, seed: int):
    """Everything a workload constructs before its timed loop starts."""
    if workload in ("sweep-channel", "sweep-states"):
        configs = sweep_configs(workload, seed, TAG_ROUND, 0)
        return [verify.resolve_wiring(c) for c in configs]
    if workload == "envelope":
        return envelope_block(seed, 0)
    from entrobound import cli
    return cli.build_parser()


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("ENTROBOUND_THREADS", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, timeout: float = CLI_TIMEOUT_S):
    """Run one fresh interpreter to completion; returns (seconds, completed)."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=child_env(),
        capture_output=True, text=True, timeout=timeout,
    )
    return time.perf_counter() - t0, proc


def run_cli(args):
    return run_child(["-c", CONSOLE, *args])


def children_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def parse_bound_line(stdout: str) -> float | None:
    for line in stdout.splitlines():
        if line.startswith("bound: "):
            return float(line.split()[1])
    return None


# ---------------------------------------------------------------------------
# side measurements
# ---------------------------------------------------------------------------


class SideTasks:
    """Side measurements spread evenly over the timed loop.

    Task k runs once k/(n+1) of ``--seconds`` of the loop's wall time
    have passed, so that its samples come from the whole run rather
    than one moment of it.  Their time is not counted as loop time.
    """

    def __init__(self, tasks, seconds: float, settle):
        self.tasks = list(tasks)
        self.settle = settle
        self.slot = seconds / (len(self.tasks) + 1)
        self.next_at = self.slot

    def after(self, elapsed_s: float):
        while self.tasks and elapsed_s >= self.next_at:
            self.settle()
            self.tasks.pop(0)()
            self.next_at += self.slot

    @property
    def done(self) -> bool:
        return not self.tasks


def interleave(*groups) -> list:
    """Round-robin merge of task lists: [a0, b0, c0, a1, b1, ...]."""
    out = []
    for i in range(max(len(g) for g in groups)):
        out.extend(g[i] for g in groups if i < len(g))
    return out


def setup_tasks(out: Outcome, workload: str, seed: int) -> list:
    """SETUP_REPEATS fresh processes, each timing import plus set-up."""
    def task():
        _, proc = run_child([str(HERE / "setup_probe.py"), workload, str(seed)])
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        out.samples["setup_s"].append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return [task] * SETUP_REPEATS


def probe_tasks(out: Outcome, workload: str, seed: int) -> list:
    """PROBE_QUERIES continuity_bound queries (see probe_queries), in chunks."""
    queries = probe_queries(workload, seed)
    size = P99_CHUNK
    warm = probe_queries(workload, seed, PROBE_WARM, TAG_WARM)

    def chunk(part):
        for preset, model, eps, energy, pure in warm:
            try:
                bounds.continuity_bound(preset, model, eps, energy, pure=pure)
            except NumericalError:
                pass
        lat = []
        for preset, model, eps, energy, pure in part:
            t0 = time.perf_counter()
            try:
                res = bounds.continuity_bound(preset, model, eps, energy, pure=pure)
            except NumericalError:
                out.quota_refused += 1
            else:
                out.checks.expect("bound-positive", math.isfinite(res.value) and res.value > 0.0,
                                  f"{preset} eps={eps} E={energy} value={res.value}")
            lat.append(time.perf_counter() - t0)
        out.samples["bound"].append(lat)
        out.quota_ops += len(part)
        out.attempted += len(part)

    return [lambda part=queries[i:i + size]: chunk(part) for i in range(0, len(queries), size)]


def cold_tasks(out: Outcome, commands, expect_stdout) -> list:
    """Fresh-process CLI calls; expect_stdout(i, stdout) returns (ok, detail)."""
    def call(i, cmd):
        seconds, proc = run_cli(cmd)
        out.samples["cold"].append(seconds)
        ok, detail = expect_stdout(i, proc.stdout)
        out.checks.expect("cli-exit", proc.returncode == 0,
                          f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()[-200:]}")
        out.checks.expect("cli-output", ok, f"{' '.join(cmd)}: {detail}")
        out.quota_ops += 1
        out.attempted += 1

    return [lambda i=i, cmd=cmd: call(i, cmd) for i, cmd in enumerate(commands)]


def timed_loop(operation, quota_done, sides: SideTasks, seconds: float, settle) -> float:
    """Closed loop: the next operation starts when the previous one returns.

    ``operation()`` returns its own duration.  Runs until --seconds of
    wall time have passed, the quota is complete and every side task
    has run; returns the operation time.
    """
    loop_s = 0.0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or not quota_done() or not sides.done:
        settle()
        loop_s += operation()
        sides.after(time.perf_counter() - start)
    return loop_s


# ---------------------------------------------------------------------------
# shared pieces
# ---------------------------------------------------------------------------


def run_round(configs, settle=lambda: None) -> tuple[list, str, list]:
    """Run and serialize one sweep round; returns (reports, CSV digest, seconds per config).

    ``settle()`` runs before each config; see Processor.
    """
    digest = hashlib.sha256()
    reports, times = [], []
    for config in configs:
        settle()
        t0 = time.perf_counter()
        report = verify.run_sweep(config)
        buf = io.StringIO()
        report.to_csv(buf)
        times.append(time.perf_counter() - t0)
        digest.update(buf.getvalue().encode())
        reports.append(report)
    return reports, digest.hexdigest(), times


def check_rows(out: Outcome, reports) -> list:
    """Margin check on every row; returns the rows."""
    rows = []
    for rep in reports:
        for r in rep.rows:
            out.checks.expect("margin", r.margin >= MARGIN_TOL,
                              f"{rep.config.family} eps={r.epsilon} trial={r.trial} margin={r.margin}")
            rows.append(r)
    return rows


def tightness(rows) -> float:
    """Mean |f(rho) - f(sigma)| / bound over the rows.

    The largest ratio is the natural statistic, but it moves by 35-40%
    between seeds on sweep-states; the mean moves by about 5%.  A row
    above its bound is caught by the margin check either way, and the
    largest ratio is kept in the report.
    """
    return statistics.fmean(r.abs_diff / r.bound for r in rows)


def largest_ratio(rows) -> float:
    return max(r.abs_diff / r.bound for r in rows)


def certification(out: Outcome, config):
    """A fixed certification sweep; its rows set tightness."""
    reports, _, _ = run_round([config])
    rows = check_rows(out, reports)
    out.quota_ops += len(rows)
    out.attempted += len(rows)
    out.metric("tightness", tightness(rows), "ratio")
    out.details["largest_ratio"] = largest_ratio(rows)
    return rows


def sample_metrics(out: Outcome):
    """Metrics from the side samples that the run took.

    ``samples["bound"]`` holds chunks of P99_CHUNK query latencies: the
    envelope stream cut at every second cycle, or the probe's chunks.
    bound_p50_ms is the FAST_PCT percentile over WINDOW-query windows
    of each window's median.  bound_p99_ms is the median over chunks of
    each chunk's p99: a run has only two to ten chunks, too few for a low
    percentile, and the p99 is set by the slow queries of the mix
    (explicit-spectrum solves, or log-power ones in the envelope stream),
    not by interruptions.  The pooled percentiles go to the details.
    """
    parts = out.samples["bound"]
    pooled = [t for c in parts for t in c]
    windows = [w for c in parts for w in chunks(c, WINDOW)]
    out.units["window_p50_s"] = [percentile(w, 50) for w in windows]
    out.units["chunk_p99_s"] = [percentile(c, 99) for c in parts]
    out.metric("bound_p50_ms", 1e3 * fast(out.units["window_p50_s"]), "ms")
    out.metric("bound_p99_ms", 1e3 * statistics.median(out.units["chunk_p99_s"]), "ms")
    out.metric("cold_start_p50_s", statistics.median(out.samples["cold"]), "s")
    out.metric("setup_s", statistics.median(out.samples["setup_s"]), "s")
    out.details.update(bound_queries=len(pooled),
                       pooled_bound_p50_ms=1e3 * percentile(pooled, 50),
                       pooled_bound_p99_ms=1e3 * percentile(pooled, 99),
                       cold_start_s=out.samples["cold"], setup_s=out.samples["setup_s"])


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def run_sweep_workload(workload: str, seed: int, seconds: float, corrupt: bool) -> Outcome:
    out = Outcome()
    quota = QUOTA_ROUNDS[workload]
    first = sweep_configs(workload, seed, TAG_ROUND, 0)
    # One config's verify command at each epsilon in turn: fresh
    # processes doing the same work, so their median is of like calls.
    commands = [verify_command(first[0], first[0].epsilons[i % len(first[0].epsilons)])
                for i in range(COLD_CALLS)]
    sides = SideTasks(interleave(setup_tasks(out, workload, seed),
                                 probe_tasks(out, workload, seed),
                                 cold_tasks(out, commands, expect_csv_row)), seconds, out.cpu.settle)
    rounds = []

    def one_round():
        reports, digest, times = run_round(sweep_configs(workload, seed, TAG_ROUND, len(rounds)),
                                           out.cpu.settle)
        rounds.append((reports, digest, times))
        return sum(times)

    run_round([replace(c, epsilons=c.epsilons[:1]) for c in sweep_configs(workload, seed, TAG_WARM, 0)])
    loop_s = timed_loop(one_round, lambda: len(rounds) >= quota, sides, seconds, out.cpu.settle)

    quota_rows = []
    for i, (reports, _, _) in enumerate(rounds):
        rows = check_rows(out, reports)
        out.attempted += len(rows)
        if i < quota:
            quota_rows.extend(rows)
    out.quota_ops += len(quota_rows)
    # Every round has the same configs but for their seeds, so config k
    # of a round is one unit; a round's time is the sum of its units'.
    rows_per_round = sum(len(rep.rows) for rep in rounds[0][0])
    per_config = list(zip(*(times for _, _, times in rounds)))
    out.metric("rows_per_s", rows_per_round / sum(fast(t) for t in per_config), "1/s")
    out.units["config_s"] = per_config
    out.metric("tightness", tightness(quota_rows), "ratio")

    # Repeat round 0: the CSVs must match byte for byte.  For channel-mi
    # the repeat also records each (channel, state) pair for the
    # independent Stinespring reference.
    with checks.Recorder(verify, "channel_mi") as calls:
        _, digest0, _ = run_round(first)
    out.checks.expect("csv-repeat", digest0 == rounds[0][1], f"{digest0} != {rounds[0][1]}")
    if workload == "sweep-channel":
        checks.check_channel_mi(out.checks, calls[::4], corrupt)
    checks.check_closed_forms(out.checks, seed, corrupt)
    sample_metrics(out)
    out.metric("peak_rss_mb", self_peak_rss_mb(), "MB")
    out.details.update(rounds=len(rounds), rows=sum(len(r.rows) for reps, _, _ in rounds for r in reps),
                       loop_s=loop_s, quota_rows=len(quota_rows),
                       median_round_rows_per_s=statistics.median(
                           rows_per_round / sum(times) for _, _, times in rounds),
                       largest_ratio=largest_ratio(quota_rows), csv_digest_round0=rounds[0][1])
    return out


def verify_command(config, eps: float) -> tuple:
    cmd = ["verify", "--family", config.family, "--trials", "1",
           "--epsilons", repr(eps), "--energy", repr(config.energy),
           "--seed", str(config.seed), "--sampler", config.sampler]
    if config.pure:
        cmd.append("--pure")
    if config.channel is not None:
        kind, params = config.channel
        cmd += ["--channel", kind + (":" + ",".join(repr(p) for p in params) if params else "")]
    return tuple(cmd)


def expect_csv_row(_i: int, stdout: str):
    rows = [ln for ln in stdout.splitlines() if ln and not ln.startswith("#")][1:]
    if len(rows) != 1:
        return False, f"expected one CSV row, got {len(rows)}"
    margin = float(rows[0].split(",")[verify.CSV_COLUMNS.index("margin")])
    return margin >= MARGIN_TOL, f"margin {margin}"


def run_envelope(seed: int, seconds: float, corrupt: bool) -> Outcome:
    out = Outcome()
    # The fresh `bound` calls repeat the first explicit and oscillator
    # queries of the stream; the printed bound must equal the library's.
    picked = [q for q in envelope_block(seed, 0)
              if not q.spectrum.startswith("logpower")][:COLD_CALLS]

    def expect_bound(i, stdout):
        q = picked[i]
        want = bounds.continuity_bound(q.preset, ENVELOPE_SPECTRA[q.spectrum],
                                       q.epsilon, q.energy, pure=q.pure).value
        got = parse_bound_line(stdout)
        ok = got is not None and abs(got - want) <= 1e-10 * max(1.0, abs(want))
        return ok, f"CLI printed {got}, library gives {want}"

    sides = SideTasks(interleave(setup_tasks(out, "envelope", seed),
                                 cold_tasks(out, [bound_command(q) for q in picked], expect_bound)),
                      seconds, out.cpu.settle)
    lat, queries, results = [], [], []

    def one_block():
        t_block = 0.0
        for q in envelope_block(seed, len(queries) // len(ENVELOPE_BLOCK)):
            model = ENVELOPE_SPECTRA[q.spectrum]
            t0 = time.perf_counter()
            try:
                res = bounds.continuity_bound(q.preset, model, q.epsilon, q.energy, pure=q.pure)
            except NumericalError as exc:
                res = exc
            dt = time.perf_counter() - t0
            t_block += dt
            lat.append(dt)
            queries.append(q)
            results.append(res)
        return t_block

    for q in envelope_block(seed, 0, TAG_WARM):
        try:
            bounds.continuity_bound(q.preset, ENVELOPE_SPECTRA[q.spectrum], q.epsilon, q.energy,
                                    pure=q.pure)
        except NumericalError:
            pass
    blocks = lambda: len(queries) // len(ENVELOPE_BLOCK)
    loop_s = timed_loop(one_block, lambda: len(lat) >= QUOTA_QUERIES and blocks() % CYCLE_BLOCKS == 0,
                        sides, seconds, out.cpu.settle)

    for i, (q, res) in enumerate(zip(queries, results)):
        if isinstance(res, NumericalError):
            out.refused.append({"q": ENVELOPE_SPECTRA[q.spectrum].q, "spectrum": q.spectrum,
                                "preset": q.preset, "E": q.energy, "epsilon": q.epsilon,
                                "pure": q.pure, "error": str(res)})
            out.quota_refused += i < QUOTA_QUERIES
        else:
            out.checks.expect("bound-positive", math.isfinite(res.value) and res.value > 0.0,
                              f"{q} value={res.value}")
    out.quota_ops += QUOTA_QUERIES
    out.attempted += len(lat)
    out.samples["bound"] = chunks(lat, P99_CHUNK)
    units = cycle_units(queries, lat)
    cycle_s = sum(n * fast(t) for n, t in units.values())
    out.metric("rows_per_s", CYCLE_BLOCKS * len(ENVELOPE_BLOCK) / cycle_s, "1/s")
    out.units["cycle_s"] = units
    quota = queries[:QUOTA_QUERIES]
    out.details.update(
        queries=len(lat), blocks=blocks(), loop_s=loop_s, mean_queries_per_s=len(lat) / loop_s,
        shortcut_share=sum(q.path == "shortcut" for q in quota) / len(quota),
        solve_share=sum(q.path == "solve" for q in quota) / len(quota),
        logpower_queries_in_quota=sum(q.spectrum.startswith("logpower") for q in quota),
        logpower_refused_in_quota=out.quota_refused,
    )
    checks.check_closed_forms(out.checks, seed, corrupt)
    certification(out, verify.SweepConfig(
        family="entropy", energy=2.0, seed=derived_int(seed, WORKLOADS.index("envelope"), TAG_CERT),
        trials=CERT_ROWS // len(verify.DEFAULT_EPSILONS)))
    sample_metrics(out)
    out.metric("peak_rss_mb", self_peak_rss_mb(), "MB")
    return out


def cycle_units(queries, lat) -> dict:
    """The units of a stream cycle: name -> (times per cycle, durations).

    A cycle is CYCLE_BLOCKS blocks.  Their cheap queries make one unit
    per block; each log-power query is a unit of its own, identified by
    exponent and grid point, which every cycle visits once.
    """
    cheap = [0.0] * (len(queries) // len(ENVELOPE_BLOCK))
    units = {"cheap": (CYCLE_BLOCKS, cheap)}
    for i, (q, dt) in enumerate(zip(queries, lat)):
        if q.grid is None:
            cheap[i // len(ENVELOPE_BLOCK)] += dt
        else:
            units.setdefault(f"{q.spectrum}/{q.grid}", (1, []))[1].append(dt)
    return units


def bound_command(q: Query) -> tuple:
    model = ENVELOPE_SPECTRA[q.spectrum]
    if model.kind == "explicit":
        spec = ("--levels", ",".join(repr(x) for x in model.levels))
    else:
        spec = ("--oscillator", ",".join(repr(x) for x in model.frequencies))
    cmd = ("bound", *spec, "--preset", q.preset, "--epsilon", repr(q.epsilon),
           "--energy", repr(q.energy))
    return cmd + (("--pure",) if q.pure else ())


def run_cli_cold(seed: int, seconds: float, corrupt: bool) -> Outcome:
    out = Outcome()
    sides = SideTasks(interleave(setup_tasks(out, "cli-cold", seed),
                                 probe_tasks(out, "cli-cold", seed)), seconds, out.cpu.settle)
    expected = checks.cli_expected(CLI_EXPECTED, corrupt)
    calls = 0
    per_command = [[] for _ in CLI_COMMANDS]

    def one_call():
        nonlocal calls
        k = calls % len(CLI_COMMANDS)
        calls += 1
        dt, proc = run_cli(CLI_COMMANDS[k])
        out.samples["cold"].append(dt)
        per_command[k].append(dt)
        out.checks.expect("cli-exit", proc.returncode == 0,
                          f"{' '.join(CLI_COMMANDS[k])} exited {proc.returncode}")
        out.checks.expect("cli-output", expected[k] in proc.stdout.splitlines(),
                          f"{' '.join(CLI_COMMANDS[k])}: no line {expected[k]!r}")
        return dt

    run_cli(CLI_COMMANDS[0])
    loop_s = timed_loop(one_call, lambda: calls >= len(CLI_COMMANDS), sides, seconds, out.cpu.settle)
    out.quota_ops += len(CLI_COMMANDS)
    out.attempted += calls
    # Each README command is one unit; a pass runs all three.
    out.metric("rows_per_s", len(CLI_COMMANDS) / sum(fast(t) for t in per_command), "1/s")
    out.units["command_s"] = per_command
    out.details.update(calls=calls, loop_s=loop_s, mean_calls_per_s=calls / loop_s)
    out.metric("peak_rss_mb", children_peak_rss_mb(), "MB")

    checks.check_closed_forms(out.checks, seed, corrupt)
    # The printed entropy bound certified on random pairs with the same
    # epsilon and energy cap; the sweep's bound column must equal it.
    rows = certification(out, verify.SweepConfig(
        family="entropy", energy=1.5, seed=derived_int(seed, WORKLOADS.index("cli-cold"), TAG_CERT),
        trials=CERT_ROWS, epsilons=(0.08,)))
    printed = parse_bound_line(CLI_EXPECTED[1])
    out.checks.expect("cli-bound-matches-sweep",
                      all(abs(r.bound - printed) <= 1e-11 * printed for r in rows),
                      f"sweep bound {rows[0].bound} vs printed {printed}")
    sample_metrics(out)
    return out


def run(workload: str, seed: int, seconds: float, corrupt: bool = False) -> Outcome:
    if workload in ("sweep-channel", "sweep-states"):
        out = run_sweep_workload(workload, seed, seconds, corrupt)
    elif workload == "envelope":
        out = run_envelope(seed, seconds, corrupt)
    else:
        out = run_cli_cold(seed, seconds, corrupt)
    out.metric("failed_share", out.failed_share(), "ratio")
    out.details.update(fastest_spin_us=1e6 * out.cpu.fastest_spin)
    return out
