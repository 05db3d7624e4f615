"""Traced run: spans around each layer's entry points, and the layer profile.

Spans are recorded from the benchmark's own files by replacing, for the
duration of one excerpt, the module attributes through which a layer
above looks up the layer below (``entrobound.verify.channel_mi``,
``numpy.linalg.eigvalsh``, ...).  Each span keeps (name, label, start,
end, parent); a layer's self time is its span time minus the part its
child spans cover.  Spans stay in memory and are written out at the end.

The profile runs a fixed excerpt of every workload, untraced and then
traced, so every per-layer metric is measured on the workload it
belongs to whichever workload was named, and the difference between the
two passes is the tracing overhead.
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import statistics
import time
from collections import defaultdict

import numpy as np

import entrobound.bounds
import entrobound.channels
import entrobound.cli
import entrobound.entropy
import entrobound.gibbs
import entrobound.verify
from entrobound.errors import NumericalError

import workloads

CLI_CHILD_REPEATS = 3
HANDLER_REPEATS = 5
EIG_FUNCS = ("eigh", "eigvalsh", "svd")
# Matrix sizes whose eigendecompositions are counted per row; calls at
# other sizes still enter the computed flop count.
EIG_DIMS = {"channel": (16, 256), "states": (2, 4, 8, 16, 32)}


def _per(total: float, count: int) -> float:
    """total / count, or 0 when the code under test made no such call."""
    return total / count if count else 0.0


def _dim(x) -> int:
    arr = getattr(x, "matrix", x)
    return int(np.shape(arr)[0])


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _spectrum_label(model) -> str:
    if model.kind == "oscillator" and len(model.frequencies) > 1:
        return f"oscillator{len(model.frequencies)}"
    return model.kind


class Tracer:
    """Span recorder that patches module attributes and restores them."""

    def __init__(self):
        self.spans = []          # [name, label, start, end, parent, error]
        self.counts = []         # per span: {counter: n}, inclusive of descendants
        self.stack = []
        self._patches = []

    def traced_callable(self, fn, name: str, label=None):
        """fn wrapped in a span; label is a constant or label(args, kwargs)."""
        tracer = self

        def traced(*args, **kwargs):
            sid = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            tag = label(args, kwargs) if callable(label) else label
            span = [name, tag, time.perf_counter(), None, parent, False]
            tracer.spans.append(span)
            tracer.counts.append({})
            tracer.stack.append(sid)
            try:
                return fn(*args, **kwargs)
            except Exception:
                span[5] = True
                raise
            finally:
                span[3] = time.perf_counter()
                tracer.stack.pop()

        return traced

    def wrap(self, owner, attr: str, name: str, label=None):
        original = getattr(owner, attr)
        self.patch(owner, attr, self.traced_callable(original, name, label))

    def count(self, owner, attr: str, counter: str):
        """Count calls, attributed to every open span."""
        original = getattr(owner, attr)
        tracer = self

        def counted(*args, **kwargs):
            for sid in tracer.stack:
                c = tracer.counts[sid]
                c[counter] = c.get(counter, 0) + 1
            return original(*args, **kwargs)

        self.patch(owner, attr, counted)

    def patch(self, owner, attr: str, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def durations(self) -> list:
        return [s[3] - s[2] for s in self.spans]

    def self_times(self) -> list:
        dur = self.durations()
        own = list(dur)
        for i, s in enumerate(self.spans):
            if s[4] >= 0:
                own[s[4]] -= dur[i]
        return own

    def select(self, name: str, label=None) -> list:
        return [i for i, s in enumerate(self.spans)
                if s[0] == name and (label is None or s[1] == label)]

    def mean_ms(self, name: str, label=None) -> float:
        dur = self.durations()
        idx = self.select(name, label)
        return _per(1e3 * sum(dur[i] for i in idx), len(idx))

    def layer_self_ms(self, layer: str) -> float:
        own = self.self_times()
        return 1e3 * sum(t for s, t in zip(self.spans, own) if s[0].split(".")[0] == layer)

    def dump(self, stream, excerpt: str):
        for i, s in enumerate(self.spans):
            stream.write(json.dumps({"excerpt": excerpt, "id": i, "name": s[0], "label": s[1],
                                     "start": s[2], "end": s[3], "parent": s[4],
                                     "error": s[5], "counts": self.counts[i]}) + "\n")


def instrument(tr: Tracer):
    """Install every layer boundary the profile measures."""
    v, ch, en, gb, bd = (entrobound.verify, entrobound.channels, entrobound.entropy,
                         entrobound.gibbs, entrobound.bounds)
    first_dim = lambda a, k: _dim(a[0])
    for func in EIG_FUNCS:
        tr.wrap(np.linalg, func, f"operators.{func}", first_dim)
    for mod in (v, ch, en, gb):
        tr.wrap(mod, "DensityMatrix", "operators.density_matrix", first_dim)
    for mod in (v, en):
        tr.wrap(mod, "partial_trace", "operators.partial_trace", first_dim)
    tr.wrap(ch, "purify", "operators.purify", first_dim)
    tr.wrap(v, "trace_norm", "operators.trace_norm", first_dim)
    for mod in (v, en, gb):
        tr.wrap(mod, "von_neumann_entropy", "entropy.von_neumann", first_dim)
    for mod in (v, ch, en):
        tr.wrap(mod, "mutual_information", "entropy.mutual_information", first_dim)
    tr.wrap(v, "conditional_entropy", "entropy.conditional_entropy", first_dim)
    tr.wrap(en, "relative_entropy", "entropy.relative_entropy", first_dim)
    tr.wrap(v, "holevo_chi", "entropy.holevo_chi",
            lambda a, k: f"n{len(a[0].states)}d{a[0].dim}")
    tr.wrap(v, "ordered_distance", "ensembles.ordered_distance")
    tr.wrap(v, "channel_mi", "channels.channel_mi", lambda a, k: a[0].name.split("(")[0])
    tr.wrap(v, "make_channel", "channels.make_channel", lambda a, k: a[0])
    tr.wrap(v, "sample_state_pair", "verify.sample", lambda a, k: _arg(a, k, 4, "sampler"))
    tr.wrap(v, "_sample_ensemble_pair", "verify.sample", lambda a, k: "ensemble")
    tr.wrap(v, "random_density_matrix", "verify.random_density_matrix")
    tr.count(v._Budget, "spend", "draws")
    tr.wrap(v, "config_digest", "serialization.config_digest")
    tr.wrap(v, "write_csv", "serialization.to_csv")
    for mod in (v, bd):
        tr.wrap(mod, "continuity_bound", "bounds.continuity_bound")
    tr.wrap(bd, "max_entropy_with_tail", "gibbs.max_entropy",
            lambda a, k: _spectrum_label(a[0]))
    tr.wrap(gb, "mean_energy", "gibbs.mean_energy")
    tr.wrap(gb, "quad", "gibbs.quad")
    tr.wrap(gb, "solve_inverse_temperature", "gibbs.solve")
    # Setup spans, and evaluation spans around each family's functional.
    resolve = tr.traced_callable(v.resolve_wiring, "verify.setup", lambda a, k: a[0].family)

    def resolve_with_eval(config):
        wiring = resolve(config)
        return dataclasses.replace(
            wiring, f=tr.traced_callable(wiring.f, "verify.eval", config.family))

    tr.patch(v, "resolve_wiring", resolve_with_eval)


@contextlib.contextmanager
def traced():
    tr = Tracer()
    try:
        instrument(tr)
        yield tr
    finally:
        tr.restore()


# ---------------------------------------------------------------------------
# excerpts
# ---------------------------------------------------------------------------


# Each excerpt takes (seed, warm); warm=True runs a small untimed part
# first, so the untraced pass is not charged for first-call costs.


def excerpt_sweep(workload: str, seed: int, warm: bool = False):
    configs = workloads.sweep_configs(workload, seed, workloads.TAG_ROUND, 0)
    if warm:
        configs = [dataclasses.replace(c, epsilons=c.epsilons[:1]) for c in configs]
    reports, digest, seconds = workloads.run_round(configs)
    return {"rows": sum(len(r.rows) for r in reports), "digest": digest}, sum(seconds)


def excerpt_envelope(seed: int, warm: bool = False):
    """One cycle of the query stream (500 queries, 20 of them log-power)."""
    stats = {"queries": 0, "logpower": 0, "logpower_refused": 0, "shortcut": 0}
    t0 = time.perf_counter()
    for b in range(1 if warm else workloads.CYCLE_BLOCKS):
        for q in workloads.envelope_block(seed, b, workloads.TAG_WARM if warm else workloads.TAG_STREAM):
            stats["queries"] += 1
            stats["shortcut"] += q.path == "shortcut"
            lp = q.spectrum.startswith("logpower")
            stats["logpower"] += lp
            try:
                entrobound.bounds.continuity_bound(
                    q.preset, workloads.ENVELOPE_SPECTRA[q.spectrum], q.epsilon, q.energy,
                    pure=q.pure)
            except NumericalError:
                stats["logpower_refused"] += lp
    return stats, time.perf_counter() - t0


def excerpt_handlers(seed: int, warm: bool = False):
    cli = entrobound.cli
    t0 = time.perf_counter()
    for _ in range(1 if warm else HANDLER_REPEATS):
        for cmd in workloads.CLI_COMMANDS:
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(list(cmd))
    return {"calls": HANDLER_REPEATS * len(workloads.CLI_COMMANDS)}, time.perf_counter() - t0


def traced_handlers(tr: Tracer):
    for name in ("_cmd_gibbs", "_cmd_bound"):
        tr.wrap(entrobound.cli, name, "cli.handler", lambda a, k, n=name: n[5:])


EXCERPTS = {
    "sweep-channel": lambda seed, warm=False: excerpt_sweep("sweep-channel", seed, warm),
    "sweep-states": lambda seed, warm=False: excerpt_sweep("sweep-states", seed, warm),
    "envelope": excerpt_envelope,
    "cli-cold": excerpt_handlers,
}


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


def _eig_dims(tr: Tracer) -> dict:
    names = tuple(f"operators.{f}" for f in EIG_FUNCS)
    dims = defaultdict(int)
    for s in tr.spans:
        if s[0] in names:
            dims[s[1]] += 1
    return dims


def _sample_stats(tr: Tracer, sampler: str):
    idx = tr.select("verify.sample", sampler)
    draws = sum(tr.counts[i].get("draws", 0) for i in idx)
    return len(idx), draws


def sweep_metrics(m, tr: Tracer, rows: int, tag: str, layers):
    dims = _eig_dims(tr)
    for d in EIG_DIMS[tag]:
        m[f"operators.eig_calls_per_row.{tag}.d{d}"] = (dims[d] / rows, "count")
    m[f"operators.eig_flops_computed_per_row.{tag}"] = (
        sum(n * d**3 for d, n in dims.items()) / rows, "flop")
    for layer in layers:
        m[f"{layer}.self_ms_per_row.{tag}"] = (tr.layer_self_ms(layer) / rows, "ms")


def channel_metrics(m, tr: Tracer, info):
    rows = info["rows"]
    m["operators.density_matrix_ms.d16"] = (tr.mean_ms("operators.density_matrix", 16), "ms")
    m["operators.density_matrix_ms.d256"] = (tr.mean_ms("operators.density_matrix", 256), "ms")
    m["operators.partial_trace_ms.d256"] = (tr.mean_ms("operators.partial_trace", 256), "ms")
    m["operators.purify_ms.d16"] = (tr.mean_ms("operators.purify", 16), "ms")
    m["entropy.von_neumann_ms.d256"] = (tr.mean_ms("entropy.von_neumann", 256), "ms")
    m["entropy.mutual_information_ms.d256"] = (tr.mean_ms("entropy.mutual_information", 256), "ms")
    for kind in ("identity", "dephasing", "depolarizing", "amplitude-damping", "attenuator"):
        m[f"channels.channel_mi_ms.{kind}"] = (tr.mean_ms("channels.channel_mi", kind), "ms")
    m["verify.eval_ms.channel-mi"] = (tr.mean_ms("verify.eval", "channel-mi"), "ms")
    m["channels.make_channel_ms.depolarizing"] = (
        tr.mean_ms("channels.make_channel", "depolarizing"), "ms")
    m["verify.setup_ms.channel-mi"] = (tr.mean_ms("verify.setup", "channel-mi"), "ms")
    sweep_metrics(m, tr, rows, "channel", ("operators", "entropy", "channels", "verify"))


STATE_FAMILIES = ("entropy", "cond-entropy", "mutual-info", "gibbs-red", "holevo")


def states_metrics(m, tr: Tracer, info):
    rows = info["rows"]
    m["operators.trace_norm_ms.d16"] = (tr.mean_ms("operators.trace_norm", 16), "ms")
    m["entropy.relative_entropy_ms.d8"] = (tr.mean_ms("entropy.relative_entropy", 8), "ms")
    m["entropy.holevo_chi_ms.n4d8"] = (tr.mean_ms("entropy.holevo_chi", "n4d8"), "ms")
    m["ensembles.ordered_distance_ms"] = (tr.mean_ms("ensembles.ordered_distance"), "ms")
    for sampler in ("mixed", "boundary", "pure"):
        pairs, draws = _sample_stats(tr, sampler)
        m[f"verify.sample_ms.{sampler}"] = (tr.mean_ms("verify.sample", sampler), "ms")
        m[f"verify.draws_per_pair.{sampler}"] = (_per(draws, pairs), "count")
        # A pair is two accepted states, whatever the sampler.
        m[f"verify.draw_accept_ratio.{sampler}"] = (_per(2 * pairs, draws), "ratio")
    for family in STATE_FAMILIES:
        m[f"verify.eval_ms.{family}"] = (tr.mean_ms("verify.eval", family), "ms")
        m[f"verify.setup_ms.{family}"] = (tr.mean_ms("verify.setup", family), "ms")
    gibbs_red = tr.select("verify.eval", "gibbs-red")
    probes = sum(1 for s in tr.spans if s[0] == "gibbs.mean_energy"
                 and _ancestor_label(tr, s, "verify.eval") == "gibbs-red")
    # Two evaluations per row: f(rho) and f(sigma).
    m["gibbs.mean_energy_calls_per_row.gibbs-red"] = (_per(2 * probes, len(gibbs_red)), "count")
    m["serialization.config_digest_ms"] = (tr.mean_ms("serialization.config_digest"), "ms")
    m["serialization.to_csv_ms"] = (tr.mean_ms("serialization.to_csv"), "ms")
    sweep_metrics(m, tr, rows, "states",
                  ("operators", "entropy", "ensembles", "verify", "gibbs", "serialization"))


ENVELOPE_KINDS = ("explicit", "oscillator", "oscillator3", "logpower")


def envelope_metrics(m, tr: Tracer, info):
    own = tr.self_times()
    for kind in ENVELOPE_KINDS:
        idx = tr.select("gibbs.max_entropy", kind)
        m[f"gibbs.max_entropy_ms.{kind}"] = (tr.mean_ms("gibbs.max_entropy", kind), "ms")
        probes = sum(1 for s in tr.spans
                     if s[0] == "gibbs.mean_energy" and _ancestor_label(tr, s, "gibbs.max_entropy") == kind)
        m[f"gibbs.solve_probes.{kind}"] = (_per(probes, len(idx)), "count")
    quads = sum(1 for s in tr.spans if s[0] == "gibbs.quad")
    m["gibbs.quad_calls_per_query.logpower"] = (quads / info["logpower"], "count")
    m["gibbs.failed_share.logpower"] = (info["logpower_refused"] / info["logpower"], "ratio")
    m["gibbs.shortcut_share"] = (info["shortcut"] / info["queries"], "ratio")
    m["gibbs.solve_share"] = (1.0 - info["shortcut"] / info["queries"], "ratio")
    cb = tr.select("bounds.continuity_bound")
    m["bounds.continuity_bound_self_ms"] = (_per(1e3 * sum(own[i] for i in cb), len(cb)), "ms")
    m["gibbs.self_ms_per_query.envelope"] = (tr.layer_self_ms("gibbs") / info["queries"], "ms")


def _ancestor_label(tr: Tracer, span, name):
    parent = span[4]
    while parent >= 0:
        p = tr.spans[parent]
        if p[0] == name:
            return p[1]
        parent = p[4]
    return None


def handler_metrics(m, tr: Tracer, info):
    for name in ("gibbs", "bound"):
        m[f"cli.handler_ms.{name}"] = (tr.mean_ms("cli.handler", name), "ms")


def _import_scipy_s(stderr: str) -> float:
    """Cumulative import time of the outermost scipy modules, from -X importtime.

    importtime prints children before parents; walking the lines in
    reverse gives pre-order, where a stack of depths tells whether an
    entry sits inside a scipy subtree already counted.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line[len("import time:"):].split("|")
        if not parts[1].strip().isdigit():
            continue
        name = parts[2]
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, name.strip(), int(parts[1])))
    total = 0
    stack = []
    for depth, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not inside:
            total += cumulative
        stack.append((depth, inside or is_scipy))
    return total / 1e6


def cli_metrics(m):
    bare, total, scipy_s = [], [], []
    timed_import = ("import time; t = time.perf_counter(); import entrobound.cli; "
                    "print(time.perf_counter() - t)")
    for _ in range(CLI_CHILD_REPEATS):
        bare.append(workloads.run_child(["-c", "pass"])[0])
        total.append(float(workloads.run_child(["-c", timed_import])[1].stdout))
        scipy_s.append(_import_scipy_s(
            workloads.run_child(["-X", "importtime", "-c", "import entrobound.cli"])[1].stderr))
    m["cli.python_bare_s"] = (statistics.median(bare), "s")
    m["cli.import_total_s"] = (statistics.median(total), "s")
    m["cli.import_scipy_s"] = (statistics.median(scipy_s), "s")


METRICS = {
    "sweep-channel": channel_metrics,
    "sweep-states": states_metrics,
    "envelope": envelope_metrics,
    "cli-cold": handler_metrics,
}


def profile(seed: int, spans_path) -> tuple[dict, dict, int]:
    """Run every excerpt untraced, then traced.

    Returns (metrics, details, operations attempted in the traced passes).
    """
    m = {}
    details = {"csv_identical": {}}
    attempted = 0
    with open(spans_path, "w", encoding="utf-8") as spans_out:
        for name, excerpt in EXCERPTS.items():
            excerpt(seed, warm=True)
            plain_info, plain_s = excerpt(seed)
            with traced() as tr:
                if name == "cli-cold":
                    traced_handlers(tr)
                info, traced_s = excerpt(seed)
            METRICS[name](m, tr, info)
            attempted += info.get("rows", 0) + info.get("queries", 0) + info.get("calls", 0)
            m[f"trace.overhead_ms.{name}"] = (1e3 * (traced_s - plain_s), "ms")
            if "digest" in info:
                details["csv_identical"][name] = info["digest"] == plain_info["digest"]
            details[name] = {"untraced_s": plain_s, "traced_s": traced_s,
                             "spans": len(tr.spans), **info}
            tr.dump(spans_out, name)
    cli_metrics(m)
    return m, details, attempted
