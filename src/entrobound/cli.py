"""Command-line front end.

Subcommands: gibbs, bound, verify, laa-check, lemma2, ensemble-dist.
Exit codes: 0 success, 1 invalid input, 2 a verified inequality failed,
3 a numerical safeguard tripped.  All entropic output is in nats unless
--bits is given.  Sweep CSV files contain no timestamps; provenance
with timestamps goes into the separate manifest JSON.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from datetime import datetime, timezone
from decimal import ROUND_CEILING, Context, Decimal
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import EPSILON_MAX, PRESETS, continuity_bound, continuity_bound_finite
from .ensembles import ordered_distance, transport_plan
from .errors import BoundViolationError, NumericalError, ValidationError
from .gibbs import (
    DEFAULT_TRUNCATION,
    GibbsSolution,
    SpectrumModel,
    entropy_growth_diagnostic,
    entropy_maximizer,
    log_partition,
    mean_energy,
)
from .serialization import (
    decode_spectrum,
    jsonable,
    load_ensemble,
    load_hermitian,
    load_json,
)
from .verify import (
    LAA_QUANTITIES,
    SAMPLERS,
    SWEEP_FAMILIES,
    SweepConfig,
    default_sweep_suite,
    laa_check,
    run_sweep,
)

LAA_SLACK_TOL = -1e-8
LN2 = math.log(2.0)
# Relative error budget of a bound term's float against the exact value of
# its formula: 64 unit roundoffs (2^-53 each) for the float steps from the
# inputs to the printed unit, bits included.
BOUND_ROUNDING = 2.0 ** -47
_SLACK = Decimal(BOUND_ROUNDING)
_CEILING = Context(prec=12, rounding=ROUND_CEILING)
# verify options that shape one sweep; --suite fixes all of them itself.
SWEEP_OPTIONS = ("family", "epsilons", "energy", "sampler", "pure", "dims", "channel")


class _Parser(argparse.ArgumentParser):
    """Routes usage errors through the package's exit-code mapping."""

    def error(self, message):
        raise ValidationError(message)


def _csv_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError:
        raise ValidationError(f"expected a comma-separated list of numbers, got {text!r}") from None


def _csv_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError:
        raise ValidationError(f"expected a comma-separated list of integers, got {text!r}") from None


def _parse_channel(text: str) -> tuple[str, tuple[float, ...]]:
    kind, _, rest = text.partition(":")
    params = _csv_floats(rest) if rest else ()
    return kind, params


def _add_spectrum_args(parser, with_dim_b=False):
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--levels", type=_csv_floats, metavar="E0,E1,...",
                       help="explicit energy levels")
    group.add_argument("--oscillator", type=_csv_floats, metavar="W1,W2,...",
                       help="oscillator mode frequencies")
    group.add_argument("--logpower", type=float, metavar="Q",
                       help="log-power spectrum ln(k)^Q")
    group.add_argument("--spectrum", metavar="FILE",
                       help="spectrum model as JSON")
    group.add_argument("--hamiltonian", metavar="FILE",
                       help="Hermitian matrix JSON; its eigenvalues become the levels")
    if with_dim_b:
        group.add_argument("--dim-b", type=int, metavar="D",
                           help="finite-dimensional constrained part (no energy needed)")
    parser.add_argument("--truncation", type=int, default=None,
                        help="series truncation of a log-power spectrum")


def _refuse_truncation(args, what: str):
    if args.truncation is not None:
        raise ValidationError(
            f"--truncation applies only to a log-power spectrum; {what} has no series to truncate")


def _model_from_args(args) -> SpectrumModel:
    if args.oscillator is not None:
        model = SpectrumModel.oscillator(args.oscillator)
    elif args.logpower is not None:
        model = SpectrumModel.log_power(args.logpower)
    elif args.spectrum is not None:
        model = decode_spectrum(load_json(args.spectrum))
    elif args.levels is not None:
        model = SpectrumModel.explicit(args.levels)
    else:
        model = SpectrumModel.explicit(np.linalg.eigvalsh(load_hermitian(args.hamiltonian).matrix))
    if args.truncation is None:
        return model
    if model.kind != "logpower":
        _refuse_truncation(args, f"an {model.kind} spectrum")
    return dataclasses.replace(model, truncation=args.truncation)


def _entropic(value: float, bits: bool) -> float:
    return value / LN2 if bits else value


def _upper(value: float) -> str:
    """The least 12-digit decimal at or above value + BOUND_ROUNDING |value|, as %.12g.

    The decimal is rounded once, toward +inf, from the exact sum; the
    float nearest it prints back as that same decimal.
    """
    return "%.12g" % float(_CEILING.fma(Decimal(abs(value)), _SLACK, Decimal(value)))


def _unit(bits: bool) -> str:
    return "bits" if bits else "nats"


def _emit(args, payload: dict, human_lines):
    if args.json:
        json.dump(jsonable(payload), sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        for line in human_lines:
            print(line)


def _cmd_gibbs(args) -> int:
    model = _model_from_args(args)
    if (args.energy is None) == (args.lam is None):
        raise ValidationError("gibbs: give exactly one of --energy or --lam")
    # The library's mean energy and ln Z are of H - E0; these print them of H.
    ground = model.ground_energy
    if args.energy is not None:
        if not math.isfinite(args.energy):
            raise ValidationError(f"--energy must be finite, got {args.energy}")
        sol = entropy_maximizer(model, args.energy)
    else:
        if not 0 < args.lam < math.inf:
            raise ValidationError(f"--lam must be positive and finite, got {args.lam}")
        log_z = log_partition(model, args.lam)
        excess = mean_energy(model, args.lam)
        sol = GibbsSolution(lam=args.lam, energy=ground + excess,
                            f_value=args.lam * excess + log_z, log_z=log_z)
    log_z = sol.log_z - sol.lam * ground
    unit = _unit(args.bits)
    payload = {
        "kind": model.kind,
        "lambda": sol.lam,
        "energy": sol.energy,
        "max_entropy": _entropic(sol.f_value, args.bits),
        "log_partition": _entropic(log_z, args.bits),
        "unit": unit,
        "flag": sol.flag,
    }
    _emit(args, payload, [
        f"spectrum kind: {model.kind}",
        f"inverse temperature: {sol.lam:.12g}",
        f"mean energy: {sol.energy:.12g}",
        f"max entropy: {_entropic(sol.f_value, args.bits):.12g} {unit}",
        f"log partition: {_entropic(log_z, args.bits):.12g} {unit}",
        f"flag: {sol.flag or 'none'}",
    ])
    return 0


def _cmd_bound(args) -> int:
    if args.dim_b is not None:
        if args.energy is not None:
            raise ValidationError("bound: --dim-b takes no --energy")
        _refuse_truncation(args, "the finite --dim-b form")
        result = continuity_bound_finite(args.preset, args.dim_b, args.epsilon, pure=args.pure)
    else:
        if args.energy is None:
            raise ValidationError("bound: --energy is required unless --dim-b is used")
        result = continuity_bound(args.preset, _model_from_args(args), args.epsilon, args.energy,
                                  pure=args.pure)
    unit = _unit(args.bits)
    payload = dict(jsonable(result))
    for key in ("value", "main_term", "additive_term", "f_value"):
        if isinstance(payload.get(key), float):
            payload[key] = _entropic(payload[key], args.bits)
    payload["unit"] = unit
    lines = [
        f"preset: {result.preset}",
        f"epsilon: {result.epsilon:.12g} (effective {result.epsilon_effective:.12g}"
        f"{', pure-state variant' if result.pure else ''})",
    ]
    if result.energy is not None:
        lines.append(f"energy cap: {result.energy:.12g}")
    if result.f_value is not None:
        lines.append(f"spectrum envelope term: {_upper(_entropic(result.f_value, args.bits))} {unit}")
    lines.extend([
        f"main term: {_upper(_entropic(result.main_term, args.bits))} {unit}",
        f"additive term: {_upper(_entropic(result.additive_term, args.bits))} {unit}",
        f"bound: {_upper(_entropic(result.value, args.bits))} {unit}",
    ])
    _emit(args, payload, lines)
    return 0


def _write_report_csv(report, path: str):
    if path == "-":
        report.to_csv(sys.stdout)
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        report.to_csv(fh)


def _report_summary(report) -> dict:
    return {
        "family": report.config.family,
        "pure": report.config.pure,
        "sampler": report.config.sampler,
        "channel": None if report.config.channel is None
        else [report.config.channel[0], list(report.config.channel[1])],
        "config_sha256": report.config_digest,
        "rows": len(report.rows),
        "violations": len(report.violations),
        "worst_margin": min((r.margin for r in report.rows), default=None),
    }


def _cmd_verify(args) -> int:
    started = datetime.now(timezone.utc).isoformat()
    given = {opt: getattr(args, opt) for opt in SWEEP_OPTIONS if getattr(args, opt) is not None}
    if args.suite:
        if given:
            flags = ", ".join("--" + opt.replace("_", "-") for opt in given)
            raise ValidationError(f"verify --suite sets every sweep itself; drop {flags}")
        if args.out_dir is None:
            raise ValidationError("verify --suite needs --out-dir")
        if args.out is not None:
            raise ValidationError("verify --suite writes its CSVs into --out-dir; drop --out")
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        configs = default_sweep_suite(seed=args.seed, trials=args.trials)
        manifest_path = args.manifest or out_dir / "manifest.json"
    else:
        if args.family is None:
            raise ValidationError("verify: give --family or --suite")
        if args.out_dir is not None:
            raise ValidationError("verify: --out-dir needs --suite; use --out for one sweep")
        if given.pop("pure", False):
            if given.setdefault("sampler", "pure") != "pure":
                raise ValidationError(f"verify: --pure contradicts --sampler {given['sampler']}; "
                                      "--pure selects the pure sampler")
        if args.channel is not None:
            given["channel"] = _parse_channel(args.channel)
        configs = [SweepConfig(seed=args.seed, trials=args.trials, **given)]
        manifest_path = args.manifest
    summaries = []
    total_violations = 0
    for config in configs:
        report = run_sweep(config)
        total_violations += len(report.violations)
        name, path = config.family, args.out or "-"
        if args.suite:
            if config.channel is not None:
                name += f"-{config.channel[0]}"
            if config.pure:
                name += "-pure"
            path = str(out_dir / f"{name}.csv")
        _write_report_csv(report, path)
        summary = _report_summary(report)
        summary["csv"] = path
        summaries.append(summary)
        if path != "-":
            print(f"{name}: {len(report.rows)} rows, "
                  f"{len(report.violations)} violations, "
                  f"worst margin {summary['worst_margin']:.3e}")
    if manifest_path is not None:
        manifest = {
            "tool": f"entrobound {__version__}",
            "command": "verify",
            "started_utc": started,
            "finished_utc": datetime.now(timezone.utc).isoformat(),
            "reports": summaries,
        }
        with open(manifest_path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2)
            fh.write("\n")
    if total_violations:
        raise BoundViolationError(
            f"{total_violations} sweep rows exceeded their bound"
        )
    return 0


def _cmd_laa_check(args) -> int:
    report = laa_check(args.quantity, args.dims, args.trials, args.seed)
    failed = (report.worst_lower < LAA_SLACK_TOL or report.worst_upper < LAA_SLACK_TOL)
    unit = _unit(args.bits)
    payload = dict(jsonable(report))
    payload["unit"] = unit
    payload["passed"] = not failed
    if args.bits:
        payload["worst_lower"] = _entropic(report.worst_lower, True)
        payload["worst_upper"] = _entropic(report.worst_upper, True)
    _emit(args, payload, [
        f"quantity: {report.quantity}",
        f"dims: {report.dims}",
        f"trials: {report.trials} (infinite-branch pairs: {report.infinite_pairs})",
        f"worst lower slack: {_entropic(report.worst_lower, args.bits):.6g} {unit}",
        f"worst upper slack: {_entropic(report.worst_upper, args.bits):.6g} {unit}",
        f"verdict: {'PASS' if not failed else 'FAIL'} (tolerance {LAA_SLACK_TOL})",
    ])
    if failed:
        raise BoundViolationError(
            f"mixing inequality violated for {report.quantity}: "
            f"worst lower {report.worst_lower}, worst upper {report.worst_upper}"
        )
    return 0


def _cmd_lemma2(args) -> int:
    report = entropy_growth_diagnostic(SpectrumModel.log_power(args.q, truncation=args.truncation),
                                       args.lambdas)
    payload = jsonable(report)
    lines = [f"log-power exponent q: {args.q}"]
    for lam, prod, e_val, f_val in zip(
        report.lambdas, report.lambda_g, report.energies, report.f_values
    ):
        lines.append(
            f"lam={lam:<8g} lam*lnZ={prod:<12.6g} mean energy={e_val:<14.6g} F={f_val:.6g}"
        )
    if report.certified_lower is not None:
        lines.append(f"certified lower bound on lam*lnZ at lam={report.lambdas[-1]}: "
                     f"{report.certified_lower:.6g}")
    for note in report.notes:
        lines.append(f"note: {note}")
    lines.append(f"verdict: {report.verdict}")
    _emit(args, payload, lines)
    return 0


def _cmd_ensemble_dist(args) -> int:
    first = load_ensemble(args.first)
    second = load_ensemble(args.second)
    if args.metric == "d0":
        value = ordered_distance(first, second)
        payload = {"metric": "d0", "value": value}
        lines = [f"ordered distance: {value:.12g}"]
    else:
        value, plan = transport_plan(first, second)
        payload = {"metric": "dstar", "value": value}
        lines = [f"transport distance: {value:.12g}"]
        if args.json:
            payload["plan"] = [[float(x) for x in row] for row in plan.matrix]
    _emit(args, payload, lines)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="entrobound",
                     description="Energy-constrained entropic continuity bounds.")
    parser.add_argument("--version", action="version", version=f"entrobound {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gibbs = sub.add_parser("gibbs", help="solve the constrained entropy maximizer")
    _add_spectrum_args(p_gibbs)
    p_gibbs.add_argument("--energy", type=float, default=None, help="mean-energy target")
    p_gibbs.add_argument("--lam", type=float, default=None, help="inverse temperature")
    p_gibbs.add_argument("--bits", action="store_true", help="report entropies in bits")
    p_gibbs.add_argument("--json", action="store_true")
    p_gibbs.set_defaults(handler=_cmd_gibbs)

    p_bound = sub.add_parser("bound", help="evaluate a continuity bound preset")
    _add_spectrum_args(p_bound, with_dim_b=True)
    p_bound.add_argument("--preset", required=True,
                         choices=sorted(PRESETS), help="quantity preset")
    p_bound.add_argument("--epsilon", type=float, required=True,
                         help=f"trace-distance budget (spectrum forms allow up to {EPSILON_MAX})")
    p_bound.add_argument("--energy", type=float, default=None, help="energy cap")
    p_bound.add_argument("--pure", action="store_true",
                         help="pure-state variant (epsilon^2/2 substitution)")
    p_bound.add_argument("--bits", action="store_true", help="report in bits")
    p_bound.add_argument("--json", action="store_true")
    p_bound.set_defaults(handler=_cmd_bound)

    p_verify = sub.add_parser("verify", help="run certification sweeps")
    # Options in SWEEP_OPTIONS default to None, so --suite can refuse them.
    p_verify.add_argument("--family", choices=SWEEP_FAMILIES, default=None)
    p_verify.add_argument("--suite", action="store_true",
                          help="run the full battery including pure variants")
    p_verify.add_argument("--trials", type=int, default=200)
    p_verify.add_argument("--epsilons", type=_csv_floats, default=None)
    p_verify.add_argument("--energy", type=float, default=None)
    p_verify.add_argument("--seed", type=int, default=20240801)
    p_verify.add_argument("--sampler", choices=SAMPLERS, default=None)
    p_verify.add_argument("--pure", action="store_true", default=None,
                          help="the pure sampler, as --sampler pure")
    p_verify.add_argument("--dims", type=_csv_ints, default=None,
                          help="override sampling factor dimensions")
    p_verify.add_argument("--channel", default=None, metavar="KIND[:P1,P2]",
                          help="channel for the channel-mi family")
    p_verify.add_argument("--out", default=None,
                          help="CSV output path of one sweep ('-' = stdout, the default)")
    p_verify.add_argument("--out-dir", default=None, help="directory for the --suite CSVs")
    p_verify.add_argument("--manifest", default=None,
                          help="write a run manifest (timestamps live here, not in the CSV); "
                               "--suite defaults to OUT_DIR/manifest.json")
    p_verify.set_defaults(handler=_cmd_verify)

    p_laa = sub.add_parser("laa-check", help="test the two-sided mixing inequalities")
    p_laa.add_argument("--quantity", required=True, choices=LAA_QUANTITIES)
    p_laa.add_argument("--dims", type=_csv_ints, required=True,
                       help="factor dims, e.g. 6 or 3,3")
    p_laa.add_argument("--trials", type=int, default=1000)
    p_laa.add_argument("--seed", type=int, default=7)
    p_laa.add_argument("--bits", action="store_true")
    p_laa.add_argument("--json", action="store_true")
    p_laa.set_defaults(handler=_cmd_laa_check)

    p_lemma2 = sub.add_parser("lemma2",
                              help="growth diagnostic for log-power spectra ln(k)^q")
    p_lemma2.add_argument("--q", type=float, required=True)
    p_lemma2.add_argument("--lambdas", type=_csv_floats, default=None)
    p_lemma2.add_argument("--truncation", type=int, default=DEFAULT_TRUNCATION)
    p_lemma2.add_argument("--json", action="store_true")
    p_lemma2.set_defaults(handler=_cmd_lemma2)

    p_dist = sub.add_parser("ensemble-dist", help="distance between labeled ensembles")
    p_dist.add_argument("--first", required=True, help="ensemble JSON file")
    p_dist.add_argument("--second", required=True, help="ensemble JSON file")
    p_dist.add_argument("--metric", choices=("d0", "dstar"), default="d0")
    p_dist.add_argument("--json", action="store_true")
    p_dist.set_defaults(handler=_cmd_ensemble_dist)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BoundViolationError as exc:
        print(f"bound violation: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
