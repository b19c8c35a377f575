"""Command-line front end.

Subcommands:

    gen      write a random private-state spec (JSON)
    build    assemble the full density matrix of a spec
    eta      maximize the product overlap for one key pair
    distill  run the filtering protocol for one key pair
    bound    distillation-rate report over all key pairs
    certify  entanglement-of-formation certificate (exit code 2 on failure)
    sweep    rate vs. a spec knob (shield rank or depolarizing noise), as CSV

Optimizer defaults can be overridden with PRIVDISTILL_SEED,
PRIVDISTILL_RESTARTS, PRIVDISTILL_MAX_ITERS, PRIVDISTILL_CONV_TOL and
PRIVDISTILL_SAMPLES; explicit flags win over the environment, which wins
over the library defaults. All reports are deterministic for a fixed seed.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .bounds import CERT_SAMPLES, CERT_TOL, BoundReport, ed_lower_bound, ef_certificate
from .bounds import pair_bounds
from .linalg import CONV_TOL, MAX_ITERS, RESTARTS
from .overlap import optimize_pair
from .private_states import (
    build_private_state,
    check_dense_dim,
    depolarized_spec,
    random_spec,
    tensor_power_spec,
)
from .serialize import (
    read_json,
    report_to_json,
    spec_from_json,
    spec_to_json,
    write_json,
    write_matrix,
    write_text,
)

ENV_PREFIX = "PRIVDISTILL_"
# (type, library default) of each flag that PRIVDISTILL_<NAME> can also set
SETTINGS = {"seed": (int, 0), "restarts": (int, RESTARTS), "max_iters": (int, MAX_ITERS),
            "conv_tol": (float, CONV_TOL), "samples": (int, CERT_SAMPLES)}


def _fill_settings(args: argparse.Namespace) -> None:
    """Fill each setting of the command that no flag gave from the
    environment, else from the library default; a malformed variable raises."""
    for name, (cast, default) in SETTINGS.items():
        if vars(args).get(name, default) is None:  # the command has it, no flag gave it
            raw = os.environ.get(var := ENV_PREFIX + name.upper())
            try:
                setattr(args, name, default if raw is None else cast(raw))
            except ValueError as exc:
                raise ValueError(f"bad value for {var}: {raw!r}") from exc


def _dims(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from exc
    if not dims:
        raise argparse.ArgumentTypeError("need at least one dimension")
    return dims


def _add_optimizer_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int)
    sub.add_argument("--restarts", type=int)
    sub.add_argument("--max-iters", type=int)
    sub.add_argument("--conv-tol", type=float)


def _optimizer_config(args: argparse.Namespace) -> dict:
    return {name: getattr(args, name) for name in ("seed", "restarts", "max_iters", "conv_tol")}


def _load_spec(path: str):
    return spec_from_json(read_json(path))


def cmd_gen(args: argparse.Namespace) -> int:
    spec = random_spec(
        args.d, args.parties, args.shield_dims, args.seed, shield_rank=args.shield_rank
    )
    write_json(spec_to_json(spec), args.out)
    return 0


def cmd_build(args: argparse.Namespace) -> int:
    spec = _load_spec(args.spec)
    if args.power != 1:
        # refuse before the power's generating data is made, not after
        check_dense_dim(spec.total_dim, args.power)
        spec, _ = tensor_power_spec(spec, args.power)
    rho = build_private_state(spec).rho
    write_matrix(rho.matrix, rho.layout, args.out)
    return 0


def _check_pair(args: argparse.Namespace) -> None:
    """Refuse a key pair not named i < j: `bound` lists (i, j) only that
    way, and the pair's seed depends on the order."""
    if args.i >= args.j:
        raise ValueError(f"key pair must be named with --i < --j, got --i {args.i} --j {args.j}")


def cmd_eta(args: argparse.Namespace) -> int:
    _check_pair(args)
    spec = _load_spec(args.spec)
    result = optimize_pair(spec, args.i, args.j, **_optimizer_config(args))
    report = {
        "config": _optimizer_config(args),
        "i": args.i,
        "j": args.j,
        "eta": result.eta,
        "theta": result.theta,
        "a1": result.a1,
        "a2": result.a2,
        "converged": result.converged,
        "sweeps": result.sweeps,
    }
    write_json(report, args.out)
    return 0


def cmd_distill(args: argparse.Namespace) -> int:
    """The pair's record, as `bound` reports it, and the settings."""
    _check_pair(args)
    spec = _load_spec(args.spec)
    result = optimize_pair(spec, args.i, args.j, **_optimizer_config(args))
    (bound,), (outcome,) = pair_bounds(spec, [(args.i, args.j)], [result])
    report = report_to_json(bound)
    report["config"] = _optimizer_config(args)
    write_json(report, args.out)
    if args.post_out:
        post = outcome.state
        write_matrix(post.matrix, post.layout, args.post_out)
    return 0


def cmd_bound(args: argparse.Namespace) -> int:
    spec = _load_spec(args.spec)
    obj = report_to_json(ed_lower_bound(spec, **_optimizer_config(args)))
    obj["config"] = _optimizer_config(args)
    write_json(obj, args.out)
    return 0


def cmd_certify(args: argparse.Namespace) -> int:
    spec = _load_spec(args.spec)
    cert = ef_certificate(spec, samples=args.samples, seed=args.seed, tol=args.tol)
    obj = report_to_json(cert)
    obj["config"] = {"seed": args.seed, "samples": args.samples, "tol": args.tol}
    write_json(obj, args.out)
    if not cert.passed:
        print("certificate FAILED; witness included in report", file=sys.stderr)
        return 2
    return 0


def _best_pair_row(report: BoundReport) -> tuple[float, float, float, float]:
    for pair in report.pairs:
        if report.best_pair == (pair.i, pair.j):
            return pair.eta, pair.p_pred, pair.paper_rate, pair.verified_rate
    return 0.0, 0.5, 0.0, 0.0  # no pair converged


def cmd_sweep(args: argparse.Namespace) -> int:
    base = random_spec(args.d, args.parties, args.shield_dims, args.seed)
    total = base.shield_total_dim
    lines = ["knob,eta,p,paper_rate,verified_rate\n"]
    for raw in args.values.split(","):
        if args.knob == "shield-rank":
            rank = int(raw)
            if not 1 <= rank <= total:
                raise ValueError(f"shield rank {rank} not in [1, {total}]")
            spec = random_spec(
                args.d, args.parties, args.shield_dims, args.seed, shield_rank=rank
            )
            label = str(rank)
        else:
            weight = float(raw)
            spec = depolarized_spec(base, weight)
            label = repr(weight)
        report = ed_lower_bound(spec, **_optimizer_config(args))
        eta, p, paper, verified = _best_pair_row(report)
        lines.append(f"{label},{eta!r},{p!r},{paper!r},{verified!r}\n")
    write_text("".join(lines), args.out)
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 1 with one line in `main`, not 2 with usage
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="privdistill",
        description="Private states, local-filtering distillation, and "
        "entanglement bound certificates.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("gen", help="generate a random private-state spec")
    gen.add_argument("--d", type=int, default=2, help="key dimension per party")
    gen.add_argument("--parties", type=int, default=2)
    gen.add_argument("--shield-dims", type=_dims, default=(2, 2),
                     help="comma-separated per-party shield dimensions")
    gen.add_argument("--seed", type=int)
    gen.add_argument("--shield-rank", type=int, default=None)
    gen.add_argument("--out", default=None)
    gen.set_defaults(func=cmd_gen)

    build = subs.add_parser("build", help="assemble the density matrix of a spec")
    build.add_argument("--spec", required=True)
    build.add_argument("--power", type=int, default=1,
                       help="build this tensor power of the state")
    build.add_argument("--out", default=None)
    build.set_defaults(func=cmd_build)

    eta = subs.add_parser("eta", help="maximize the product overlap of one key pair")
    eta.add_argument("--spec", required=True)
    eta.add_argument("--i", type=int, required=True)
    eta.add_argument("--j", type=int, required=True)
    _add_optimizer_flags(eta)
    eta.add_argument("--out", default=None)
    eta.set_defaults(func=cmd_eta)

    distill = subs.add_parser("distill", help="run the filtering protocol for one pair")
    distill.add_argument("--spec", required=True)
    distill.add_argument("--i", type=int, required=True)
    distill.add_argument("--j", type=int, required=True)
    _add_optimizer_flags(distill)
    distill.add_argument("--out", default=None)
    distill.add_argument("--post-out", default=None,
                         help="also write the post-filter state here")
    distill.set_defaults(func=cmd_distill)

    bound = subs.add_parser("bound", help="distillation-rate report over all key pairs")
    bound.add_argument("--spec", required=True)
    _add_optimizer_flags(bound)
    bound.add_argument("--out", default=None)
    bound.set_defaults(func=cmd_bound)

    certify = subs.add_parser("certify", help="entanglement-of-formation certificate")
    certify.add_argument("--spec", required=True)
    certify.add_argument("--samples", type=int)
    certify.add_argument("--seed", type=int)
    certify.add_argument("--tol", type=float, default=CERT_TOL)
    certify.add_argument("--out", default=None)
    certify.set_defaults(func=cmd_certify)

    sweep = subs.add_parser("sweep", help="rate vs. a generator knob, as CSV")
    sweep.add_argument("--d", type=int, default=2)
    sweep.add_argument("--parties", type=int, default=2)
    sweep.add_argument("--shield-dims", type=_dims, default=(2, 2))
    sweep.add_argument("--knob", choices=["shield-rank", "depolarize"], required=True)
    sweep.add_argument("--values", required=True,
                       help="comma-separated knob values, one CSV row each")
    _add_optimizer_flags(sweep)
    sweep.add_argument("--out", default=None)
    sweep.set_defaults(func=cmd_sweep)
    return parser


_parser = functools.cache(build_parser)  # no default depends on the environment


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        _fill_settings(args)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
