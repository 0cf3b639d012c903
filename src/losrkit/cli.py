"""Command-line front end.

Inputs are either names from the builtin catalog (``phi_plus``, ``ghz``,
``two_bell``, ``partial(theta)``, ``max_entangled(d)``, ``chiral``,
``pr_box``, ``tsirelson_box``) or paths to files in the text formats of the
states and boxes modules.  Output is plain text, one record per line;
``--long`` adds prose.  Exit codes: 0 success, 1 failed demo assertions,
2 malformed or unreadable input.  A state renormalized within
``states.NORM_REPAIR_LIMIT`` is answered without the library's warning.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import warnings
from dataclasses import fields

import numpy as np

from . import catalog, config
from .boxes import CHSH, Box, HardyScore, LocalModel, MerminGHZ, TiltedCHSH, load_box, local_membership
from .demos import DEMOS
from .monotones import optimize_yield
from .preorder import compare, factor_spectrum, verdict_to_text
from .selftest import closure_scan
from .states import Bipartition, PureState, load_state, schmidt_spectrum


class InputError(Exception):
    pass


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def _load_any(name: str):
    try:
        return catalog.resolve(name)
    except KeyError:
        pass
    if os.path.exists(name):
        try:
            return load_state(name)
        except ValueError as state_exc:
            try:
                return load_box(name)
            except ValueError as box_exc:
                raise InputError(
                    f"cannot parse {name}: as a state, {state_exc}; as a box, {box_exc}"
                ) from box_exc
    raise InputError(
        f"{name!r} is neither a catalog entry ({', '.join(catalog.names())}) nor a readable file"
    )


def _load_pure(name: str) -> PureState:
    return _load_as(name, PureState, "a pure state")


def _load_as(name: str, cls, what: str):
    obj = _load_any(name)
    if not isinstance(obj, cls):
        raise InputError(f"{name!r} is not {what}")
    return obj


_FUNCTIONALS = {"chsh": CHSH, "tilted": TiltedCHSH, "hardy": HardyScore, "mermin": MerminGHZ}


def _functional(name: str, alpha: float):
    cls = _FUNCTIONALS.get(name.strip().lower())
    if cls is None:
        raise InputError(f"unknown functional {name!r} (chsh, tilted, hardy, mermin)")
    return cls(alpha) if cls is TiltedCHSH else cls()


def cmd_schmidt(args) -> int:
    psi = _load_pure(args.state)
    beta = Bipartition.parse(args.bipartition, psi.n_parties)
    spec = schmidt_spectrum(psi, beta)
    lines = [" ".join(_fmt(v) for v in spec.values)]
    if args.long:
        lines.append(f"rank {spec.rank()} across {beta.label()}")
    print("\n".join(lines))
    return 0


def cmd_compare(args) -> int:
    psi = _load_pure(args.state1)
    phi = _load_pure(args.state2)
    if args.command == "multi-check" and not psi.n_parties == phi.n_parties >= 3:
        raise InputError("multi-check needs two states with the same n >= 3 parties")
    print(verdict_to_text(compare(psi, phi), long=args.long))
    return 0


def cmd_factor(args) -> int:
    psi = _load_pure(args.state1)
    phi = _load_pure(args.state2)
    if psi.n_parties != phi.n_parties:
        raise InputError("states must have the same number of parties")
    if args.bipartition is None:
        if psi.n_parties != 2:
            raise InputError("--bipartition is required for more than two parties")
        beta = Bipartition(frozenset({0}), 2)
    else:
        beta = Bipartition.parse(args.bipartition, psi.n_parties)
    res = factor_spectrum(schmidt_spectrum(psi, beta), schmidt_spectrum(phi, beta))
    if res.found:
        print("found " + " ".join(_fmt(v) for v in res.lambda_zeta.values))
        print(f"residual {_fmt(res.residual)}")
    else:
        print(f"not_found {res.reason.value}")
    if args.long and res.borderline:
        print("warning: decision within 10x of the matching tolerance")
    return 0


def cmd_box_local(args) -> int:
    box = _load_as(args.box, Box, "a box")
    result = local_membership(box)
    if isinstance(result, LocalModel):
        print(f"Local reconstruction_error {_fmt(result.reconstruction_error)}")
        if args.long:
            nz = np.flatnonzero(result.weights > 1e-12)
            print("weights: " + " ".join(f"{i}:{_fmt(result.weights[i])}" for i in nz))
    else:
        print(
            f"Nonlocal margin {_fmt(result.margin)} value {_fmt(result.value)} "
            f"local_bound {_fmt(result.local_bound)}"
        )
        if args.long:
            print("functional: " + " ".join(_fmt(v) for v in result.functional))
    if args.long:
        print(f"lp rounds {result.rounds} columns {result.columns}")
    return 0


def cmd_box_eval(args) -> int:
    box = _load_as(args.box, Box, "a box")
    f = _functional(args.functional, args.alpha)
    value = f.evaluate(box)
    print(_fmt(value))
    if args.long and isinstance(f, HardyScore):
        print(f"max zero-constraint violation {_fmt(f.constraint_violation(box))}")
    return 0


def cmd_yield(args) -> int:
    psi = _load_pure(args.state)
    f = _functional(args.functional, args.alpha)
    result = optimize_yield(psi, f, restarts=args.restarts, seed=args.seed)
    print(result.to_text())
    return 0


def cmd_selftest_scan(args) -> int:
    f = _functional(args.functional, args.alpha)
    target_state = _load_pure(args.target_state)
    candidates = [_load_pure(name) for name in args.candidates]
    report = closure_scan(
        f,
        args.target_value,
        target_state,
        candidates,
        tol=args.tol,
        restarts=args.restarts,
        seed=args.seed,
    )
    print(report.to_text())
    return 0


def cmd_demo(args) -> int:
    lines, ok = DEMOS[args.name](seed=args.seed)
    for line in lines:
        print(line)
    print("demo result: " + ("pass" if ok else "fail"))
    return 0 if ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    Every caller shares the one parser, so it must not be mutated.  Parsing
    leaves no state in it: each call returns a fresh namespace.
    """
    parser = argparse.ArgumentParser(
        prog="losrkit",
        description="LOSR-entanglement convertibility, box classification, and yield monotones.",
    )
    parser.add_argument("--eps-norm", type=float, default=None, help="normalization tolerance, in (0, 1)")
    parser.add_argument("--tau-rank", type=float, default=None, help="Schmidt rank cutoff, in (0, 1)")
    parser.add_argument("--eps-match", type=float, default=None, help="spectrum matching tolerance, in (0, 1)")
    parser.add_argument("--seed", type=int, default=0, help="seed for all randomized procedures")
    parser.add_argument("--restarts", type=int, default=32, help="see-saw restarts of a linear yield")
    parser.add_argument("--long", action="store_true", help="append prose to the records")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("schmidt", help="print a Schmidt spectrum")
    p.add_argument("state")
    p.add_argument("bipartition", help="label like A|B or A|BC")
    p.set_defaults(func=cmd_schmidt)

    p = sub.add_parser("compare", help="decide convertibility between two states")
    p.add_argument("state1")
    p.add_argument("state2")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("factor", help="factor one spectrum over another")
    p.add_argument("state1")
    p.add_argument("state2")
    p.add_argument("--bipartition", default=None)
    p.set_defaults(func=cmd_factor)

    p = sub.add_parser("multi-check", help="multipartite necessary-condition check")
    p.add_argument("state1")
    p.add_argument("state2")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("box-local", help="local-polytope membership with certificate")
    p.add_argument("box")
    p.set_defaults(func=cmd_box_local)

    p = sub.add_parser("box-eval", help="evaluate a Bell functional on a box")
    p.add_argument("box")
    p.add_argument("functional")
    p.add_argument("--alpha", type=float, default=0.5, help="tilt for the tilted functional")
    p.set_defaults(func=cmd_box_eval)

    p = sub.add_parser("yield", help="optimize a Bell functional over measurements")
    p.add_argument("state")
    p.add_argument("functional")
    p.add_argument("--alpha", type=float, default=0.5)
    p.set_defaults(func=cmd_yield)

    p = sub.add_parser("selftest-scan", help="closure scan over a candidate set")
    p.add_argument("functional")
    p.add_argument("target_value", type=float)
    p.add_argument("target_state")
    p.add_argument("candidates", nargs="+")
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(func=cmd_selftest_scan)

    p = sub.add_parser("demo", help="run a built-in demonstration")
    p.add_argument("name", choices=DEMOS)
    p.set_defaults(func=cmd_demo)

    return parser


def _as_value(arg: str) -> str:
    """argparse takes a negative number such as ``-1e3`` or ``-inf`` for an
    unknown option (only ``-5`` and ``-.5`` forms pass); a leading space makes
    it a value, and ``float`` ignores the space."""
    try:
        float(arg)
    except ValueError:
        return arg
    return " " + arg if arg.startswith("-") else arg


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args([_as_value(a) for a in argv])
    # The tolerance flags that were given hold for this call only.
    names = {f.name for f in fields(config.Tolerances)}
    flags = {k: v for k, v in vars(args).items() if k in names and v is not None}
    try:
        with config.override(**flags), warnings.catch_warnings():
            # A state within NORM_REPAIR_LIMIT of unit norm is answered as its
            # renormalized self; the library's warning would come before the record.
            warnings.filterwarnings("ignore", "renormalizing state", UserWarning)
            return args.func(args)
    except (InputError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
