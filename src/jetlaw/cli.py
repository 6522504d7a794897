"""Command-line interface.

Exit codes: 0 when the requested checks pass, 1 when a check comes back
false (including non-conserved inputs), 2 for unusable input: parse
errors, frame mismatches, bad configuration, unsupported expression
classes.  JSON output mirrors the serialized documents, so a command's
output can be piped back into another command via --doc -.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .expr import ParseError, is_zero, parse
from .jets import LIGHTCONE, Frame
from .conservation import (
    Characteristic,
    Current,
    NotConservedError,
    characteristic,
    current_from_json,
    current_to_json,
    characteristic_from_json,
    characteristic_to_json,
    is_characteristic,
    is_trivial,
    normalize_current,
    trivial_witness,
    verify_current,
    witness_to_json,
)
from .config import Config, resolve

# transform, oracle and golden are imported by the commands that use them,
# so that the others start without loading them


class InputError(ValueError):
    """Bad command-line input; reported with exit code 2."""


def _add_common(sub: argparse.ArgumentParser):
    sub.add_argument("--config", help="key=value configuration file")
    sub.add_argument("--format", choices=("text", "json"), help="output format")
    sub.add_argument("--seed", type=int, help="seed for probabilistic zero tests")
    sub.add_argument("--samples", type=int, help="sample count for zero tests")
    sub.add_argument("--tolerance", type=float, help="numeric pass threshold")
    sub.add_argument("--ref-point", help="normalization base point, atom=value pairs")


def _add_current_args(sub: argparse.ArgumentParser):
    sub.add_argument("--frame", choices=("lightcone", "spacetime"), default="lightcone")
    sub.add_argument("--first", help="first current component")
    sub.add_argument("--second", help="second current component")
    sub.add_argument("--doc", help="JSON current document, path or - for stdin")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jetlaw",
        description="conservation-law calculus for the 1+1D wave equation",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("parse", help="parse and reprint in canonical form")
    p.add_argument("--expr", required=True)
    _add_common(p)

    for name, blurb in (
        ("verify", "check that the divergence vanishes on solutions"),
        ("normalize", "bring a light-cone current to canonical shape"),
        ("characteristic", "compute the conservation-law multiplier"),
        ("is-trivial", "decide equivalence to the zero current"),
        ("witness", "produce the triviality certificate"),
        ("pullback", "transform a current to the other frame"),
    ):
        p = subs.add_parser(name, help=blurb)
        _add_current_args(p)
        _add_common(p)

    p = subs.add_parser("is-characteristic", help="Euler-operator multiplier test")
    p.add_argument("--frame", choices=("lightcone", "spacetime"), default="lightcone")
    p.add_argument("--multiplier", help="multiplier expression")
    p.add_argument("--doc", help="JSON characteristic document, path or -")
    _add_common(p)

    p = subs.add_parser("numcheck", help="numeric contour-flux conservation check")
    _add_current_args(p)
    p.add_argument(
        "--solution",
        required=True,
        help="solution spec 'f;g', atoms poly:c0,c1,.. sin:a,b cos:a,b exp:a,b",
    )
    p.add_argument("--rect", default="0,0.75,-1.75,-0.75", help="t0,t1,x0,x1")
    p.add_argument("--nodes", type=int, default=128, help="Simpson panels per edge")
    _add_common(p)

    p = subs.add_parser("golden", help="run the twelve worked examples")
    _add_common(p)

    return parser


def _config_from(args) -> Config:
    return resolve(
        file_path=getattr(args, "config", None),
        seed=getattr(args, "seed", None),
        samples=getattr(args, "samples", None),
        tolerance=getattr(args, "tolerance", None),
        format=getattr(args, "format", None),
        ref_point=getattr(args, "ref_point", None),
    )


def _read_doc(spec: str) -> str:
    if spec == "-":
        return sys.stdin.read()
    try:
        with open(spec, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read document {spec}: {exc}") from exc


def _load_current(args) -> Current:
    if args.doc:
        try:
            return current_from_json(_read_doc(args.doc))
        except (KeyError, ValueError) as exc:
            raise InputError(f"bad current document: {exc}") from exc
    if args.first is None or args.second is None:
        raise InputError("give --first and --second, or --doc")
    frame = Frame.from_name(args.frame)
    components = []
    for label, text in (("first", args.first), ("second", args.second)):
        try:
            components.append(parse(text))
        except ParseError as exc:
            raise InputError(f"in --{label} {text!r}: {exc}") from exc
    return Current(frame, components[0], components[1])


def _pulled(current: Current, frame: Frame | None = None) -> Current:
    """The current in frame, by default in the frame it is not given in."""
    if current.frame is frame:
        return current
    from . import transform

    if current.frame is LIGHTCONE:
        return transform.current_to_spacetime(current)
    return transform.current_to_lightcone(current)


def _emit(config: Config, lines, doc) -> None:
    if config.format == "json":
        print(doc if isinstance(doc, str) else json.dumps(doc, allow_nan=False))
    else:
        for line in lines:
            print(line)


def _cmd_parse(args, config: Config) -> int:
    text = str(parse(args.expr))
    _emit(config, [text], {"kind": "expression", "text": text})
    return 0


def _cmd_verify(args, config: Config) -> int:
    current = _load_current(args)
    ok = verify_current(current, samples=config.samples, seed=config.seed)
    _emit(
        config,
        [f"conserved: {str(ok).lower()}"],
        {"kind": "verify", "frame": current.frame.name, "conserved": ok},
    )
    return 0 if ok else 1


def _cmd_normalize(args, config: Config) -> int:
    current = _pulled(_load_current(args), LIGHTCONE)
    canonical = normalize_current(
        current, config.reference_point, samples=config.samples, seed=config.seed
    )
    _emit(
        config,
        [f"first: {canonical.first}", f"second: {canonical.second}"],
        current_to_json(canonical),
    )
    return 0


def _cmd_characteristic(args, config: Config) -> int:
    lam = characteristic(_load_current(args), samples=config.samples, seed=config.seed)
    trivial = is_zero(lam.multiplier, samples=config.samples, seed=config.seed)
    text = str(lam.multiplier) + (" (trivial)" if trivial else "")
    doc = json.loads(characteristic_to_json(lam))
    doc["trivial"] = trivial
    _emit(config, [text], doc)
    return 0


def _cmd_is_trivial(args, config: Config) -> int:
    verdict = is_trivial(_load_current(args), samples=config.samples, seed=config.seed)
    _emit(
        config,
        [f"trivial: {str(verdict).lower()}"],
        {"kind": "triviality", "trivial": verdict},
    )
    return 0 if verdict else 1


def _cmd_witness(args, config: Config) -> int:
    current = _pulled(_load_current(args), LIGHTCONE)
    canonical = normalize_current(
        current, config.reference_point, samples=config.samples, seed=config.seed
    )
    if not is_trivial(canonical, samples=config.samples, seed=config.seed):
        _emit(
            config,
            ["not trivial: nonzero characteristic"],
            {"kind": "triviality", "trivial": False},
        )
        return 1
    witness = trivial_witness(canonical, samples=config.samples, seed=config.seed)
    _emit(
        config,
        [
            f"f-part: {witness.f_part}",
            f"g-part: {witness.g_part}",
            f"constant: {witness.constant}",
        ],
        witness_to_json(witness),
    )
    return 0


def _cmd_is_characteristic(args, config: Config) -> int:
    if args.doc:
        try:
            candidate = characteristic_from_json(_read_doc(args.doc))
        except (KeyError, ValueError) as exc:
            raise InputError(f"bad characteristic document: {exc}") from exc
    elif args.multiplier is None:
        raise InputError("give --multiplier or --doc")
    else:
        candidate = Characteristic(Frame.from_name(args.frame), parse(args.multiplier))
    ok = is_characteristic(candidate, samples=config.samples, seed=config.seed)
    _emit(
        config,
        [f"characteristic: {str(ok).lower()}"],
        {"kind": "verdict", "characteristic": ok},
    )
    return 0 if ok else 1


def _cmd_pullback(args, config: Config) -> int:
    moved = _pulled(_load_current(args))
    _emit(
        config,
        [f"frame: {moved.frame}", f"first: {moved.first}", f"second: {moved.second}"],
        current_to_json(moved),
    )
    return 0


def _cmd_numcheck(args, config: Config) -> int:
    from . import oracle

    current = _load_current(args)
    try:
        solution = oracle.parse_solution(args.solution)
    except oracle.SolutionFormatError as exc:
        raise InputError(str(exc)) from exc
    try:
        corners = tuple(float(v) for v in args.rect.split(","))
        if len(corners) != 4:
            raise ValueError("need four numbers")
        rect = oracle.Rectangle(*corners, panels=args.nodes)
    except ValueError as exc:
        raise InputError(f"bad rectangle: {exc}") from exc
    result = oracle.check_conservation(current, solution, rect)
    ok = result.residual < config.tolerance
    _emit(
        config,
        [
            f"residual: {result.residual:.3e}",
            f"coarse residual: {result.coarse_residual:.3e}",
            f"ratio: {result.ratio:.2f}",
            f"within tolerance: {str(ok).lower()}",
        ],
        {
            "kind": "fluxcheck",
            # residual, coarse_residual, ratio; JSON has no inf or nan
            **{k: v if math.isfinite(v) else None for k, v in zip(result._fields, result._values())},
            "pass": ok,
        },
    )
    return 0 if ok else 1


def _cmd_golden(args, config: Config) -> int:
    from .golden import GOLDEN_CASES

    results = []
    for case in GOLDEN_CASES:
        passed = bool(case.run())
        results.append((case.name, passed))
        if config.format != "json":
            mark = "ok  " if passed else "FAIL"
            print(f"{mark} {case.name}")
    good = sum(1 for _, passed in results if passed)
    _emit(
        config,
        [f"{good}/{len(results)} pass"],
        {
            "kind": "golden",
            "results": [{"name": n, "passed": p} for n, p in results],
            "passed": good,
            "total": len(results),
        },
    )
    return 0 if good == len(results) else 1


_COMMANDS = {
    "parse": _cmd_parse,
    "verify": _cmd_verify,
    "normalize": _cmd_normalize,
    "characteristic": _cmd_characteristic,
    "is-trivial": _cmd_is_trivial,
    "witness": _cmd_witness,
    "is-characteristic": _cmd_is_characteristic,
    "pullback": _cmd_pullback,
    "numcheck": _cmd_numcheck,
    "golden": _cmd_golden,
}


# a value may start with a minus sign, e.g. --second "-w[1,0]"; argparse
# only accepts those in --option=value form, so fuse the pairs
_PARSER = build_parser()
_VALUE_OPTIONS = frozenset(
    option
    for subparsers in _PARSER._actions
    if isinstance(subparsers, argparse._SubParsersAction)
    for sub in subparsers.choices.values()
    for action in sub._actions
    if action.nargs != 0
    for option in action.option_strings
)


def _fuse_dash_values(argv):
    fused = []
    skip = False
    for here, upcoming in zip(argv, list(argv[1:]) + [None]):
        if skip:
            skip = False
            continue
        if here in _VALUE_OPTIONS and upcoming is not None and upcoming.startswith("-"):
            fused.append(f"{here}={upcoming}")
            skip = True
        else:
            fused.append(here)
    return fused


def main(argv=None) -> int:
    args = _PARSER.parse_args(_fuse_dash_values(sys.argv[1:] if argv is None else argv))
    try:
        config = _config_from(args)
        return _COMMANDS[args.command](args, config)
    except NotConservedError as exc:
        print(f"not conserved: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # every input error of the package is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:  # the parser and the kernel recurse once per nesting level
        print("error: input too deep or too large to process", file=sys.stderr)
        return 2
    except OverflowError as exc:  # float evaluation in numcheck
        print(f"error: arithmetic overflow: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
