"""Command-line interface.

Exit codes: 0 when the requested checks pass, 1 when a check comes back
false (including non-conserved inputs), 2 for unusable input: parse
errors, frame mismatches, bad configuration, unsupported expression
classes.  JSON output mirrors the serialized documents, so a command's
output can be piped back into another command via --doc -.

Each command is declared once, in ``build_parser``, with its handler and
only the options it reads: --config and --format everywhere, --samples
and --seed where a zero test runs, --ref-point where a current is
normalized and --tolerance on numcheck; any other flag exits 2.
Environment variables and config-file keys apply to every command.
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
from .config import KEYS, Config, resolve

# transform, oracle and golden are imported by the commands that use them,
# so that the others start without loading them


class InputError(ValueError):
    """Bad command-line input; reported with exit code 2."""


# the settings a command may be given, each on the commands that read it
_SETTINGS = {
    "--seed": {"type": int, "help": "seed for probabilistic zero tests"},
    "--samples": {"type": int, "help": "sample count for zero tests"},
    "--tolerance": {"type": float, "help": "numeric pass threshold"},
    "--ref-point": {"help": "normalization base point, atom=value pairs"},
}
_SAMPLED = ("--samples", "--seed")
# document kind -> (record, its reader, its inline fields)
_DOCUMENTS = {
    "current": (Current, current_from_json, ("first", "second")),
    "characteristic": (Characteristic, characteristic_from_json, ("multiplier",)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jetlaw",
        description="conservation-law calculus for the 1+1D wave equation",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, blurb, *settings, document=None):
        """A subcommand with its handler, the kind of document it reads
        (by --doc or inline) if any, and the settings it reads."""
        sub = subs.add_parser(name, help=blurb)
        sub.set_defaults(handler=handler, document=document)
        if document:
            sub.add_argument("--frame", choices=("lightcone", "spacetime"),
                             help="frame of inline input (default lightcone)")
            for field in _DOCUMENTS[document][2]:
                sub.add_argument(f"--{field}", help=f"{field} expression of the inline {document}")
            sub.add_argument("--doc", help=f"JSON {document} document, path or - for stdin")
        sub.add_argument("--config", help="key=value configuration file")
        sub.add_argument("--format", choices=("text", "json"), help="output format")
        for option in settings:
            sub.add_argument(option, **_SETTINGS[option])
        return sub

    p = command("parse", _cmd_parse, "parse and reprint in canonical form")
    p.add_argument("--expr", required=True)
    command("verify", _cmd_verify, "check that the divergence vanishes on solutions",
            *_SAMPLED, document="current")
    command("normalize", _cmd_normalize, "bring a light-cone current to canonical shape",
            *_SAMPLED, "--ref-point", document="current")
    command("characteristic", _cmd_characteristic, "compute the conservation-law multiplier",
            *_SAMPLED, document="current")
    command("is-trivial", _cmd_is_trivial, "decide equivalence to the zero current",
            *_SAMPLED, document="current")
    command("witness", _cmd_witness, "produce the triviality certificate",
            *_SAMPLED, "--ref-point", document="current")
    command("pullback", _cmd_pullback, "transform a current to the other frame", document="current")
    command("is-characteristic", _cmd_is_characteristic, "Euler-operator multiplier test",
            *_SAMPLED, document="characteristic")
    p = command("numcheck", _cmd_numcheck, "numeric contour-flux conservation check",
                "--tolerance", document="current")
    p.add_argument(
        "--solution",
        required=True,
        help="solution spec 'f;g', atoms poly:c0,c1,.. sin:a,b cos:a,b exp:a,b",
    )
    p.add_argument("--rect", default="0,0.75,-1.75,-0.75", help="t0,t1,x0,x1")
    p.add_argument("--nodes", type=int, default=128, help="Simpson panels per edge")
    command("golden", _cmd_golden, "run the twelve worked examples")
    return parser


def _config_from(args) -> Config:
    # a command without a setting's flag leaves it to the file, environment or default
    return resolve(file_path=args.config, **{key: getattr(args, key, None) for key in KEYS})


def _read_doc(spec: str) -> str:
    if spec == "-":
        return sys.stdin.read()
    try:
        with open(spec, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read document {spec}: {exc}") from exc


def _load(args):
    """The command's current or characteristic, given by --doc or inline
    by its fields and --frame; giving both is an error, not a choice."""
    kind = args.document
    record, from_json, fields = _DOCUMENTS[kind]
    inline = [f"--{name}" for name in (*fields, "frame") if getattr(args, name) is not None]
    if args.doc:
        if inline:
            raise InputError(f"--doc cannot be combined with {', '.join(inline)}")
        try:
            return from_json(_read_doc(args.doc))
        except (KeyError, ValueError) as exc:
            raise InputError(f"bad {kind} document: {exc}") from exc
    if any(getattr(args, name) is None for name in fields):
        given = " and ".join(f"--{name}" for name in fields)
        raise InputError(f"give {given}{',' if len(fields) > 1 else ''} or --doc")
    values = []
    for name in fields:
        text = getattr(args, name)
        try:
            values.append(parse(text))
        except ParseError as exc:
            raise InputError(f"in --{name} {text!r}: {exc}") from exc
    return record(Frame.from_name(args.frame or "lightcone"), *values)


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
    current = _load(args)
    ok = verify_current(current, samples=config.samples, seed=config.seed)
    _emit(
        config,
        [f"conserved: {str(ok).lower()}"],
        {"kind": "verify", "frame": current.frame.name, "conserved": ok},
    )
    return 0 if ok else 1


def _cmd_normalize(args, config: Config) -> int:
    current = _pulled(_load(args), LIGHTCONE)
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
    lam = characteristic(_load(args), samples=config.samples, seed=config.seed)
    trivial = is_zero(lam.multiplier, samples=config.samples, seed=config.seed)
    text = str(lam.multiplier) + (" (trivial)" if trivial else "")
    doc = json.loads(characteristic_to_json(lam))
    doc["trivial"] = trivial
    _emit(config, [text], doc)
    return 0


def _cmd_is_trivial(args, config: Config) -> int:
    verdict = is_trivial(_load(args), samples=config.samples, seed=config.seed)
    _emit(
        config,
        [f"trivial: {str(verdict).lower()}"],
        {"kind": "triviality", "trivial": verdict},
    )
    return 0 if verdict else 1


def _cmd_witness(args, config: Config) -> int:
    current = _pulled(_load(args), LIGHTCONE)
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
    ok = is_characteristic(_load(args), samples=config.samples, seed=config.seed)
    _emit(
        config,
        [f"characteristic: {str(ok).lower()}"],
        {"kind": "verdict", "characteristic": ok},
    )
    return 0 if ok else 1


def _cmd_pullback(args, config: Config) -> int:
    moved = _pulled(_load(args))
    _emit(
        config,
        [f"frame: {moved.frame}", f"first: {moved.first}", f"second: {moved.second}"],
        current_to_json(moved),
    )
    return 0


def _cmd_numcheck(args, config: Config) -> int:
    from . import oracle

    current = _load(args)
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


_PARSER = build_parser()


def _takes_value(token: str) -> bool:
    # every jetlaw option but --help takes a value
    return token.startswith("--") and "=" not in token and token not in ("--", "--help")


def _fuse_dash_values(argv):
    """A value may start with a minus sign, e.g. --second "-w[1,0]"; argparse
    only accepts those in --option=value form, so fuse the pairs."""
    fused = []
    for token in argv:
        if token.startswith("-") and fused and _takes_value(fused[-1]):
            fused[-1] += "=" + token
        else:
            fused.append(token)
    return fused


def main(argv=None) -> int:
    args = _PARSER.parse_args(_fuse_dash_values(sys.argv[1:] if argv is None else argv))
    try:
        config = _config_from(args)
        return args.handler(args, config)
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
