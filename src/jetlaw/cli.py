"""Command-line interface.

Exit codes: 0 when the requested checks pass, 1 when a check comes back
false (including non-conserved inputs) or stdout cannot be written, 2 for
unusable input: parse errors, frame mismatches, bad configuration,
unsupported expression classes.  With --format json a command prints one
JSON document; this module alone reads and writes them (``_DOCUMENTS``),
so a current or characteristic can be piped back in via --doc -.

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
import os
import sys

from .expr import ParseError, is_zero, parse
from .jets import LIGHTCONE, Frame
from .conservation import (
    Characteristic,
    Current,
    NotConservedError,
    characteristic,
    is_characteristic,
    is_trivial,
    normalize_current,
    trivial_witness,
    verify_current,
)
from .config import SETTINGS, Config, resolve

# transform, oracle and golden are imported by the commands that use them,
# so that the others start without loading them


class InputError(ValueError):
    """Bad command-line input; reported with exit code 2."""


_SAMPLED = ("samples", "seed")
# document kind -> (record, its expression fields); a document also names
# its kind and frame, and the fields are the record's inline flags too
_DOCUMENTS = {
    "current": (Current, ("first", "second")),
    "characteristic": (Characteristic, ("multiplier",)),
}


class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None):
        # argparse's own drops an OSError, which would make help that was
        # never written exit 0; main reports it as for any other output
        (file or sys.stdout).write(self.format_help())


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="jetlaw",
        description="conservation-law calculus for the 1+1D wave equation",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, blurb, *settings, document=None):
        """A subcommand with its handler, the kind of document it reads
        (by --doc or inline) if any, and the keys of the settings it reads
        besides format, whose flags pass their text to the settings' readers."""
        sub = subs.add_parser(name, help=blurb)
        sub.set_defaults(handler=handler, document=document)
        if document:
            sub.add_argument("--frame", choices=("lightcone", "spacetime"),
                             help="frame of inline input (default lightcone)")
            for field in _DOCUMENTS[document][1]:
                sub.add_argument(f"--{field}", help=f"{field} expression of the inline {document}")
            sub.add_argument("--doc", help=f"JSON {document} document, path or - for stdin")
        sub.add_argument("--config", help="key=value configuration file")
        for key in ("format", *settings):
            sub.add_argument("--" + key.replace("_", "-"), help=SETTINGS[key][3])
        return sub

    p = command("parse", _cmd_parse, "parse and reprint in canonical form")
    p.add_argument("--expr", required=True)
    command("verify", _cmd_verify, "check that the divergence vanishes on solutions",
            *_SAMPLED, document="current")
    command("normalize", _cmd_normalize, "bring a light-cone current to canonical shape",
            *_SAMPLED, "ref_point", document="current")
    command("characteristic", _cmd_characteristic, "compute the conservation-law multiplier",
            *_SAMPLED, document="current")
    command("is-trivial", _cmd_is_trivial, "decide equivalence to the zero current",
            *_SAMPLED, document="current")
    command("witness", _cmd_witness, "produce the triviality certificate",
            *_SAMPLED, "ref_point", document="current")
    command("pullback", _cmd_pullback, "transform a current to the other frame", document="current")
    command("is-characteristic", _cmd_is_characteristic, "Euler-operator multiplier test",
            *_SAMPLED, document="characteristic")
    p = command("numcheck", _cmd_numcheck, "numeric contour-flux conservation check",
                "tolerance", document="current")
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
    return resolve(file_path=args.config, **{key: getattr(args, key, None) for key in SETTINGS})


def _read_doc(spec: str) -> str:
    try:  # every OSError that reaches main is then one of stdout
        if spec == "-":
            return sys.stdin.read()
        with open(spec, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read document {spec}: {exc}") from exc


def _from_document(kind: str, text: str):
    """The record in text, a JSON document of kind.

    A missing field raises KeyError, any other wrong shape ValueError, as
    does a "kind" that names another document (a missing one is accepted).
    """
    record, fields = _DOCUMENTS[kind]
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError(f"expected a JSON object, found {type(doc).__name__}")
    if doc.get("kind", kind) != kind:
        raise ValueError(f"expected a {kind!r} document, not {doc['kind']!r}")
    for name in ("frame", *fields):
        if not isinstance(doc[name], str):
            raise ValueError(f"field {name!r} must be a string, not {type(doc[name]).__name__}")
    return record(Frame.from_name(doc["frame"]), *(parse(doc[name]) for name in fields))


def _to_document(kind: str, record) -> dict:
    """The JSON document of a record of kind, as _from_document reads it."""
    fields = _DOCUMENTS[kind][1]
    return {"kind": kind, "frame": record.frame.name,
            **{name: str(getattr(record, name)) for name in fields}}


def _load(args):
    """The command's current or characteristic, given by --doc or inline
    by its fields and --frame; giving both is an error, not a choice."""
    kind = args.document
    record, fields = _DOCUMENTS[kind]
    inline = [f"--{name}" for name in (*fields, "frame") if getattr(args, name) is not None]
    if args.doc:
        if inline:
            raise InputError(f"--doc cannot be combined with {', '.join(inline)}")
        text = _read_doc(args.doc)  # a file that cannot be read is no bad document
        try:
            return _from_document(kind, text)
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
        print(json.dumps(doc, allow_nan=False))
    else:
        for line in lines:
            print(line)


def _verdict(config: Config, key: str, ok: bool, doc: dict) -> int:
    """Print a yes-or-no answer as "<key>: true|false", or as doc with the
    answer under key; the exit code is 0 for yes and 1 for no."""
    _emit(config, [f"{key}: {str(ok).lower()}"], {**doc, key: ok})
    return 0 if ok else 1


def _canonical(args, config: Config) -> Current:
    """The command's current, pulled to the light-cone frame and normalized."""
    return normalize_current(_pulled(_load(args), LIGHTCONE), config.reference_point,
                             samples=config.samples, seed=config.seed)


def _cmd_parse(args, config: Config) -> int:
    text = str(parse(args.expr))
    _emit(config, [text], {"kind": "expression", "text": text})
    return 0


def _cmd_verify(args, config: Config) -> int:
    current = _load(args)
    ok = verify_current(current, samples=config.samples, seed=config.seed)
    return _verdict(config, "conserved", ok, {"kind": "verify", "frame": current.frame.name})


def _cmd_normalize(args, config: Config) -> int:
    canonical = _canonical(args, config)
    _emit(
        config,
        [f"first: {canonical.first}", f"second: {canonical.second}"],
        _to_document("current", canonical),
    )
    return 0


def _cmd_characteristic(args, config: Config) -> int:
    lam = characteristic(_load(args), samples=config.samples, seed=config.seed)
    trivial = is_zero(lam.multiplier, samples=config.samples, seed=config.seed)
    text = str(lam.multiplier) + (" (trivial)" if trivial else "")
    _emit(config, [text], {**_to_document("characteristic", lam), "trivial": trivial})
    return 0


def _cmd_is_trivial(args, config: Config) -> int:
    trivial = is_trivial(_load(args), samples=config.samples, seed=config.seed)
    return _verdict(config, "trivial", trivial, {"kind": "triviality"})


def _cmd_witness(args, config: Config) -> int:
    canonical = _canonical(args, config)
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
        {"kind": "witness", "frame": "lightcone", "f_part": str(witness.f_part),
         "g_part": str(witness.g_part), "constant": str(witness.constant)},
    )
    return 0


def _cmd_is_characteristic(args, config: Config) -> int:
    ok = is_characteristic(_load(args), samples=config.samples, seed=config.seed)
    return _verdict(config, "characteristic", ok, {"kind": "verdict"})


def _cmd_pullback(args, config: Config) -> int:
    moved = _pulled(_load(args))
    _emit(
        config,
        [f"frame: {moved.frame}", f"first: {moved.first}", f"second: {moved.second}"],
        _to_document("current", moved),
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
    try:
        try:
            argv = sys.argv[1:] if argv is None else argv
            args = build_parser().parse_args(_fuse_dash_values(argv))
            return args.handler(args, _config_from(args))
        finally:
            sys.stdout.flush()  # so that a closed or full stdout fails here, not at exit
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
    except OSError as exc:  # stdout is closed or full: the Python docs' note on SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # for the flush at exit
        if not isinstance(exc, BrokenPipeError):  # a reader that stopped reading is no error
            print(f"error: cannot write output: {exc.strerror or exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
