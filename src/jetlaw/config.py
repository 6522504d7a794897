"""Runtime configuration: defaults, config file, environment, CLI flags.

Precedence, lowest to highest: built-in defaults, `--config` key=value
file, JETLAW_* environment variables, explicit command-line flags.
"""

from __future__ import annotations

import os
from fractions import Fraction
from types import MappingProxyType

from .expr import Jet, ParseError, Sym, _Record, as_expr, parse


class ConfigError(ValueError):
    """A configuration source holds an unusable key or value."""


def parse_reference_point(text: str) -> dict:
    """Parse 'atom=value' pairs joined by commas at the top level into an
    {atom: Fraction} dict; an empty text gives the origin, {}.  The atoms
    are those normalization integrates from: xi and w[k,0] for k >= 0.

    Atom syntax matches the expression grammar (w[1,0]=2, xi=-1/2), so the
    jet brackets' own commas are honored by splitting on '=' first; a
    rational value holds no comma, so each one ends at the first comma
    after its '='.
    """
    text = text.strip()
    if not text:
        return {}
    pieces = text.split("=")
    if len(pieces) < 2:
        raise ConfigError(f"reference point needs atom=value pairs, got {text!r}")
    entries = []
    name = pieces[0]
    for middle in pieces[1:-1]:
        value, _, next_name = middle.partition(",")
        if not value or not next_name:
            raise ConfigError(f"malformed reference point near {middle!r}")
        entries.append((name.strip(), value.strip()))
        name = next_name
    entries.append((name.strip(), pieces[-1].strip()))

    values = {}
    for atom_text, value_text in entries:
        try:
            atom_expr = parse(atom_text)
        except ParseError as exc:
            raise ConfigError(f"bad reference atom {atom_text!r}: {exc}") from exc
        atoms = atom_expr.base_atoms()
        if len(atoms) != 1 or atom_expr != as_expr(next(iter(atoms))):
            raise ConfigError(f"reference atom {atom_text!r} is not a single atom")
        atom = next(iter(atoms))
        if atom != Sym("xi") and not (isinstance(atom, Jet) and atom.var == "w" and atom.j == 0):
            raise ConfigError(f"reference point fixes only xi and w[k,0], not {atom}")
        try:
            values[atom] = Fraction(value_text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"bad reference value {value_text!r}") from exc
    return values


def _positive_count(text: str) -> int:
    count = int(text)
    if count < 1:
        raise ValueError("sample count must be positive")
    return count


def _finite_tolerance(text: str) -> float:
    value = float(text)
    if not 0 < value < float("inf"):  # an infinite tolerance passes every check
        raise ValueError("tolerance must be positive and finite")
    return value


def _output_format(text: str) -> str:
    if text not in ("text", "json"):
        raise ValueError("format must be text or json")
    return text


# the one declaration of every setting: file key -> (Config field, default,
# reader of the text value, help).  The key is also the JETLAW_<KEY>
# variable and, dashed, the --<key> flag of the commands that read it.
SETTINGS = {
    "seed": ("seed", 42, int, "seed for probabilistic zero tests"),
    "samples": ("samples", 8, _positive_count, "sample count for zero tests"),
    "tolerance": ("tolerance", 1e-8, _finite_tolerance, "numeric pass threshold"),
    "format": ("format", "text", _output_format, "output format, text or json"),
    "ref_point": ("reference_point", MappingProxyType({}), parse_reference_point,
                  "normalization base point, atom=value pairs"),
}


class Config(_Record):
    """The resolved settings; reference_point maps atoms to Fractions.

    The constructor stores a read-only copy of the reference point, so no
    two configs share a mapping and none changes after it is made.
    """

    __slots__ = tuple(field for field, *_ in SETTINGS.values())
    _defaults = {field: default for field, default, *_ in SETTINGS.values()}

    def __post_init__(self):
        object.__setattr__(self, "reference_point", MappingProxyType(dict(self.reference_point)))

    def __reduce__(self):
        # a mappingproxy cannot be pickled or deep-copied; a dict can
        fields = dict(zip(self._fields, self._values()), reference_point=dict(self.reference_point))
        return Config, tuple(fields.values())


def _apply(config: Config, key: str, raw: str, origin: str) -> Config:
    if key not in SETTINGS:
        raise ConfigError(f"{origin}: unknown key {key!r}")
    field, _, read, _ = SETTINGS[key]
    try:
        value = read(raw)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{origin}: bad value for {key}: {exc}") from exc
    return config._replace(**{field: value})


def load_file(config: Config, path: str) -> Config:
    """Apply key=value lines; blank lines and #-comments are skipped."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep or key not in SETTINGS:
            raise ConfigError(f"{path}:{number}: expected <key>=<value> with key in {tuple(SETTINGS)}")
        config = _apply(config, key, value.strip(), f"{path}:{number}")
    return config


def load_env(config: Config, environ=None) -> Config:
    environ = os.environ if environ is None else environ
    for key in SETTINGS:
        name = "JETLAW_" + key.upper()
        if name in environ:
            config = _apply(config, key, environ[name], name)
    return config


def resolve(file_path: str | None = None, environ=None, **flags) -> Config:
    """Layer all sources; flags are passed as keyword overrides or None."""
    config = Config()
    if file_path:
        config = load_file(config, file_path)
    config = load_env(config, environ)
    for key, value in flags.items():
        if value is not None:
            config = _apply(config, key, str(value), "command line")
    return config
