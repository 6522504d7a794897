"""oracle-flux: the numeric oracle on closed-form solutions, with almost no symbolic work.

One operation is one ``check_conservation`` call or one
``check_characteristic_numeric`` call.  Currents are the golden ones and
seeded canonical ones; solutions are golden-style profiles with seeded
parameters; rectangles are placed by the seed and never square.  Verdicts
follow acceptance criterion 09:

* a conserved current has residual < 1e-8, and either a coarse residual
  below 1e-12 or a fine/coarse ratio in [12, 20];
* the broken current (w[1,0], 0) has residual > 1e-3, and matches its exact
  flux 2 (f(x1+t1) - f(x0+t1) - f(x1+t0) + f(x0+t0)) computed here;
* the identity gap at the known characteristic is below 1e-8.
"""

from __future__ import annotations

import math
from fractions import Fraction

from jetlaw import (
    LIGHTCONE,
    CanonicalCurrent,
    Characteristic,
    Current,
    Rectangle,
    check_characteristic_numeric,
    check_conservation,
    parse,
    parse_solution,
)

from harness import Case, Workload
from pipeline import Draw, random_canonical

# monomial shapes kept at the golden currents' scale, so that the quadrature
# error of a conserved current stays under criterion 09's 1e-8
SMALL = {"terms": 2, "degree": 2, "coefficients": tuple(Fraction(c) for c in ("-1", "-1/2", "1/2", "1"))}

CAP_S = 10.0
PANELS = 128  # criterion 09's count for conserved currents
BROKEN_PANELS = (128, 32)  # criterion 09's counts for its counterexample, alternated

# golden currents with their characteristics, as text
GOLDEN = (
    ("-w[0,1]", "-w[1,0]", "-2"),
    ("eta*w[0,1]", "-xi*w[1,0]", "eta - xi"),
    ("-eta*w[0,1]", "-xi*w[1,0]", "-eta - xi"),
    ("w[0,1]^2", "-w[1,0]^2", "2*w[0,1] - 2*w[1,0]"),
    ("exp(2*w[0,2])", "0", "-4*w[0,3]*exp(2*w[0,2])"),
)
BROKEN = ("w[1,0]", "0")

# Each operation's role in one period of the mix.  Criterion 09 checks the
# flux of 5 golden currents on 3 solutions and of its counterexample on 2
# solutions at 2 panel counts: 15 "flux" and 4 "broken".  It makes no
# identity check; this benchmark adds one per golden current, 5 "numeric".
ROLES = (
    "flux", "flux", "numeric", "flux", "broken", "flux", "flux", "numeric",
    "flux", "flux", "broken", "flux", "numeric", "flux", "flux", "flux",
    "broken", "numeric", "flux", "flux", "flux", "numeric", "broken", "flux",
)
ITEMS = 5 * len(ROLES)


def random_profile(draw: Draw) -> tuple:
    """(spec text, f(s) as a float function) for one golden-style profile atom."""
    kind = draw.shape.choice(("sin", "cos", "poly", "exp"))
    if kind == "poly":
        coeffs = [draw.coefficient(("-1", "-1/2", "0", "1/2", "1")) for _ in range(draw.shape.randint(2, 3))]
        coeffs[-1] = coeffs[-1] or Fraction(1)
        spec = "poly:" + ",".join(str(c) for c in coeffs)
        return spec, lambda s, c=coeffs: sum(float(ck) * s**k for k, ck in enumerate(c))
    if kind == "exp":
        a, b = Fraction(1, 2), draw.coefficient(("-1/2", "0"))
    else:
        a, b = draw.coefficient(("1/2", "1")), draw.coefficient(("-1/2", "0", "1/2"))
    fn = {"sin": math.sin, "cos": math.cos, "exp": math.exp}[kind]
    return f"{kind}:{a},{b}", lambda s, fn=fn, a=float(a), b=float(b): fn(a * s + b)


def random_rectangle(draw: Draw, panels: int) -> Rectangle:
    t0 = draw.value.randint(-4, 4) / 8
    x0 = draw.value.randint(-16, 4) / 8
    dt, dx = draw.shape.choice(((0.75, 1.0), (0.5, 1.0), (0.75, 1.25), (1.0, 0.75)))
    return Rectangle(t0, t0 + dt, x0, x0 + dx, panels)


def broken_flux(f, rect: Rectangle) -> float:
    """Exact net flux of (w[1,0], 0): the double integral of 2 f''(x+t)."""
    return 2 * (f(rect.x1 + rect.t1) - f(rect.x0 + rect.t1) - f(rect.x1 + rect.t0) + f(rect.x0 + rect.t0))


def _canonical(draw: Draw):
    if draw.shape.random() < 0.5:
        first, second, lam = GOLDEN[draw.shape.randrange(len(GOLDEN))]
        return CanonicalCurrent(LIGHTCONE, parse(first), parse(second)), parse(lam)
    first, second, lam = random_canonical(draw, SMALL)
    return CanonicalCurrent(LIGHTCONE, first, second), lam


def make_item(draw: Draw, role: str, panels: int = PANELS) -> dict:
    f_spec, f = random_profile(draw)
    g_spec = random_profile(draw)[0] if draw.shape.random() < 0.8 else ""
    item = {"role": role, "solution_text": f"{f_spec};{g_spec}", "panels": panels}
    item["rect"] = random_rectangle(draw, panels)
    if role == "broken":
        item["current"] = Current(LIGHTCONE, parse(BROKEN[0]), parse(BROKEN[1]))
        item["exact"] = broken_flux(f, item["rect"])
        if abs(item["exact"]) < 1e-2:  # too close to conserved to tell apart; draw again
            return make_item(draw, role, panels)
    else:
        item["current"], item["lam"] = _canonical(draw)
        item["seed"] = draw.value.randrange(1 << 30)
    return item


def panels_of(index: int) -> int:
    """Panel count of item ``index``: PANELS, or the next of BROKEN_PANELS for a broken item."""
    k = index % len(ROLES)
    if ROLES[k] != "broken":
        return PANELS
    return BROKEN_PANELS[ROLES[:k].count("broken") % len(BROKEN_PANELS)]


def generate(seed: int, count: int = ITEMS) -> list:
    items = [make_item(Draw("oracle-flux", seed, i), ROLES[i % len(ROLES)], panels_of(i)) for i in range(count)]
    for it in items:
        it["solution"] = parse_solution(it["solution_text"])
    return items


def input_text(items) -> str:
    lines = []
    for it in items:
        r = it["rect"]
        lines.append(
            f"{it['role']}\t{it['current'].first}\t{it['current'].second}\t{it['solution_text']}"
            f"\t{r.t0},{r.t1},{r.x0},{r.x1},{r.panels}\n"
        )
    return "".join(lines)


def run(item: dict):
    if item["role"] == "numeric":
        lam = Characteristic(LIGHTCONE, item["lam"])
        return check_characteristic_numeric(lam, item["current"], item["solution"], seed=item["seed"])
    return check_conservation(item["current"], item["solution"], item["rect"])


def check(item: dict, result) -> "str | None":
    if item["role"] == "numeric":
        return None if result < 1e-8 else f"identity gap {result:.3e} at the known characteristic"
    if item["role"] == "broken":
        if not result.residual > 1e-3:
            return f"broken current passed with residual {result.residual:.3e}"
        if abs(result.residual - abs(item["exact"])) > 1e-6 * max(1.0, abs(item["exact"])):
            return f"flux {result.residual:.9g} != exact {abs(item['exact']):.9g}"
        return None
    small = result.residual < 1e-8
    decays = result.coarse_residual < 1e-12 or 12 <= result.ratio <= 20
    if small and decays:
        return None
    return f"conserved current: residual {result.residual:.3e}, ratio {result.ratio:.2f}"


def cases(seed: int) -> Workload:
    items = generate(seed)
    out = [
        Case(i, f"{it['role']}#{i}", (lambda it=it: run(it)), (lambda res, it=it: check(it, res)), CAP_S)
        for i, it in enumerate(items)
    ]
    params = {"items": len(items), "panels": PANELS, "broken_panels": list(BROKEN_PANELS), "role_period": list(ROLES), "cap_s": CAP_S}
    return Workload(out, params, window=len(ROLES))
