"""cli-session: a fixed script of ``python -m jetlaw.cli`` processes, timed start to exit.

The script covers all ten subcommands in text and JSON form, JSON documents
piped from one command into the next through ``--doc -``, and inputs that
must exit 1 (not conserved, false verdicts) or 2 (unparsable input).  The
seed only picks the constants inside the expressions; every expected line
is built here from those constants.  Stdout, stderr and exit codes are
checked.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import subprocess
import sys
from fractions import Fraction

from jetlaw import Jet, as_expr

from harness import ROOT, Case, Workload, child_env, measure

CAP_S = 30.0
SETUP_CODE = "import jetlaw.cli; jetlaw.cli.build_parser()"

# Runs jetlaw.cli as ``-m`` does, then appends the process's own peak RSS to
# stderr.  VmHWM belongs to the address space that exec made.  ru_maxrss
# does not: it starts from the peak of the process that spawned the child.
PEAK_MARK = "perfbench-VmHWM-kB"
REPORT_PEAK = f"""
import atexit, runpy, sys
def report():
    with open("/proc/self/status") as fh:
        kb = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    sys.stderr.write("\\n{PEAK_MARK} " + kb + "\\n")
atexit.register(report)
runpy.run_module("jetlaw.cli", run_name="__main__", alter_sys=True)
"""


def _w(i, j):
    return as_expr(Jet("w", i, j))


def _u(i, j):
    return as_expr(Jet("u", i, j))


def script(seed: int) -> list:
    """(label, argv, piped, expected exit code, expected stdout or None, stderr prefix or None)."""
    rng = random.Random(f"cli-session/{seed}")
    c = rng.randint(2, 9)
    energy = [f"--first={c}*w[0,1]^2", f"--second=-{c}*w[1,0]^2"]
    square = str(_w(0, 1) ** 2 + 2 * c * _w(0, 1) + c * c)
    lam = str(2 * c * _w(0, 1) - 2 * c * _w(1, 0))
    f_canon, g_canon = str(c * _w(0, 1) ** 2), str(-c * _w(1, 0) ** 2)
    t_first, t_second = str(Fraction(c, 2) * _u(1, 0) ** 2 + Fraction(c, 2) * _u(0, 1) ** 2), str(-c * _u(1, 0) * _u(0, 1))
    current_doc = {"kind": "current", "frame": "lightcone", "first": f_canon, "second": g_canon}
    spacetime_doc = {"kind": "current", "frame": "spacetime", "first": t_first, "second": t_second}
    char_doc = {"kind": "characteristic", "frame": "lightcone", "multiplier": lam, "trivial": False}
    golden_names = [
        "momentum pipeline", "center-of-mass pipeline", "angular-momentum pipeline", "energy pipeline",
        "exotic characteristic", "exotic space-time form", "light-cone Lagrangian", "space-time Lagrangian",
        "triviality certificates", "scaling is not variational", "numeric flux, energy", "numeric flux counterexample",
    ]
    dressed = [f"--first={c}*w[0,1]^2 + w[1,1]", f"--second=-{c}*w[1,0]^2 + w[2,1]"]
    witness = [f"--first=2*w[0,1]*w[0,2] + {c}*w[0,1]", f"--second=-{c}*w[1,0]"]
    trivial = [f"--first={c}*w[0,1]", f"--second=-{c}*w[1,0]"]
    numcheck = ["numcheck", *energy, "--solution=sin:1,0;poly:0,0,1"]
    js = ["--format", "json"]

    def doc(d):
        return json.dumps(d) + "\n"

    return [
        ("parse", ["parse", f"--expr=(w[0,1] + {c})^2"], False, 0, f"{square}\n", None),
        ("parse-json", ["parse", f"--expr=(w[0,1] + {c})^2", *js], False, 0,
         doc({"kind": "expression", "text": square}), None),
        ("verify", ["verify", *energy], False, 0, "conserved: true\n", None),
        ("verify-json", ["verify", *energy, *js], False, 0,
         doc({"kind": "verify", "frame": "lightcone", "conserved": True}), None),
        ("normalize", ["normalize", *dressed], False, 0, f"first: {f_canon}\nsecond: {g_canon}\n", None),
        ("normalize-json", ["normalize", *dressed, *js], False, 0, doc(current_doc), None),
        ("characteristic-pipe", ["characteristic", "--doc", "-", *js], True, 0, doc(char_doc), None),
        ("is-characteristic-pipe", ["is-characteristic", "--doc", "-"], True, 0, "characteristic: true\n", None),
        ("characteristic", ["characteristic", *energy], False, 0, f"{lam}\n", None),
        ("is-trivial", ["is-trivial", *trivial], False, 0, "trivial: true\n", None),
        ("is-trivial-json", ["is-trivial", *trivial, *js], False, 0,
         doc({"kind": "triviality", "trivial": True}), None),
        ("witness", ["witness", *witness], False, 0, f"f-part: w[0,1]^2\ng-part: 0\nconstant: {c}\n", None),
        ("witness-json", ["witness", *witness, *js], False, 0,
         doc({"kind": "witness", "frame": "lightcone", "f_part": "w[0,1]^2", "g_part": "0", "constant": str(c)}), None),
        ("is-characteristic", ["is-characteristic", f"--multiplier={c}*w[0,1]"], False, 0, "characteristic: true\n", None),
        ("is-characteristic-json", ["is-characteristic", f"--multiplier={c}*w[0,1]", *js], False, 0,
         doc({"kind": "verdict", "characteristic": True}), None),
        ("pullback", ["pullback", *energy], False, 0, f"frame: spacetime\nfirst: {t_first}\nsecond: {t_second}\n", None),
        ("pullback-json", ["pullback", *energy, *js], False, 0, doc(spacetime_doc), None),
        ("pullback-pipe", ["pullback", "--doc", "-"], True, 0, f"frame: lightcone\nfirst: {f_canon}\nsecond: {g_canon}\n", None),
        ("numcheck", numcheck, False, 0, None, None),
        ("numcheck-json", [*numcheck, *js], False, 0, None, None),
        ("golden", ["golden"], False, 0, "".join(f"ok   {n}\n" for n in golden_names) + "12/12 pass\n", None),
        ("golden-json", ["golden", *js], False, 0,
         doc({"kind": "golden", "results": [{"name": n, "passed": True} for n in golden_names], "passed": 12, "total": 12}),
         None),
        ("characteristic-json", ["characteristic", *energy, *js], False, 0, doc(char_doc), None),
        ("verify-broken", ["verify", f"--first={c}*w[1,0]", "--second=0"], False, 1, "conserved: false\n", None),
        ("characteristic-broken", ["characteristic", "--first=w[1,0]", "--second=0"], False, 1, "", "not conserved:"),
        ("is-characteristic-false", ["is-characteristic", "--multiplier=w[0,0]"], False, 1, "characteristic: false\n", None),
        ("parse-error", ["parse", "--expr=w[0,1"], False, 2, "", "error:"),
        ("verify-parse-error", ["verify", "--first=w[0,1]^", "--second=0"], False, 2, "", "error:"),
        ("numcheck-bad-solution", ["numcheck", *energy, "--solution=tan:1,0;"], False, 2, "", "error:"),
    ]


def _check_numcheck(stdout: str, as_json: bool) -> "str | None":
    if as_json:
        doc = json.loads(stdout)
        ok = doc.get("kind") == "fluxcheck" and doc.get("pass") is True and doc["residual"] < 1e-8
    else:
        ok = stdout.endswith("within tolerance: true\n") and stdout.startswith("residual: ")
    return None if ok else "flux check did not pass"


def checker(label, code, stdout, stderr_prefix):
    def check(result) -> "str | None":
        got_code, got_out, got_err = result
        if got_code != code:
            return f"exit {got_code}, expected {code}: {got_err.strip()[:200]}"
        if stderr_prefix is not None and not got_err.startswith(stderr_prefix):
            return f"stderr {got_err[:80]!r} lacks {stderr_prefix!r}"
        if label.startswith("numcheck") and code == 0:
            return _check_numcheck(got_out, label.endswith("json"))
        if stdout is not None and got_out != stdout:
            return f"stdout {got_out[:120]!r} != {stdout[:120]!r}"
        return None

    return check


def subprocess_runner(env: dict, peaks: "list | None" = None):
    """Runs each command as ``python -m jetlaw.cli``.

    With ``peaks``, runs it through REPORT_PEAK instead and appends each
    process's peak RSS in kB to ``peaks``.
    """
    prefix = [sys.executable, "-m", "jetlaw.cli"] if peaks is None else [sys.executable, "-c", REPORT_PEAK]

    def run(argv, stdin):
        done = subprocess.run(
            [*prefix, *argv], input=stdin, capture_output=True, text=True, env=env, cwd=ROOT, timeout=CAP_S,
        )
        err = done.stderr
        if peaks is not None:
            err, _, kb = err.rpartition(f"\n{PEAK_MARK} ")
            peaks.append(int(kb))
        return done.returncode, done.stdout, err

    return run


def in_process_runner():
    from jetlaw import cli

    def run(argv, stdin):
        out, err = io.StringIO(), io.StringIO()
        saved = sys.stdin
        sys.stdin = io.StringIO(stdin or "")
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(argv))
        finally:
            sys.stdin = saved
        return code, out.getvalue(), err.getvalue()

    return run


def peak_rss(seed: int) -> tuple:
    """(MB of the largest peak RSS of any CLI process, Measurement) from one untimed pass."""
    peaks = []
    workload = cases(seed, subprocess_runner(child_env(), peaks))
    m = measure(workload.cases, 0.0, stride=len(workload.cases), min_ops=0)
    return max(peaks, default=0) / 1024.0, m


def cases(seed: int, runner=None) -> Workload:
    """Cases in script order; a piped case reads what the case before it printed.

    By default each case is one CLI process; ``in_process_runner()`` runs
    ``main()`` in this process instead.
    """
    runner = runner or subprocess_runner(child_env())
    last = {"stdout": ""}

    def make_run(argv, piped):
        def run():
            code, out, err = runner(argv, last["stdout"] if piped else None)
            last["stdout"] = out
            return code, out, err

        return run

    steps = script(seed)
    out = [
        Case(k, label, make_run(argv, piped), checker(label, code, stdout, err), CAP_S + 5)
        for k, (label, argv, piped, code, stdout, err) in enumerate(steps)
    ]
    params = {"commands": len(steps), "piped": sum(1 for s in steps if s[2]), "cap_s": CAP_S}
    return Workload(
        out, params, window=len(out), setup_code=SETUP_CODE,
        peak_rss=lambda: peak_rss(seed), in_process=lambda: cases(seed, in_process_runner()),
    )


def input_text(seed: int) -> str:
    return "".join(" ".join(argv) + "\n" for _, argv, *_ in script(seed))
