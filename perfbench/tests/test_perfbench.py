"""Tests of the benchmark's own code: inputs, correctness checkers, span arithmetic.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import os
import time
from fractions import Fraction

import pytest

import clisession
import flux
import pipeline
import run
import sweep
from harness import Case, Measurement, measure
from jetlaw import Jet, Sym, as_expr, diff_partial, parse
from jetlaw.oracle import FluxResult
from spans import Tracer, self_times

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


# -- inputs ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "text_of",
    [
        lambda seed: pipeline.input_text(pipeline.generate(seed, 60)),
        sweep.input_text,
        lambda seed: flux.input_text(flux.generate(seed, 40)),
        clisession.input_text,
    ],
    ids=["pipeline-batch", "term-sweep", "oracle-flux", "cli-session"],
)
def test_same_seed_gives_byte_identical_inputs(text_of):
    first, again, other = text_of(7), text_of(7), text_of(8)
    assert first.encode() == again.encode()
    assert first != other


def test_term_count_depends_only_on_n():
    counts = [sweep.cases(seed).params["terms"] for seed in (1, 2, 3)]
    assert counts[0] == counts[1] == counts[2] == {"n=3": 35, "n=4": 70, "n=5": 126, "n=6": 210, "n=7": 330}


def test_pipeline_mix_keeps_the_criteria_proportions():
    # criteria 04-06: 200 canonical, 100 dressed, 50 trivial currents
    k = {kind: pipeline.KINDS.count(kind) for kind in set(pipeline.KINDS)}
    canonical, dressed = k["canonical"] + k["exp"], k["dressed"] + k["exp-dressed"]
    assert canonical == 2 * dressed == 4 * k["trivial"]
    assert k["sincos"] == k["broken"] == k["trivial"] // 2
    assert pipeline.ITEMS % len(pipeline.KINDS) == 0


def test_flux_mix_keeps_criterion_09_counts():
    k = {role: flux.ROLES.count(role) for role in set(flux.ROLES)}
    assert k == {"flux": 5 * 3, "broken": 2 * 2, "numeric": 5}
    panels = [flux.panels_of(i) for i, role in enumerate(flux.ROLES) if role == "broken"]
    assert sorted(panels) == [32, 32, 128, 128]
    assert {flux.panels_of(i) for i, role in enumerate(flux.ROLES) if role != "broken"} == {128}


# -- correctness checkers reject wrong answers -------------------------------------


def _bump_one_coefficient(e):
    """e with the coefficient of its first term changed by one."""
    mono, _ = e.terms[0]
    return e + as_expr(Fraction(1)) * _monomial(mono)


def _monomial(mono):
    out = as_expr(1)
    for atom, power in mono:
        out = out * as_expr(atom) ** power
    return out


def _sweep_case(label):
    return next(c for c in sweep.cases(3).cases if c.label == label)


@pytest.mark.parametrize(
    "label",
    ["parse@n=3", "mul@n=3", "diff_partial@n=4", "substitute@n=3", "reduce_to_solutions@n=3",
     "total_derivative@n=3", "restricted_derivative@n=3", "substitute_to_spacetime@n=3"],
)
def test_sweep_closed_forms_accept_the_answer_and_reject_a_changed_coefficient(label):
    case = _sweep_case(label)
    got = case.run()
    assert case.check(got) is None
    assert case.check(_bump_one_coefficient(got)) is not None


def test_sweep_euler_check_rejects_a_nonzero_residue():
    case = _sweep_case("euler_operator@n=3")
    assert case.check(case.run()) is None
    assert case.check(parse("w[1,1]")) is not None


def test_hand_characteristic_matches_a_known_law():
    # energy: F = w[0,1]^2, G = -w[1,0]^2 has lambda = 2 w[0,1] - 2 w[1,0]
    lam = pipeline.monomial_characteristic(1, 0, 2, 0, 1) + pipeline.monomial_characteristic(-1, 0, 2, 0, 0)
    assert lam == parse("2*w[0,1] - 2*w[1,0]")
    # exotic: F = exp(2 w[0,2]) has lambda = -4 w[0,3] exp(2 w[0,2])
    _, exotic = pipeline.exp_piece(1, 0, 2, 1)
    assert exotic == parse("-4*w[0,3]*exp(2*w[0,2])")


def _pipeline_item(kind):
    items = pipeline.generate(5, 40)
    return next(it for it in items if it["kind"] == kind)


def test_pipeline_rejects_a_wrong_witness_constant():
    item = _pipeline_item("trivial")
    out = pipeline.ask_everything(item["current"])
    assert pipeline.check(item, out) is None
    w = out["witness"]
    out["witness"] = type(w)(w.f_part, w.g_part, w.constant + 1)
    assert pipeline.check(item, out) is not None


def test_pipeline_rejects_a_wrong_characteristic():
    item = _pipeline_item("canonical")
    out = pipeline.ask_everything(item["current"])
    assert pipeline.check(item, out) is None
    out["lam"] = type(out["lam"])(out["lam"].frame, _bump_one_coefficient(item["lam"]))
    assert pipeline.check(item, out) is not None


def test_pipeline_rejects_accepting_a_broken_current():
    item = _pipeline_item("broken")
    out = pipeline.ask_everything(item["current"])
    assert pipeline.check(item, out) is None
    assert pipeline.check(item, dict(out, conserved=True)) is not None


def test_flux_checkers_reject_wrong_verdicts():
    items = flux.generate(4, 16)
    conserved = next(it for it in items if it["role"] == "flux")
    broken = next(it for it in items if it["role"] == "broken")
    numeric = next(it for it in items if it["role"] == "numeric")
    assert flux.check(conserved, flux.run(conserved)) is None
    assert flux.check(conserved, FluxResult(1e-6, 1.6e-5, 16.0)) is not None
    assert flux.check(conserved, FluxResult(1e-11, 1e-11, 1.0)) is not None
    assert flux.check(broken, flux.run(broken)) is None
    assert flux.check(broken, FluxResult(1e-14, 1e-14, 1.0)) is not None
    exact = abs(broken["exact"])
    assert flux.check(broken, FluxResult(exact * 1.01, exact, 1.0)) is not None
    assert flux.check(numeric, flux.run(numeric)) is None
    assert flux.check(numeric, 1e-3) is not None


def test_cli_checker_rejects_wrong_stdout_and_exit_code():
    check = clisession.checker("verify", 0, "conserved: true\n", None)
    assert check((0, "conserved: true\n", "")) is None
    assert check((0, "conserved: false\n", "")) is not None
    assert check((1, "conserved: true\n", "")) is not None
    err = clisession.checker("parse-error", 2, "", "error:")
    assert err((2, "", "error: unexpected end\n")) is None
    assert err((2, "", "Traceback (most recent call last)\n")) is not None


def test_peak_rss_pass_reads_the_cli_process_own_peak():
    peaks = []
    run_cli = clisession.subprocess_runner(clisession.child_env(), peaks)
    code, out, err = run_cli(["parse", "--expr=w[0,1"], None)
    assert code == 2 and out == "" and err.startswith("error:") and clisession.PEAK_MARK not in err
    code, out, err = run_cli(["verify", "--first=w[0,1]^2", "--second=-w[1,0]^2"], None)
    assert (code, out, err) == (0, "conserved: true\n", "")
    assert len(peaks) == 2 and all(1000 < kb < 1_000_000 for kb in peaks)


# -- span arithmetic ---------------------------------------------------------------


def test_self_times_on_a_synthetic_tree_with_recursion():
    # A [0,10] -> diff [1,7] -> diff [2,5] -> diff [3,4];  A -> B [8,9]
    names = ["A", "diff", "diff", "diff", "B"]
    starts = [0.0, 1.0, 2.0, 3.0, 8.0]
    ends = [10.0, 7.0, 5.0, 4.0, 9.0]
    parents = [-1, 0, 1, 2, 0]
    got = self_times(names, starts, ends, parents)
    assert got == {"A": 3.0, "diff": 3.0 + 2.0 + 1.0, "B": 1.0}
    assert sum(got.values()) == 10.0  # the root's duration, nothing counted twice


def test_tracer_spans_recursive_calls_in_every_namespace_and_restores_them():
    import jetlaw.expr
    import jetlaw.jets

    original = jetlaw.expr.diff_partial
    tracer = Tracer()
    tracer.install()
    try:
        assert jetlaw.jets.diff_partial is not original  # the copied binding is wrapped too
        tracer.enabled = True
        e = parse("exp(w[0,1]^2)*w[0,1]")
        jetlaw.expr.diff_partial(e, Jet("w", 0, 1))  # recurses through the exp argument
        jetlaw.jets.total_derivative(e, jetlaw.jets.LIGHTCONE, 1)
        tracer.enabled = False
    finally:
        tracer.uninstall()
    assert jetlaw.expr.diff_partial is original and jetlaw.jets.diff_partial is original
    calls = tracer.calls()
    assert calls["expr.diff_partial"] >= 3 and calls["jets.total_derivative"] == 1
    assert tracer.arith["mul_calls"] > 0
    selfs = tracer.self_seconds()
    roots = sum(e - s for s, e, p in zip(tracer.start, tracer.end, tracer.parent) if p < 0)
    assert sum(selfs.values()) == pytest.approx(roots, rel=1e-9)
    assert diff_partial(parse("xi^2"), Sym("xi")) == parse("2*xi")


# -- harness -----------------------------------------------------------------------


def test_cap_and_unexpected_errors_count_as_failures():
    def boom():
        raise RuntimeError("unexpected")

    cases = [
        Case(0, "slow", lambda: time.sleep(5), lambda _: None, 0.05),
        Case(1, "boom", boom, lambda _: None, 1.0),
        Case(2, "wrong", lambda: 1, lambda r: "wrong answer" if r != 2 else None, 1.0),
        Case(3, "fine", lambda: 2, lambda r: None if r == 2 else "wrong", 1.0),
    ]
    m = measure(cases, 0.0, min_ops=4)
    assert m.attempted == 4 and m.failed == 3 and len(m.latencies) == 1
    assert [label for label, _ in m.failures] == ["slow", "boom", "wrong"]


def test_window_throughput_averages_the_middle_half():
    # 8 windows of 2 operations, at 2, 5, 5, 10, 10, 10, 10 and 40 operations per second
    m = Measurement(latencies=[0.5, 0.5] + [0.2] * 4 + [0.1] * 8 + [0.025, 0.025])
    throughput, windows = m.windowed_throughput(2)
    assert windows == 8 and throughput == pytest.approx((5 + 10 + 10 + 10) / 4)


def test_loglog_slope_recovers_a_power_law():
    points = [(n, 3e-6 * n**2) for n in (35, 70, 126, 210)]
    assert run.loglog_slope(points) == pytest.approx(2.0)


def test_benchmark_json_declares_exactly_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_spec()
    # oracle-flux runs by name but is not gated (see README)
    assert [w["name"] for w in spec["workloads"]] == [w for w in run.WORKLOADS if w != "oracle-flux"]
