"""End-to-end command-line checks driven through main(argv)."""

import argparse
import contextlib
import io
import json
import os
import pathlib
import random
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jetlaw
from jetlaw import LIGHTCONE, SPACETIME, Current, Sym, conservation, parse, restricted_derivative
from jetlaw.cli import _config_from, _fuse_dash_values, build_parser, main
from jetlaw.config import SETTINGS
from jetlaw.transform import current_to_spacetime

from test_acceptance import _random_canonical
from test_expr import _too_long


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- parse ----------------------------------------------------------------------

def test_parse_prints_canonical_form(capsys):
    code, out, err = run(capsys, "parse", "--expr", "w + w")
    assert code == 0
    assert out.strip() == "2*w[0,0]"
    assert err == ""


def test_parse_error_exits_2_with_position(capsys):
    code, out, err = run(capsys, "parse", "--expr", "w[1,0] + + 2")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "position" in err


def test_parse_json_document(capsys):
    code, out, _ = run(capsys, "parse", "--format", "json", "--expr", "t*(t + 1)")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"kind": "expression", "text": "t^2 + t"}


@pytest.mark.parametrize("argv", [
    ["parse", "--expr", "ln(-2)"],
    ["verify", "--first", "ln(0)*w[0,1]", "--second", "0"],
])
def test_ln_of_a_non_positive_constant_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert "non-positive constant" in err


def test_reduction_to_ln_of_a_non_positive_constant_exits_2(capsys):
    code, out, err = run(capsys, "pullback", "--first", "ln(w[1,1] - 1)*w[0,1]", "--second", "0")
    assert (code, out) == (2, "")
    assert err == "error: ln(w[1,1] - 1) becomes ln of the non-positive constant -1\n"


@pytest.mark.parametrize("command", ["verify", "characteristic"])
def test_a_divergence_is_taken_on_the_reduced_current(capsys, command):
    # reduced first, ln(1 + w[1,1]) is ln(1) = 0 and ln(w[1,1] - 1) is ln(-1)
    assert run(capsys, command, "--first", "ln(1 + w[1,1])*w[0,1]", "--second", "0")[0] == 0
    code, out, err = run(capsys, command, "--first", "ln(w[1,1] - 1)*w[0,1]", "--second", "0")
    assert (code, out) == (2, "")
    assert err == "error: ln(w[1,1] - 1) becomes ln of the non-positive constant -1\n"


@pytest.mark.parametrize("text, position", [("xi+-1", 3), ("xi*-1", 3), ("--xi", 1)])
def test_a_sign_after_an_operator_or_a_sign_exits_2(capsys, text, position):
    # the README's grammar: a sign starts only an expression or a parenthesized group
    code, out, err = run(capsys, "parse", "--expr", text)
    assert (code, out, err) == (2, "", f"error: unexpected '-' (at position {position})\n")


@pytest.mark.parametrize("text, printed", [("-1*xi", "-xi"), ("xi+(-1)", "xi - 1")])
def test_a_sign_that_starts_an_expression_or_a_group_parses(capsys, text, printed):
    assert run(capsys, "parse", "--expr", text) == (0, printed + "\n", "")


def test_superscript_after_a_name_exits_2_with_position(capsys):
    code, out, err = run(capsys, "verify", "--first", "w²", "--second", "0")
    assert (code, out) == (2, "")
    assert err.startswith("error: in --first") and err.count("\n") == 1, err
    assert "position 1" in err


# Outputs recorded from the kernel that sorted the terms of every Expr it
# built: they pin the printed canonical order, however a value was built.
PINNED = json.loads(pathlib.Path(__file__).with_name("pinned_output.json").read_text("utf-8"))


@pytest.mark.parametrize("case", PINNED, ids=[case["name"] for case in PINNED])
def test_printed_output_is_pinned(capsys, monkeypatch, case):
    for name in [n for n in os.environ if n.startswith("JETLAW_")]:
        monkeypatch.delenv(name)
    code, out, err = run(capsys, *case["argv"])
    assert (code, err) == (case["exit"], "")
    assert out == case["stdout"]


# --- verify ---------------------------------------------------------------------

def test_verify_conserved_current(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--frame", "lightcone", "--first", "exp(2*w[0,2])", "--second", "0",
    )
    assert code == 0
    assert out.strip() == "conserved: true"


def test_verify_non_conserved_exits_1(capsys):
    code, out, _ = run(capsys, "verify", "--first", "w[1,0]", "--second", "0")
    assert code == 1
    assert out.strip() == "conserved: false"


def test_verify_names_offending_flag_on_parse_error(capsys):
    code, _, err = run(capsys, "verify", "--first", "w[0,1]", "--second", "w[1,0] +")
    assert code == 2
    assert "--second" in err


# --- normalize / characteristic ---------------------------------------------------

def test_normalize_text_output(capsys):
    code, out, _ = run(
        capsys,
        "normalize",
        "--first", "1/4*w[0,1]^2 + w[1,0]*w[0,2]",
        "--second", "-1/4*w[1,0]^2 - w[0,1]*w[2,0]",
    )
    assert code == 0
    assert out.splitlines() == ["first: 1/4*w[0,1]^2", "second: -1/4*w[1,0]^2"]


def test_normalize_rejects_non_conserved(capsys):
    code, _, err = run(capsys, "normalize", "--first", "w[1,0]", "--second", "0")
    assert code == 1
    assert err.startswith("not conserved:")


def test_characteristic_of_trivial_pair(capsys):
    code, out, _ = run(capsys, "characteristic", "--first", "w[0,1]", "--second", "-w[1,0]")
    assert code == 0
    assert out.strip() == "0 (trivial)"


def test_characteristic_of_energy(capsys):
    code, out, _ = run(
        capsys, "characteristic", "--first", "w[0,1]^2", "--second", "-w[1,0]^2"
    )
    assert code == 0
    assert out.strip() == "-2*w[1,0] + 2*w[0,1]"


def test_characteristic_spacetime_input_reports_spacetime_multiplier(capsys):
    code, out, _ = run(
        capsys,
        "characteristic",
        "--frame", "spacetime",
        "--first", "1/2*u[1,0]^2 + 1/2*u[0,1]^2",
        "--second", "-u[1,0]*u[0,1]",
    )
    assert code == 0
    assert out.strip() == "u[1,0]"


def test_characteristic_and_is_trivial_agree_on_identity_zero(capsys):
    # the multiplier is zero only through sin^2 + cos^2 = 1, which the
    # sampled zero test sees and the literal form does not
    args = ["--first", "(sin(eta)^2+cos(eta)^2-1)*w[0,1]", "--second", "0"]
    code, out, _ = run(capsys, "characteristic", *args)
    assert code == 0
    assert out.strip() == "sin(eta)^2 + cos(eta)^2 - 1 (trivial)"
    code, out, _ = run(capsys, "characteristic", *args, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["multiplier"] == "sin(eta)^2 + cos(eta)^2 - 1"
    assert doc["trivial"] is True
    code, out, _ = run(capsys, "is-trivial", *args)
    assert (code, out.strip()) == (0, "trivial: true")


# --- documents as glue --------------------------------------------------------------

def test_normalize_doc_feeds_verify(capsys, tmp_path):
    code, out, _ = run(
        capsys,
        "normalize",
        "--format", "json",
        "--first", "eta*w[0,0]",
        "--second", "-1/2*eta^2*w[1,0]",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "current"
    assert doc["first"] == "-1/2*eta^2*w[0,1]"
    path = tmp_path / "current.json"
    path.write_text(out)

    code, out, _ = run(capsys, "verify", "--doc", str(path))
    assert code == 0
    assert out.strip() == "conserved: true"


def test_doc_from_stdin(capsys, monkeypatch):
    doc = json.dumps(
        {"kind": "current", "frame": "lightcone", "first": "-w[0,1]", "second": "-w[1,0]"}
    )
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    code, out, _ = run(capsys, "characteristic", "--doc", "-")
    assert code == 0
    assert out.strip() == "-2"


def test_pullback_json_round_trip(capsys, tmp_path):
    code, out, _ = run(
        capsys,
        "pullback",
        "--format", "json",
        "--first", "exp(2*w[0,2])", "--second", "0",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["frame"] == "spacetime"
    assert doc["first"] == doc["second"] == "exp(-u[1,1] + u[0,2])"
    path = tmp_path / "st.json"
    path.write_text(out)
    code, out, _ = run(capsys, "pullback", "--doc", str(path))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "frame: lightcone"
    assert lines[1] == "first: exp(2*w[0,2])"
    assert lines[2] == "second: 0"


def _piped(writer, reader):
    """The exit code and output of reader fed, by --doc -, the JSON document
    that writer prints."""
    with contextlib.redirect_stdout(io.StringIO()) as written:
        assert main([*writer, "--format", "json"]) == 0
    with mock.patch("sys.stdin", io.StringIO(written.getvalue())):
        with contextlib.redirect_stdout(io.StringIO()) as read:
            code = main([*reader, "--doc", "-"])
    return code, read.getvalue()


@given(st.integers(0, 10**6), st.sampled_from([LIGHTCONE, SPACETIME]))
@settings(max_examples=50, deadline=None)
def test_a_document_one_command_writes_is_read_back_by_the_next(seed, frame):
    current = _random_canonical(random.Random(seed), seed)
    if frame is SPACETIME:
        current = current_to_spacetime(current)
    doc = {"kind": "current", "frame": frame.name,
           "first": str(current.first), "second": str(current.second)}
    inline = ["--frame", frame.name, "--first", doc["first"], "--second", doc["second"]]
    code, out = _piped(["pullback", *inline], ["pullback", "--format", "json"])
    assert (code, json.loads(out)) == (0, doc)
    assert _piped(["characteristic", *inline], ["is-characteristic", "--format", "text"]) == (
        0, "characteristic: true\n")
    assert _piped(["normalize", *inline], ["verify", "--format", "text"]) == (
        0, "conserved: true\n")


def _stdin_doc(capsys, monkeypatch, command, text):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    return run(capsys, command, "--doc", "-")


def test_doc_that_is_not_an_object_exits_2(capsys, monkeypatch):
    code, out, err = _stdin_doc(capsys, monkeypatch, "verify", "[]")
    assert (code, out) == (2, "")
    assert err == "error: bad current document: expected a JSON object, found list\n"


def test_doc_of_another_kind_exits_2(capsys, monkeypatch):
    code, out, _ = run(capsys, "characteristic", "--format", "json",
                       "--first", "w[0,1]^2", "--second", "-w[1,0]^2")
    assert code == 0
    code, out, err = _stdin_doc(capsys, monkeypatch, "verify", out)
    assert (code, out) == (2, "")
    assert err == (
        "error: bad current document: expected a 'current' document, not 'characteristic'\n"
    )
    doc = json.dumps({"kind": "current", "frame": "lightcone", "multiplier": "1"})
    code, out, err = _stdin_doc(capsys, monkeypatch, "is-characteristic", doc)
    assert (code, out) == (2, "")
    assert "'characteristic'" in err and "'current'" in err


def test_doc_with_a_non_string_component_exits_2(capsys, monkeypatch):
    doc = json.dumps({"frame": "lightcone", "first": 3, "second": "0"})
    code, out, err = _stdin_doc(capsys, monkeypatch, "verify", doc)
    assert (code, out) == (2, "")
    assert err == "error: bad current document: field 'first' must be a string, not int\n"
    doc = json.dumps({"frame": ["lightcone"], "multiplier": "t"})
    code, out, err = _stdin_doc(capsys, monkeypatch, "is-characteristic", doc)
    assert (code, out) == (2, "")
    assert err == "error: bad characteristic document: field 'frame' must be a string, not list\n"


def test_an_unreadable_doc_exits_2_with_the_read_error_alone(capsys, tmp_path):
    # a file that was never read is no bad document
    missing = tmp_path / "missing.json"
    code, out, err = run(capsys, "verify", "--doc", str(missing))
    assert (code, out) == (2, "")
    assert err == (f"error: cannot read document {missing}: "
                   f"[Errno 2] No such file or directory: '{missing}'\n")


def test_deeply_nested_expression_exits_2(capsys):
    code, out, err = run(capsys, "parse", "--expr", "(" * 3000 + "t" + ")" * 3000)
    assert (code, out) == (2, "")
    assert err == "error: input too deep or too large to process\n"


@pytest.mark.parametrize("argv", [
    ["parse", "--expr", "{}"],
    ["verify", "--first", "{}*w[0,1]", "--second", "0"],
    ["parse", "--expr", "xi^{}"],
], ids=["parse", "verify", "power"])
def test_an_integer_literal_over_the_int_string_limit_exits_2(capsys, argv):
    digits = _too_long()
    code, out, err = run(capsys, *[arg.format(digits) for arg in argv])
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"integer literal of {len(digits)} digits is too long" in err


def test_a_parse_error_in_a_long_flag_quotes_only_the_start_of_it(capsys):
    digits = _too_long()
    text = digits + "*w[0,1]"
    code, out, err = run(capsys, "verify", "--first", text, "--second", "0")
    assert (code, out) == (2, "")
    assert err == (f"error: in --first {'9' * 80!r}... ({len(text)} characters): "
                   f"integer literal of {len(digits)} digits is too long (at position 0)\n")
    # text up to the cap is quoted whole
    code, _, err = run(capsys, "verify", "--first", "w[0,1]+", "--second", "0")
    assert code == 2 and err.startswith("error: in --first 'w[0,1]+': ")


# --- triviality ----------------------------------------------------------------------

def test_is_trivial_exit_codes(capsys):
    code, out, _ = run(capsys, "is-trivial", "--first", "w[0,1]", "--second", "-w[1,0]")
    assert code == 0 and out.strip() == "trivial: true"
    code, out, _ = run(capsys, "is-trivial", "--first", "w[0,1]^2", "--second", "-w[1,0]^2")
    assert code == 1 and out.strip() == "trivial: false"


def _current_args(current):
    return [
        "--frame", current.frame.name,
        "--first", str(current.first),
        "--second", str(current.second),
    ]


# energy plus (D_eta h, -D_xi h) for h = exp(w[0,1]*w[1,0]): conserved, but
# normalization cannot integrate an exponential whose argument is not linear
_POTENTIAL = parse("exp(w[0,1]*w[1,0])")
_DRESSED_ENERGY = Current(
    LIGHTCONE,
    parse("w[0,1]^2") + restricted_derivative(_POTENTIAL, LIGHTCONE, 1),
    parse("-w[1,0]^2") - restricted_derivative(_POTENTIAL, LIGHTCONE, 0),
)


@pytest.mark.parametrize(
    "current, multiplier",
    [
        (_DRESSED_ENERGY, "-2*w[1,0] + 2*w[0,1]"),
        (current_to_spacetime(_DRESSED_ENERGY), "u[1,0]"),
    ],
    ids=["lightcone", "spacetime"],
)
def test_questions_that_need_no_normalization_are_answered(capsys, current, multiplier):
    args = _current_args(current)
    code, out, err = run(capsys, "characteristic", *args)
    assert (code, out, err) == (0, multiplier + "\n", "")
    code, out, err = run(capsys, "is-trivial", *args)
    assert (code, out, err) == (1, "trivial: false\n", "")
    for command in ("normalize", "witness"):
        code, out, err = run(capsys, command, *args)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1, err


def test_witness_of_dressed_trivial_current(capsys):
    code, out, _ = run(
        capsys,
        "witness",
        "--first", "2*w[0,1]*w[0,2] + 3*w[0,1]",
        "--second", "-3*w[1,0]",
    )
    assert code == 0
    assert out.splitlines() == ["f-part: w[0,1]^2", "g-part: 0", "constant: 3"]


def test_witness_refuses_nontrivial_current(capsys):
    code, out, _ = run(capsys, "witness", "--first", "w[0,1]^2", "--second", "-w[1,0]^2")
    assert code == 1
    assert out.strip() == "not trivial: nonzero characteristic"


def test_witness_does_not_call_a_trivial_current_nontrivial(capsys):
    # trivial only through sin^2 + cos^2 = 1: the witness constant is not a
    # rational literal, so the certificate is unsupported, not refused
    args = ["--first", "(sin(eta)^2+cos(eta)^2-1)*w[0,1]", "--second", "0"]
    code, out, _ = run(capsys, "characteristic", *args)
    assert (code, out.strip()) == (0, "sin(eta)^2 + cos(eta)^2 - 1 (trivial)")
    code, out, _ = run(capsys, "is-trivial", *args)
    assert (code, out.strip()) == (0, "trivial: true")
    code, out, err = run(capsys, "witness", *args)
    assert code == 2 and out == ""
    assert err.startswith("error:")
    assert "not trivial" not in err


# a trivial current whose normalization integrates w[1,0]^1200 * exp(w[1,0])
# by parts 1201 times
_POWER_1200 = [
    "--first", "w[0,2]*w[1,0]^1200*exp(w[1,0])",
    "--second", "-w[0,1]*w[2,0]*(1200*w[1,0]^1199 + w[1,0]^1200)*exp(w[1,0])",
]


def test_high_power_times_exp_is_answered_by_every_command(capsys):
    assert run(capsys, "verify", *_POWER_1200) == (0, "conserved: true\n", "")
    assert run(capsys, "is-trivial", *_POWER_1200) == (0, "trivial: true\n", "")
    assert run(capsys, "normalize", *_POWER_1200) == (0, "first: 0\nsecond: 0\n", "")
    code, out, err = run(capsys, "witness", *_POWER_1200)
    assert (code, err) == (0, "")
    assert out.splitlines() == ["f-part: 0", "g-part: 0", "constant: 0"]


# --- multiplier verdicts ----------------------------------------------------------------

def test_is_characteristic_accepts_and_rejects(capsys):
    code, out, _ = run(capsys, "is-characteristic", "--multiplier", "-2")
    assert code == 0 and out.strip() == "characteristic: true"
    code, out, _ = run(capsys, "is-characteristic", "--multiplier", "w[0,0]")
    assert code == 1 and out.strip() == "characteristic: false"
    code, out, _ = run(
        capsys, "is-characteristic", "--frame", "spacetime", "--multiplier", "u[1,0]"
    )
    assert code == 0 and out.strip() == "characteristic: true"


def test_is_characteristic_requires_input(capsys):
    code, _, err = run(capsys, "is-characteristic")
    assert code == 2
    assert "give --multiplier or --doc" in err


def test_multiplier_parse_error_names_the_option(capsys):
    code, out, err = run(capsys, "is-characteristic", "--multiplier", "w[0,1")
    assert (code, out) == (2, "")
    assert err == "error: in --multiplier 'w[0,1': expected ']', found '' (at position 5)\n"


_ENERGY_DOC = json.dumps(
    {"kind": "current", "frame": "lightcone", "first": "w[0,1]^2", "second": "-w[1,0]^2"}
)


_MINUS_TWO_DOC = json.dumps({"frame": "lightcone", "multiplier": "-2"})


@pytest.mark.parametrize("command, document, inline", [
    ("verify", _ENERGY_DOC, ["--first", "w[1,0]", "--second", "0", "--frame", "spacetime"]),
    ("verify", _ENERGY_DOC, ["--first", "w[1,0]"]),
    ("pullback", _ENERGY_DOC, ["--second", "0"]),
    ("numcheck", _ENERGY_DOC, ["--frame", "lightcone", "--solution", ";"]),
    ("is-characteristic", _MINUS_TWO_DOC, ["--multiplier", "w[0,0]"]),
    ("is-characteristic", _MINUS_TWO_DOC, ["--frame", "spacetime"]),
], ids=["verify-all", "verify-first", "pullback-second", "numcheck-frame",
        "is-characteristic-multiplier", "is-characteristic-frame"])
def test_a_document_and_inline_input_together_exit_2(capsys, monkeypatch, command, document, inline):
    # at one time the document silently won, and the energy passed for the
    # non-conserved inline current
    monkeypatch.setattr("sys.stdin", io.StringIO(document))
    code, out, err = run(capsys, command, "--doc", "-", *inline)
    assert (code, out) == (2, "")
    assert err.startswith("error: --doc cannot be combined with --") and err.count("\n") == 1, err


# --- numeric check -----------------------------------------------------------------------

def test_numcheck_energy(capsys):
    code, out, _ = run(
        capsys,
        "numcheck",
        "--first", "w[0,1]^2", "--second", "-w[1,0]^2",
        "--solution", "sin:1,0;poly:0,0,1",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("residual:")
    assert lines[3] == "within tolerance: true"


def test_numcheck_counterexample_fails(capsys):
    code, out, _ = run(
        capsys,
        "numcheck",
        "--format", "json",
        "--first", "w[1,0]", "--second", "0",
        "--solution", "sin:1,0;poly:0,0,1",
        "--nodes", "64",
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["pass"] is False
    assert doc["residual"] > 1e-3


def test_numcheck_rejects_bad_rectangle(capsys):
    code, _, err = run(
        capsys,
        "numcheck",
        "--first", "w[0,1]^2", "--second", "-w[1,0]^2",
        "--solution", "sin:1,0;",
        "--rect", "0,1,2",
    )
    assert code == 2
    assert "bad rectangle" in err


@pytest.mark.parametrize(
    "solution, rect",
    [
        ("sin:1,0;poly:0,0,1", "0,1e300,0,1"),  # g(x - t)^2 overflows
        ("exp:1000,0;", "0,1,0,1"),  # exp(1000) overflows
    ],
    ids=["huge-rectangle", "huge-profile"],
)
def test_numcheck_overflow_exits_2(capsys, solution, rect):
    code, out, err = run(
        capsys,
        "numcheck",
        "--first", "w[0,1]^2", "--second", "-w[1,0]^2",
        "--solution", solution,
        "--rect", rect,
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: arithmetic overflow") and err.count("\n") == 1, err


@pytest.mark.parametrize("rect", ["0,inf,0,1", "nan,1,0,1", "0,1,-inf,1"])
def test_numcheck_rejects_non_finite_corners(capsys, rect):
    code, out, err = run(
        capsys,
        "numcheck",
        "--first", "w[0,1]^2", "--second", "-w[1,0]^2",
        "--solution", "sin:1,0;",
        "--rect", rect,
    )
    assert (code, out) == (2, "")
    assert err == "error: bad rectangle: rectangle corners must be finite\n"


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_numcheck_json_writes_an_infinite_ratio_as_null(capsys):
    # a constant current on the zero solution: both residuals are 0
    args = ("numcheck", "--first", "exp(w[1,0])", "--second", "0", "--solution", ";")
    code, out, _ = run(capsys, *args, "--format", "json")
    assert code == 0
    doc = json.loads(out, parse_constant=_reject_constant)
    assert (doc["residual"], doc["ratio"], doc["pass"]) == (0.0, None, True)
    code, out, _ = run(capsys, *args)
    assert code == 0 and "ratio: inf" in out.splitlines()


def test_numcheck_rejects_bad_solution(capsys):
    code, _, err = run(
        capsys,
        "numcheck",
        "--first", "w[0,1]^2", "--second", "-w[1,0]^2",
        "--solution", "whirl:1,0;",
    )
    assert code == 2
    assert err.startswith("error:")


# --- golden suite ---------------------------------------------------------------------------

def test_golden_suite_passes(capsys):
    code, out, _ = run(capsys, "golden")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "12/12 pass"
    assert all(line.startswith("ok  ") for line in lines[:-1])
    assert len(lines) == 13


# --- configuration ---------------------------------------------------------------------------

def test_format_env_override(capsys, monkeypatch):
    monkeypatch.setenv("JETLAW_FORMAT", "json")
    code, out, _ = run(capsys, "parse", "--expr", "w[1,0]")
    assert code == 0
    assert json.loads(out)["text"] == "w[1,0]"


def test_flag_beats_env_beats_file(capsys, tmp_path, monkeypatch):
    config = tmp_path / "jetlaw.cfg"
    config.write_text("format = json\nseed = 5\n")

    # file alone switches the format
    code, out, _ = run(capsys, "parse", "--config", str(config), "--expr", "t")
    assert code == 0 and json.loads(out)["text"] == "t"

    # env overrides file
    monkeypatch.setenv("JETLAW_FORMAT", "text")
    code, out, _ = run(capsys, "parse", "--config", str(config), "--expr", "t")
    assert code == 0 and out.strip() == "t"

    # flag overrides env
    code, out, _ = run(capsys, "parse", "--config", str(config), "--format", "json", "--expr", "t")
    assert code == 0 and json.loads(out)["text"] == "t"


# (2*w[0,1]*w[0,2] + 3*w[0,1], -3*w[1,0]) is trivial: the direct path in
# either frame and the normalizing commands must all reach their zero tests
_TRIVIAL = Current(LIGHTCONE, parse("2*w[0,1]*w[0,2] + 3*w[0,1]"), parse("-3*w[1,0]"))


@pytest.mark.parametrize(
    "command, current",
    [
        pytest.param(command, _TRIVIAL, id=command)
        for command in ("normalize", "characteristic", "is-trivial", "witness")
    ]
    + [
        pytest.param(command, current_to_spacetime(_TRIVIAL), id=f"{command}-spacetime")
        for command in ("characteristic", "is-trivial")
    ],
)
def test_zero_tests_use_the_configured_samples_and_seed(capsys, monkeypatch, command, current):
    calls = []
    is_zero = conservation.is_zero

    def spy(e, **options):
        calls.append(options)
        return is_zero(e, **options)

    monkeypatch.setattr(conservation, "is_zero", spy)
    code, _, err = run(
        capsys, command, "--samples", "3", "--seed", "7", *_current_args(current)
    )
    assert (code, err) == (0, "")
    assert calls and all(options == {"samples": 3, "seed": 7} for options in calls), calls


def test_bad_config_file_exits_2(capsys, tmp_path):
    config = tmp_path / "broken.cfg"
    config.write_text("samples = 0\n")
    code, _, err = run(capsys, "parse", "--config", str(config), "--expr", "t")
    assert code == 2
    assert "samples" in err


@pytest.mark.parametrize("value", ["inf", "1e400"])
@pytest.mark.parametrize("source", ["flag", "env", "file"])
def test_an_infinite_tolerance_exits_2(capsys, tmp_path, monkeypatch, source, value):
    # the residual here is about 1.08, and any finite tolerance below it fails
    argv = ["numcheck", "--first", "w[1,0]", "--second", "0", "--solution", "sin:1,0;poly:0,0,1"]
    if source == "flag":
        argv += ["--tolerance", value]
    elif source == "env":
        monkeypatch.setenv("JETLAW_TOLERANCE", value)
    else:
        config = tmp_path / "jetlaw.cfg"
        config.write_text(f"tolerance = {value}\n")
        argv += ["--config", str(config)]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert "bad value for tolerance" in err


# a bad value of a setting, and a command that reads it
_BAD_SETTINGS = [("samples", "x", "verify"), ("samples", "0", "verify"), ("seed", "x", "verify"),
                 ("tolerance", "x", "numcheck"), ("format", "xml", "parse")]


@pytest.mark.parametrize("source", ["flag", "env", "file"])
@pytest.mark.parametrize("key, value, command", _BAD_SETTINGS,
                         ids=[f"{key}={value}" for key, value, _ in _BAD_SETTINGS])
def test_a_bad_setting_exits_2_with_one_error_line_from_any_source(
        capsys, tmp_path, monkeypatch, key, value, command, source):
    # a flag's value is checked by the setting's reader, as a variable's or a file's is
    argv = [command, *_MINIMAL[command]]
    if source == "flag":
        argv += [f"--{key}", value]
    elif source == "env":
        monkeypatch.setenv(f"JETLAW_{key.upper()}", value)
    else:
        config = tmp_path / "jetlaw.cfg"
        config.write_text(f"{key} = {value}\n")
        argv += ["--config", str(config)]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert f"bad value for {key}" in err


def test_the_readme_configuration_table_lists_every_setting():
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text("utf-8")
    section = readme.split("### Configuration\n", 1)[1].split("\n### ", 1)[0]
    rows = {}
    for line in section.splitlines():
        if line.startswith("| `"):
            key, flag, variable, default = (c.strip().strip("`") for c in line.split("|")[1:5])
            rows[key] = (flag, variable, default)
    assert list(rows) == list(SETTINGS)
    for key, (_, default, read, _) in SETTINGS.items():
        flag, variable, listed = rows[key]
        assert (flag, variable) == ("--" + key.replace("_", "-"), "JETLAW_" + key.upper())
        assert read("" if listed == "origin" else listed) == default, key  # origin: no pairs


def test_reference_point_flag_changes_normalization(capsys):
    args = [
        "normalize",
        "--first", "1/4*w[0,1]^2 + w[1,0]*w[0,2]",
        "--second", "-1/4*w[1,0]^2 - w[0,1]*w[2,0]",
    ]
    code, out, _ = run(capsys, *args, "--ref-point", "w[1,0]=2")
    assert code == 0
    assert out.splitlines()[0] == "first: 1/4*w[0,1]^2 + 2*w[0,2]"
    code, _, err = run(capsys, *args, "--ref-point", "w[1,0]=oops")
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "point,atom",
    [("eta=5", "eta"), ("t=1", "t"), ("w[0,1]=3", "w[0,1]"), ("w[1,1]=7", "w[1,1]"),
     ("u[1,0]=2", "u[1,0]"), ("xi=1,w[2,0]=1,w[0,2]=1", "w[0,2]")],
)
def test_reference_point_rejects_atoms_normalization_never_reads(capsys, point, atom):
    code, out, err = run(
        capsys, "normalize", "--first", "w[0,1]", "--second", "-w[1,0]", "--ref-point", point
    )
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert err.rstrip().endswith(f"not {atom}")


def test_witness_integrates_a_function_atom_at_a_reference_point(capsys):
    args = ["--first", "w[0,2]*exp(w[1,0])", "--second", "-w[0,1]*w[2,0]*exp(w[1,0])"]
    code, out, _ = run(capsys, "witness", *args, "--ref-point", "w[1,0]=1")
    assert code == 0
    assert out.splitlines() == ["f-part: w[0,1]*exp(1)", "g-part: 0", "constant: 0"]


def test_unknown_subcommand_exits_2_with_one_error_line(capsys):
    code, out, err = run(capsys, "frobnicate")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert "invalid choice: 'frobnicate'" in err


_NUMCHECK = ["numcheck", "--first", "w", "--second", "0"]
# a command line that argparse, a flag's reader or a setting's reader refuses,
# and text its one error line holds
_BAD_COMMAND_LINES = {
    "no-command": ([], "required: command"),
    "unknown-command": (["frobnicate"], "invalid choice: 'frobnicate'"),
    "no-expr": (["parse"], "required: --expr"),
    "no-solution": (_NUMCHECK, "required: --solution"),
    "no-value": (["verify", "--first"], "argument --first: expected one argument"),
    "unknown-flag": (["parse", "--expr", "t", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
    "frame": (["verify", "--first", "w", "--second", "0", "--frame", "xyz"], "unknown frame 'xyz'"),
    "empty-frame": (["verify", "--first", "w", "--second", "0", "--frame", ""], "unknown frame ''"),
    "nodes": ([*_NUMCHECK, "--solution", ";", "--nodes", "x"], "bad rectangle: invalid literal"),
    "ref-point-env": (["parse", "--expr", "t"], "JETLAW_REF_POINT: bad value for ref_point:"),
    "exponent-limit": (["parse", "--expr", "xi^2147483648"],
                       "exponent 2147483648 is over the limit 2147483647 (at position 2)"),
}


@pytest.mark.parametrize("case", list(_BAD_COMMAND_LINES))
def test_a_bad_command_line_exits_2_with_one_error_line(capsys, monkeypatch, case):
    argv, expected = _BAD_COMMAND_LINES[case]
    if case == "ref-point-env":
        monkeypatch.setenv("JETLAW_REF_POINT", "oops")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert "usage:" not in err
    assert expected in err, err


# argparse would read an abbreviation as the flag it starts and keep the last
# of two values; here both exit 2, so a later flag cannot change what a
# command line means
_ABBREVIATED_OR_REPEATED = {
    "abbreviated-expr": (["parse", "--ex", "t"], "required: --expr"),
    "repeated-expr": (["parse", "--expr", "t", "--expr", "u"], "--expr given more than once"),
    "repeated-fused-expr": (["parse", "--expr=t", "--expr", "u"], "--expr given more than once"),
    "abbreviated-first": (["verify", "--fir", "w", "--second", "0"], "unrecognized arguments: --fir w"),
    "abbreviated-frame": (["verify", "--first", "u", "--second", "0", "--fr", "spacetime"],
                          "unrecognized arguments: --fr spacetime"),
    "repeated-format": (["golden", "--format", "json", "--format", "text"],
                        "--format given more than once"),
}


@pytest.mark.parametrize("case", list(_ABBREVIATED_OR_REPEATED))
def test_an_abbreviated_or_repeated_flag_exits_2(capsys, case):
    argv, expected = _ABBREVIATED_OR_REPEATED[case]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert expected in err, err


def test_value_options_match_the_parser():
    # every option that takes a value must accept one that starts with a
    # minus sign, such as --second -w[1,0]; the fusion decides by syntax,
    # so only --help may take none
    parser = build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for sub in [parser, *subparsers.choices.values()]:
        for action in sub._actions:
            if action.nargs == 0:
                assert action.option_strings == ["-h", "--help"], action
                continue
            for option in action.option_strings:
                assert _fuse_dash_values([option, "-1"]) == [f"{option}=-1"], option


def test_dash_values_are_fused_by_syntax():
    assert _fuse_dash_values(["verify", "--first", "-w", "--second=-w", "--doc", "-"]) == [
        "verify", "--first=-w", "--second=-w", "--doc=-"]
    assert _fuse_dash_values(["--first", "--second", "-w"]) == ["--first=--second", "-w"]
    for never in (["--help", "-1"], ["--", "-1"], ["-h", "-1"], ["--first", "w", "-1"]):
        assert _fuse_dash_values(never) == never


# every command, with the least input it runs on
_MINIMAL = {
    "parse": ["--expr", "t"],
    "verify": ["--first", "w[0,1]", "--second", "-w[1,0]"],
    "normalize": ["--first", "w[0,1]", "--second", "-w[1,0]"],
    "characteristic": ["--first", "w[0,1]", "--second", "-w[1,0]"],
    "is-trivial": ["--first", "w[0,1]", "--second", "-w[1,0]"],
    "witness": ["--first", "w[0,1]", "--second", "-w[1,0]"],
    "pullback": ["--first", "w[0,1]", "--second", "-w[1,0]"],
    "is-characteristic": ["--multiplier", "-2"],
    "numcheck": ["--first", "w[0,1]", "--second", "-w[1,0]", "--solution", ";"],
    "golden": [],
}
_SAMPLING = ["verify", "normalize", "characteristic", "is-trivial", "witness", "is-characteristic"]
# each setting flag -> (a value, as typed and as resolved; the commands that read it)
_SETTING_FLAGS = {
    "--config": ("jetlaw.cfg", "jetlaw.cfg", list(_MINIMAL)),
    "--format": ("json", "json", list(_MINIMAL)),
    "--samples": ("3", 3, _SAMPLING),
    "--seed": ("-7", -7, _SAMPLING),
    "--ref-point": ("xi=1", {Sym("xi"): 1}, ["normalize", "witness"]),
    "--tolerance": ("0.5", 0.5, ["numcheck"]),
}
_HONOURED = [(c, flag) for flag, (*_, commands) in _SETTING_FLAGS.items() for c in commands]
_DROPPED = [(c, flag) for flag in _SETTING_FLAGS for c in _MINIMAL if (c, flag) not in _HONOURED]


def test_the_setting_flags_split_35_to_25():
    assert (len(_HONOURED), len(_DROPPED)) == (35, 25)


@pytest.mark.parametrize("command, flag", _HONOURED, ids=[c + f for c, f in _HONOURED])
def test_a_command_accepts_the_settings_it_reads(command, flag):
    typed, parsed, _ = _SETTING_FLAGS[flag]
    args = build_parser().parse_args(_fuse_dash_values([command, *_MINIMAL[command], flag, typed]))
    if flag == "--config":
        assert args.config == parsed
    else:  # the flag's text reaches the setting's reader, which types it
        field = SETTINGS[flag[2:].replace("-", "_")][0]
        assert getattr(_config_from(args), field) == parsed


@pytest.mark.parametrize("command, flag", _DROPPED, ids=[c + f for c, f in _DROPPED])
def test_a_setting_a_command_does_not_read_exits_2(capsys, command, flag):
    # at one time every command took all six and ignored the ones it did not read
    code, out, err = run(capsys, command, *_MINIMAL[command], flag, _SETTING_FLAGS[flag][0])
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert f"unrecognized arguments: {flag}" in err


# --- a closed or full stdout ------------------------------------------------------


def _cli_process(*argv, stdout):
    """Run the CLI in a fresh interpreter with the given stdout; stderr is captured."""
    package_root = os.path.dirname(os.path.dirname(jetlaw.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (package_root, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, "-m", "jetlaw.cli", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, text=True, timeout=120, env=env)


def test_a_closed_stdout_ends_silently_with_exit_1():
    # as in `jetlaw golden | true`: the reader is gone before the first write
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = _cli_process("golden", stdout=write_end)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (1, "")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
def test_a_full_stdout_ends_with_one_error_line_and_exit_1():
    with open("/dev/full", "w") as full:
        done = _cli_process("golden", stdout=full)
    assert (done.returncode, done.stderr) == (
        1, "error: cannot write output: No space left on device\n")


# argparse writes help itself and drops a failed write, so help is checked apart
_HELP = [["--help"], ["verify", "--help"]]


@pytest.mark.parametrize("argv", _HELP, ids=" ".join)
def test_help_to_a_closed_stdout_ends_silently_with_exit_1(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = _cli_process(*argv, stdout=write_end)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (1, "")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
@pytest.mark.parametrize("argv", _HELP, ids=" ".join)
def test_help_to_a_full_stdout_ends_with_one_error_line_and_exit_1(argv):
    with open("/dev/full", "w") as full:
        done = _cli_process(*argv, stdout=full)
    assert (done.returncode, done.stderr) == (
        1, "error: cannot write output: No space left on device\n")
