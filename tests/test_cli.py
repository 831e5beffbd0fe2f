"""File grammar, suite runners, report shape, and exit codes."""

import contextlib
import decimal
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koszulkit import cli, koszul
from koszulkit.dual_element import DIGIT_LIMIT, MEMO_LIMIT
from koszulkit.cli import (
    main,
    parse_system_file,
    suite_lemma1,
    suite_thm3,
    suite_thm4,
)
from koszulkit.koszul import NotCocycleError
from koszulkit.ring import Poly

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip().startswith("{") else out)


class TestSystemFileGrammar:
    def test_minimal(self):
        sf = parse_system_file("vars: x\nf: x^2\n")
        assert sf.labels == ["x"]
        assert len(sf.f) == 1
        assert sf.f[0].total_degree() == 2
        assert sf.order == "grevlex"
        assert sf.F is None and sf.G is None

    def test_commas_allowed_between_variable_names(self):
        sf = parse_system_file("vars: x1, x2\nf: x1^2 - x2, x2^2\n")
        assert sf.labels == ["x1", "x2"]
        assert len(sf.f) == 2

    def test_full(self):
        text = """
        # an embedded system
        vars: x1 x2
        f: x1, x2          # the small system
        F: x1^2, x2^2
        G: [[x1, 0], [0, x2]]
        order: lex
        degree-bound: 6
        seed: 9
        """
        sf = parse_system_file(text)
        assert sf.labels == ["x1", "x2"]
        assert len(sf.f) == 2 and len(sf.F) == 2
        assert sf.G[0][1].is_zero and sf.G[1][1] == Poly.variable(sf.reg, 1)
        assert sf.order == "lex"
        assert sf.degree_bound == 6
        assert sf.seed == 9

    def test_missing_vars(self):
        with pytest.raises(ValueError):
            parse_system_file("f: x\n")

    def test_missing_f(self):
        with pytest.raises(ValueError):
            parse_system_file("vars: x\n")

    def test_duplicate_key(self):
        with pytest.raises(ValueError):
            parse_system_file("vars: x\nf: x\nf: x^2\n")

    def test_degree_bound_spellings_are_one_key(self):
        assert parse_system_file("vars: x\nf: x\ndegree_bound: 5\n").degree_bound == 5
        with pytest.raises(ValueError, match="duplicate key"):
            parse_system_file("vars: x\nf: x\ndegree_bound: 2\ndegree-bound: 7\n")

    def test_unknown_key(self):
        with pytest.raises(ValueError):
            parse_system_file("vars: x\nf: x\nmystery: 3\n")

    def test_duplicate_variable(self):
        with pytest.raises(ValueError):
            parse_system_file("vars: x x\nf: x\n")

    def test_bad_matrix(self):
        with pytest.raises(ValueError):
            parse_system_file("vars: x\nf: x\nF: x\nG: [x]\n")
        with pytest.raises(ValueError):
            parse_system_file("vars: x\nf: x\nF: x\nG: [[x], [x]]\n")

    def test_bad_order(self):
        with pytest.raises(ValueError):
            parse_system_file("vars: x\nf: x\norder: degrevlex\n")

    def test_negative_degree_bound_rejected(self):
        with pytest.raises(ValueError):
            parse_system_file("vars: x\nf: x\ndegree-bound: -3\n")

    def test_keys_are_case_sensitive(self):
        sf = parse_system_file("vars: x\nf: x\nF: x^2\nG: [[x]]\n")
        assert len(sf.f) == 1 and len(sf.F) == 1


class TestSuiteRunners:
    def test_lemma1_sweeps_ascending(self):
        reports = suite_lemma1(n=2, s=1, t=1, seed=3, count=2)
        assert len(reports) == 4
        assert reports[0].instance.startswith("n=1")
        assert reports[-1].instance.startswith("n=2")
        assert all(r.ok for r in reports)

    def test_thm3_pinned_lead_and_verify(self):
        reports = suite_thm3(seed=5, count=4)
        assert len(reports) == 4
        assert all(r.instance.startswith("pinned") for r in reports[:3])
        assert all(r.status in ("equal", "homotopic") for r in reports[:3])

    def test_thm4_certificates(self):
        reports, certs = suite_thm4()
        assert len(certs) == 5
        assert all(r.ok for r in reports)
        labels = [label for label, _, _ in certs]
        assert labels[0] == "f=(x)"


class TestVerifyCommand:
    def test_small_suite_green(self, capsys):
        code, data = run(
            capsys,
            ["verify", "lemma2", "--s", "2", "--t", "2", "--count", "3", "--seed", "7"],
        )
        assert code == 0
        assert data["summary"]["total"] == 24
        assert data["summary"]["failed"] == 0
        assert data["seed"] == 7
        assert data["timing"] is None
        assert data["first_failure"] is None

    def test_deterministic_output(self, capsys):
        argv = ["verify", "lemma1", "--n", "1", "--s", "1", "--t", "1", "--count", "2"]
        code1 = main(argv)
        out1 = capsys.readouterr().out
        code2 = main(argv)
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0
        assert out1 == out2

    def test_env_seed_override(self, capsys, monkeypatch):
        monkeypatch.setenv("KOSZULKIT_SEED", "11")
        code, data = run(
            capsys, ["verify", "lemma3", "--n", "1", "--s", "1", "--count", "1", "--seed", "4"]
        )
        assert code == 0
        assert data["seed"] == 11

    def test_timing_flag(self, capsys):
        code, data = run(
            capsys,
            ["verify", "lemma3", "--n", "1", "--s", "1", "--count", "1", "--timing"],
        )
        assert code == 0
        assert isinstance(data["timing"], float)

    def test_thm4_on_file(self, capsys, tmp_path):
        path = tmp_path / "sys.txt"
        path.write_text("vars: x\nf: x^2\n")
        code, data = run(capsys, ["verify", "thm4", "--file", str(path)])
        assert code == 0
        assert all(r["status"] == "equal" for r in data["reports"])
        assert data["certificates"][0]["annihilators"] == ["x^2"]

    def test_thm3_on_file(self, capsys, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("vars: x\nf: x\nF: x^2\nG: [[x]]\n")
        code, data = run(capsys, ["verify", "thm3", "--file", str(path)])
        assert code == 0
        assert data["reports"][0]["status"] == "homotopic"
        assert data["reports"][0]["witness"]

    def test_thm3_hypothesis_violation_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("vars: x\nf: x\nF: x + 1\nG: [[1]]\n")
        code = main(["verify", "thm3", "--file", str(path)])
        capsys.readouterr()
        assert code == 2

    def test_negative_degree_bound_option_exits_2(self, capsys):
        code = main(["verify", "thm3", "--degree-bound", "-1"])
        assert code == 2
        assert "degree bound" in capsys.readouterr().err

    def test_negative_degree_bound_in_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("vars: x\nf: x\nF: x^2\nG: [[x]]\ndegree-bound: -3\n")
        code = main(["verify", "thm3", "--file", str(path)])
        assert code == 2
        assert "degree bound" in capsys.readouterr().err

    def test_both_degree_bound_spellings_in_file_exit_2(self, capsys, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("vars: x\nf: x\nF: x^2\nG: [[x]]\ndegree_bound: 2\ndegree-bound: 7\n")
        code = main(["verify", "thm3", "--file", str(path)])
        assert code == 2
        assert "duplicate key" in capsys.readouterr().err

    def test_file_rejected_for_matrix_suites(self, capsys, tmp_path):
        path = tmp_path / "sys.txt"
        path.write_text("vars: x\nf: x\n")
        code = main(["verify", "lemma1", "--file", str(path)])
        capsys.readouterr()
        assert code == 2

    def test_missing_file_exits_2(self, capsys):
        code = main(["verify", "thm4", "--file", "/nonexistent/sys.txt"])
        capsys.readouterr()
        assert code == 2


class TestDualElementCommand:
    def test_certificate_and_verdict(self, capsys, tmp_path):
        path = tmp_path / "sys.txt"
        path.write_text("vars: x\nf: x^2\n")
        code, data = run(capsys, ["dual-element", str(path)])
        assert code == 0
        cert = data["certificates"][0]
        assert cert["annihilators"] == ["x^2"]
        assert cert["initials"] == [["0", "1"]]
        assert cert["dimension"] == 2
        # the residue of x^2 on the staircase 1, x
        assert cert["element"] == [{"word": [], "values": ["0", "1"]}]
        statuses = {r["name"]: r["status"] for r in data["reports"]}
        assert statuses == {"theorem4.cocycle": "equal", "theorem4.pairing": "equal"}

    def test_out_writes_file(self, capsys, tmp_path):
        path = tmp_path / "sys.txt"
        path.write_text("vars: x1 x2\nf: x1, x2\n")
        out = tmp_path / "report.json"
        code, data = run(capsys, ["dual-element", str(path), "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text()) == data

    def test_positive_dimension_exits_3(self, capsys, tmp_path):
        path = tmp_path / "sys.txt"
        path.write_text("vars: x1 x2\nf: x1*x2\n")
        code = main(["dual-element", str(path)])
        capsys.readouterr()
        assert code == 3


class TestPairCommand:
    def test_eval_at_origin(self, capsys, tmp_path):
        path = tmp_path / "sys.txt"
        path.write_text("vars: x\nf: x\n")
        code, data = run(capsys, ["pair", str(path), "--poly", "1"])
        assert code == 0
        assert data["pair_with_e"] == "1"

    def test_canonical_functional(self, capsys, tmp_path):
        path = tmp_path / "sys.txt"
        path.write_text("vars: x\nf: x^2\n")
        code, data = run(capsys, ["pair", str(path), "--poly", "x"])
        assert (code, data["pair_with_e"], data["pair_with_l"]) == (0, "1", "1")
        code, data = run(capsys, ["pair", str(path), "--poly", "x^2"])
        assert (code, data["pair_with_e"], data["pair_with_l"]) == (0, "0", "0")

    def test_huge_exponent_is_quick(self, capsys, tmp_path):
        path = tmp_path / "sys.txt"
        path.write_text("vars: x\nf: x^2\n")
        start = time.perf_counter()
        code, data = run(capsys, ["pair", str(path), "--poly", "x^99999999999"])
        assert time.perf_counter() - start < 5
        assert (code, data["pair_with_e"], data["pair_with_l"]) == (0, "0", "0")
        path.write_text("vars: x\nf: x^2 - 1\n")
        code, data = run(capsys, ["pair", str(path), "--poly", "x^99999999999"])
        assert (code, data["pair_with_l"]) == (0, "1")

    def test_hostile_exponent_exits_2_quickly(self, capsys, tmp_path):
        # the roots of dense2_d16 have modulus other than 1, so the exact
        # value has about 10^11 digits; square-and-multiply stops at the cap
        path = tmp_path / "sys.txt"
        path.write_text("vars: x1 x2\nf: x1^4 - x2 + 1, x2^4 - x1 - 2\n")
        start = time.perf_counter()
        code = main(
            ["pair", str(path), "--poly", "x1^99999999999*x2^99999999999 + x1^5000"]
        )
        assert time.perf_counter() - start < 5
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert f"more than {DIGIT_LIMIT} digits" in captured.err

    def test_cap_holds_only_past_the_memo_limit(self, capsys, tmp_path):
        # 10^24000 passes the digit cap, but x^4000 is below MEMO_LIMIT, so
        # both pairings print it exactly
        assert 4000 < MEMO_LIMIT and DIGIT_LIMIT < 24000
        path = tmp_path / "sys.txt"
        path.write_text("vars: x\nf: x - 10^6\n")
        code, data = run(capsys, ["pair", str(path), "--poly", "x^4000"])
        assert code == 0
        assert data["pair_with_e"] == data["pair_with_l"] == "1" + "0" * 24000

    def test_memo_stays_below_the_digit_cap(self, capsys, tmp_path):
        # the values 10^(6k) are memoized only while they have at most
        # DIGIT_LIMIT digits, k < 3334, about 14 MB; memoizing every k < 4000
        # took about 20 MB
        path = tmp_path / "sys.txt"
        path.write_text("vars: x\nf: x - 10^6\n")
        tracemalloc.start()
        try:
            code, data = run(capsys, ["pair", str(path), "--poly", "x^4000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert data["pair_with_e"] == data["pair_with_l"] == "1" + "0" * 24000
        assert peak < 18_000_000

    def test_huge_exponent_on_unit_roots_pairs_exactly(self, capsys, tmp_path):
        path = tmp_path / "sys.txt"
        path.write_text("vars: x\nf: x^2 - 1\n")
        code, data = run(capsys, ["pair", str(path), "--poly", "x^99999999999"])
        assert (code, data["pair_with_e"], data["pair_with_l"]) == (0, "1", "1")

    def test_values_past_the_int_str_digit_limit_render(self, capsys, tmp_path):
        # 2^15000 has 4,516 digits, past Python's default int-to-str limit;
        # decimal renders it here without touching that limit
        path = tmp_path / "sys.txt"
        path.write_text("vars: x\nf: x^2 - 2\n")
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        code, data = run(capsys, ["pair", str(path), "--poly", "x^30001"])
        assert code == 0
        expected = str(decimal.Context(prec=5000).power(decimal.Decimal(2), 15000))
        assert data["pair_with_e"] == data["pair_with_l"] == expected
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit

    def test_huge_value_renders_quickly(self, capsys, tmp_path):
        # 10^400000, twice: str() took about 3 s per value before Python 3.12
        path = tmp_path / "sys.txt"
        path.write_text("vars: x\nf: x - 10^100\n")
        start = time.perf_counter()
        code = main(["pair", str(path), "--poly", "x^4000"])
        assert time.perf_counter() - start < 2.5
        out = capsys.readouterr().out
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "4d2176545ae73c4ef9d586c974e8d9808b10f606f40523ae9d73954d3d254212"
        )

    def test_parse_error_exits_2(self, capsys, tmp_path):
        path = tmp_path / "sys.txt"
        path.write_text("vars: x\nf: x\n")
        code = main(["pair", str(path), "--poly", "y + 1"])
        capsys.readouterr()
        assert code == 2


class TestGroebnerCommand:
    def test_positive_dimensional_fuzz_system_is_quick(self, capsys):
        # took 5.6 s when every division step rescanned the whole remainder
        path = GOLDEN / "posdim3.txt"
        start = time.perf_counter()
        code, data = run(capsys, ["groebner", str(path)])
        assert time.perf_counter() - start < 2.5
        assert (code, data["dimension"]) == (0, None)
        assert len(data["basis"]) == 12

    def test_pinned_tower(self, capsys, tmp_path):
        path = tmp_path / "sys.txt"
        path.write_text("vars: x1 x2\nf: x1^2 - x2, x2^2\n")
        code, data = run(capsys, ["groebner", str(path)])
        assert code == 0
        assert data["basis"] == ["x2^2", "x1^2 - x2"]
        assert data["dimension"] == 4
        assert data["staircase"] == ["1", "x2", "x1", "x1*x2"]

    def test_positive_dimension_reports_null(self, capsys, tmp_path):
        path = tmp_path / "sys.txt"
        path.write_text("vars: x1 x2\nf: x1*x2\n")
        code, data = run(capsys, ["groebner", str(path)])
        assert code == 0
        assert data["dimension"] is None
        assert data["staircase"] is None

    def test_zero_system_reports_null(self, capsys, tmp_path):
        path = tmp_path / "sys.txt"
        path.write_text("vars: x\nf: 0\n")
        code, data = run(capsys, ["groebner", str(path)])
        assert code == 0
        assert data["basis"] == []
        assert data["dimension"] is None
        assert data["staircase"] is None

    def test_lex_order_honored(self, capsys, tmp_path):
        path = tmp_path / "sys.txt"
        path.write_text("vars: x1 x2\nf: x1^2 - x2, x2^2\norder: lex\n")
        code, data = run(capsys, ["groebner", str(path)])
        assert code == 0
        assert data["order"] == "lex"
        assert data["dimension"] == 4


class TestDegenerateInput:
    @pytest.mark.parametrize("system", ["1", "x, x - 1"])
    @pytest.mark.parametrize("command", [["dual-element"], ["verify", "thm4", "--file"]])
    def test_unit_ideal_has_dimension_zero(self, capsys, tmp_path, system, command):
        path = tmp_path / "sys.txt"
        path.write_text(f"vars: x\nf: {system}\n")
        code, data = run(capsys, [*command, str(path)])
        assert code == 0
        assert data["certificates"][0]["dimension"] == 0
        assert data["summary"]["failed"] == data["summary"]["not_found"] == 0

    def test_deep_nesting_exits_2(self, capsys, tmp_path):
        path = tmp_path / "sys.txt"
        path.write_text("vars: x\nf: " + "(" * 1200 + "x" + ")" * 1200 + "\n")
        code = main(["groebner", str(path)])
        assert code == 2
        assert "nested deeper" in capsys.readouterr().err

    def test_not_cocycle_exits_1(self, capsys, tmp_path, monkeypatch):
        def not_closed(*args, **kwargs):
            raise NotCocycleError("difference is not closed")

        monkeypatch.setattr(cli, "verify_theorem4", not_closed)
        path = tmp_path / "sys.txt"
        path.write_text("vars: x\nf: x^2\n")
        code = main(["dual-element", str(path)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: identity failure: difference is not closed\n"

    def test_unexpected_exception_exits_4(self, capsys, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "groebner", broken)
        path = tmp_path / "sys.txt"
        path.write_text("vars: x\nf: x\n")
        code = main(["groebner", str(path)])
        assert code == 4
        err = capsys.readouterr().err
        assert "Traceback" in err
        assert err.endswith("internal error: RuntimeError: boom\n")


# Malformed fragments spliced into otherwise valid system files.
JUNK = ("$", "^", "x^", "((", ")", "1/0", ",", "*", "2^-1", "9" * 5000, "x y", "é", "/")

# the commands and the kinds of system file ``hostile_runs`` draws
HOSTILE_COMMANDS = ("dual-element", "pair", "groebner", "thm4")
HOSTILE_KINDS = ("valid", "malformed", "constant", "nested")


@st.composite
def hostile_runs(draw, command=None, kind=None, exponent=None):
    """(arguments before the file, system file text) for one command on a
    generated system: valid, malformed, unit ideal, zero polynomial,
    s != n, positive dimensional, nested past the parser's cap, or paired
    against a huge exponent.  A valid system is zero-dimensional: each
    variable v has a polynomial v^a plus terms of lower degree, so the
    quotient's dimension is at most the product of the a, and up to two
    further polynomials make s != n (the unit ideal included).  Exponents in
    f stay at 4 or below, and at 3 or below with three variables, so that
    dimension is at most 27: the quotient's matrices are dense in it.
    Positive-dimensional systems come from a zero polynomial.  The command,
    the kind of file and ``pair``'s exponent are drawn unless given."""
    names = ("x", "y", "z")[: draw(st.integers(1, 3))]
    top = 4 if len(names) < 3 else 3

    def poly():
        terms = []
        for _ in range(draw(st.integers(1, 3))):
            mono = "*".join(f"{v}^{draw(st.integers(0, top))}" for v in names)
            terms.append(f"{draw(st.integers(-3, 3))}*{mono}")
        return " + ".join(terms)

    def led(v):
        """v^a plus up to two terms of total degree below a."""
        a = draw(st.integers(1, top))
        terms = [f"{v}^{a}"]
        for _ in range(draw(st.integers(0, 2))):
            left = draw(st.integers(0, a - 1))
            exps = []
            for _ in names:
                exps.append(draw(st.integers(0, left)))
                left -= exps[-1]
            mono = "*".join(f"{w}^{e}" for w, e in zip(names, exps))
            terms.append(f"{draw(st.integers(-3, 3))}*{mono}")
        return " + ".join(terms)

    def system(polys):
        """The file of ``polys``, spoilt as ``kind`` says."""
        if kind == "malformed":
            k = draw(st.integers(0, len(polys) - 1))
            cut = draw(st.integers(0, len(polys[k])))
            polys[k] = polys[k][:cut] + draw(st.sampled_from(JUNK)) + polys[k][cut:]
        elif kind == "constant":
            polys[draw(st.integers(0, len(polys) - 1))] = draw(st.sampled_from(("0", "1", "-2/3")))
        elif kind == "nested":
            depth = draw(st.sampled_from((99, 100, 101, 150)))
            polys[0] = "(" * depth + polys[0] + ")" * depth
        return f"vars: {' '.join(names)}\nf: {', '.join(polys)}\n"

    polys = [led(v) for v in names] + [poly() for _ in range(draw(st.integers(0, 2)))]
    if kind is None:
        kind = draw(st.sampled_from(HOSTILE_KINDS))
    text = system(polys)
    if command is None:
        command = draw(st.sampled_from(HOSTILE_COMMANDS))
    if command == "pair":
        k = exponent
        if k is None:
            k = draw(st.one_of(st.integers(0, 12), st.integers(0, 10**11)))
        if k > 12:
            # v^a - c v^b with c in {-1, 0, 1} has only 0 and roots of unity
            # as roots, so l(x^k) stays small; a root of another modulus
            # gives an exact value of about k digits (``large_root_pairs``)
            polys = []
            for v in names:
                a = draw(st.integers(1, top))
                c, b = draw(st.integers(-1, 1)), draw(st.integers(0, a - 1))
                polys.append(f"{v}^{a} - {c}*{v}^{b}")
            text = system(polys)
        return ["pair", "--poly", f"{names[-1]}^{k} + {draw(st.integers(-2, 2))}"], text
    if command == "thm4":
        return ["verify", "thm4", "--file"], text
    return [command], text


@st.composite
def large_root_pairs(draw):
    """(arguments before the file, system file text) for ``pair --poly
    v^k + d`` against v^a - c, 2 <= |c| <= 3, for each variable v: every
    root has modulus |c|^(1/a) > 1, so l(v^k) has on the order of k/a
    digits.  k has 2 to 11 digits, as many draws of each length, so the
    values fall on both sides of the 20,000-digit cap and far past it."""
    names = ("x", "y", "z")[: draw(st.integers(1, 3))]
    polys = []
    for v in names:
        a, c = draw(st.integers(1, 4)), draw(st.sampled_from((-3, -2, 2, 3)))
        polys.append(f"{v}^{a} - {c}")
    length = draw(st.integers(2, 11))
    k = draw(st.integers(10 ** (length - 1), 10**length - 1))
    text = f"vars: {' '.join(names)}\nf: {', '.join(polys)}\n"
    return ["pair", "--poly", f"{names[-1]}^{k} + {draw(st.integers(-2, 2))}"], text


def _assert_exit_contract(code, out, err):
    """0, 2 or 3; 1 only with a failed report; never 4."""
    assert code in (0, 1, 2, 3), err
    if code == 1:
        assert json.loads(out)["summary"]["failed"] > 0, out


def _run_on_file(argv, text):
    """(exit code, stdout, stderr) of ``main(argv + [file])``, the file
    holding ``text``."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/sys.txt"
        with open(path, "w") as fh:
            fh.write(text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + [path])
    return code, out.getvalue(), err.getvalue()


class TestHostileInput:
    """The exit-code contract on generated system files: 0, 2 or 3; 1 only
    with a failed report; never 4."""

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(hostile_runs())
    def test_exit_codes(self, run_args):
        _assert_exit_contract(*_run_on_file(*run_args))

    @pytest.mark.parametrize("kind", HOSTILE_KINDS)
    @pytest.mark.parametrize("command", HOSTILE_COMMANDS)
    @settings(max_examples=5, derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    def test_exit_codes_in_every_cell(self, command, kind, data):
        """Each command on each kind of file, so no cell of the contract
        rests on the draws of ``test_exit_codes``."""
        _assert_exit_contract(*_run_on_file(*data.draw(hostile_runs(command, kind))))

    @pytest.mark.parametrize("command", ["dual-element", "thm4", "pair"])
    def test_valid_files_reach_exit_0(self, command):
        """The valid cell is zero-dimensional by construction, so each
        command that needs a zero-dimensional system gets past the quotient
        and exits 0 on some of its draws."""
        codes = []

        @settings(max_examples=5, derandomize=True, database=None, deadline=None)
        @given(hostile_runs(command, "valid"))
        def run(run_args):
            code, out, err = _run_on_file(*run_args)
            _assert_exit_contract(code, out, err)
            codes.append(code)

        run()
        assert 0 in codes, codes

    @pytest.mark.parametrize("kind", HOSTILE_KINDS)
    @pytest.mark.parametrize("exponent", [10**3, 10**6, 10**9, 10**11])
    @settings(max_examples=3, derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    def test_pair_exit_codes_at_huge_exponents(self, exponent, kind, data):
        """``pair`` at exponents of 4 to 12 digits against roots that are 0
        or roots of unity, on each kind of file."""
        argv, text = data.draw(hostile_runs("pair", kind, exponent))
        assert f"^{exponent} + " in argv[2]
        _assert_exit_contract(*_run_on_file(argv, text))

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(large_root_pairs())
    def test_huge_powers_of_large_roots_exit_0_or_2(self, run_args):
        """A zero-dimensional system and a valid polynomial: the value is
        printed (0) or refused by the digit cap (2), never exit 4."""
        code, out, err = _run_on_file(*run_args)
        assert code in (0, 2), err
        if code == 2:
            assert "needs more than" in err and out == "", err

    @pytest.mark.parametrize("flag", [False, True])
    def test_witness_search_past_the_column_limit_exits_2(
        self, flag, capsys, monkeypatch, tmp_path
    ):
        """Degree bound 100 on ``thm3_b18.txt`` asks for 4 words x C(104, 4)
        monomials, 18.4 million candidate columns; the search refuses them
        before it builds a single monomial."""

        def unbuilt(gens, layer):
            raise AssertionError("monomials built past the column limit")

        monkeypatch.setattr(koszul, "_next_layer", unbuilt)
        text = (GOLDEN / "thm3_b18.txt").read_text()
        if flag:
            argv = ["--degree-bound", "100"]
        else:
            argv = []
            text = text.replace("degree-bound: 18", "degree-bound: 100")
        path = tmp_path / "sys.txt"
        path.write_text(text)
        code = main(["verify", "thm3", *argv, "--file", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == (
            "error: witness search at degree bound 100 has 18392504 candidates, "
            f"more than {koszul.WITNESS_COLUMN_LIMIT}\n"
        )

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["lemma1", "--count", "-3"], "--count must be >= 1, got -3"),
            (["lemma1", "--count", "0"], "--count must be >= 1, got 0"),
            (["lemma1", "--n", "0"], "--n must be >= 1, got 0"),
            (["lemma2", "--s", "0"], "--s must be >= 1, got 0"),
            (["lemma2", "--t", "-1"], "--t must be >= 0, got -1"),
            (["thm1", "--count", "0"], "--count must be >= 1, got 0"),
            (["lemma3", "--deg", "-1"], "--deg must be >= 0, got -1"),
            (["thm4", "--n", "-2"], "--n must be >= 1, got -2"),
            (["lemma1", "--t", "0"], "verify lemma1 made no report with these sizes"),
            (["thm1", "--t", "0"], "verify thm1 made no report with these sizes"),
            (["all", "--t", "0", "--count", "1"], "verify lemma1 made no report with these sizes"),
        ],
    )
    def test_sweep_size_below_its_least_exits_2(self, argv, message, capsys, monkeypatch):
        """A sweep-size flag below its least value, or a sweep that makes no
        report, is an input error: exit 2, nothing on stdout, and no suite
        runs when the flag itself is out of range."""
        monkeypatch.delenv("KOSZULKIT_SEED", raising=False)
        if "no report" not in message:
            for name in cli._SUITE_RUNNERS:
                monkeypatch.setitem(cli._SUITE_RUNNERS, name, None)
        assert main(["verify", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["thm2", "--t", "0", "--count", "1"],
            ["lemma3", "--n", "1", "--s", "1", "--deg", "0", "--count", "1"],
        ],
    )
    def test_least_sweep_sizes_run(self, argv, capsys, monkeypatch):
        monkeypatch.delenv("KOSZULKIT_SEED", raising=False)
        assert main(["verify", *argv]) == 0
        assert json.loads(capsys.readouterr().out)["summary"]["total"] > 0

    @pytest.mark.parametrize("limit, code", [(29_260, 0), (29_259, 2)])
    def test_column_limit_is_inclusive(self, limit, code, capsys, monkeypatch):
        # thm3_b18.txt has 4 words x C(22, 4) monomials: 29,260 candidates
        monkeypatch.setattr(koszul, "WITNESS_COLUMN_LIMIT", limit)
        assert main(["verify", "thm3", "--file", str(GOLDEN / "thm3_b18.txt")]) == code
        capsys.readouterr()


class TestDecimalRendering:
    """``cli._int_str`` and ``cli._frac_str`` against str() itself."""

    def values(self):
        rng = random.Random(1601)
        bits = [1, 64, 129, cli._DECIMAL_STR_BITS, cli._DECIMAL_STR_BITS + 1, 130_001]
        for b in bits:
            for _ in range(3):
                n = rng.getrandbits(b) | 1 << (b - 1)
                yield n
                yield -n
        for k in (0, 1, 12_041, 12_042, 40_000):
            yield 10**k
            yield 10**k - 1
            yield -(10**k)

    def test_ints_equal_str(self):
        with cli._any_digits():
            for n in self.values():
                assert cli._int_str(n) == str(n)

    def test_fractions_equal_str(self):
        with cli._any_digits():
            values = [n for n in self.values() if n]
            for num, den in zip(values[::4], values[1::4]):
                x = Fraction(num, abs(den))
                assert cli._frac_str(x) == str(x)
            assert cli._frac_str(3) == "3"


class TestInputDigest:
    """``cli._digest`` is sha256 from the interpreter's own module, so the
    CLI never maps OpenSSL's libcrypto."""

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(st.binary(max_size=300))
    def test_equals_hashlib_sha256(self, data):
        assert cli._digest(data) == hashlib.sha256(data).hexdigest()

    def test_import_leaves_hashlib_out(self):
        src = Path(cli.__file__).parents[1]
        probe = "import sys, koszulkit.cli; print('_hashlib' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "False\n"
