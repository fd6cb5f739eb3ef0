"""Parser and subcommand behavior, including exit codes."""
import os
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction

import pytest

import monobasis
from monobasis import GF, QQ, MonomialSet, MultiPoly, ParseError
from monobasis import cli
from monobasis.cli import _build_parser, load_system, main, parse_monomial_list, parse_poly

F5 = GF(5)


def test_parse_basic_over_q():
    p = parse_poly("2*x1^2*x2 - 1/3", 2, QQ)
    assert p == MultiPoly(QQ, 2, {(2, 1): Fraction(2), (0, 0): Fraction(-1, 3)})


def test_parse_canonical_residues_over_f5():
    p = parse_poly("x1^2 - 1", 2, F5)
    assert p == MultiPoly(F5, 2, {(2, 0): F5.one, (0, 0): F5.of(4)})


def test_parse_unknown_variable():
    with pytest.raises(ParseError):
        parse_poly("x4", 3, QQ)


def test_parse_sign_runs_and_implicit_products():
    p = parse_poly("- -3*x1 + x1*x1", 1, QQ)
    assert p == MultiPoly(QQ, 1, {(1,): Fraction(3), (2,): Fraction(1)})


def test_parse_reports_position():
    with pytest.raises(ParseError) as exc:
        parse_poly("x1 + @", 1, QQ)
    assert exc.value.position == 5


def test_parse_rejects_garbage():
    for text in ["", "x1 +", "* x1", "x1^", "x1^1/2", "2 2", "x1*"]:
        with pytest.raises(ParseError):
            if text == "2 2":
                # two numbers with no operator: second token is unexpected
                parse_poly(text, 1, QQ)
            else:
                parse_poly(text, 1, QQ)


def test_monomial_list():
    M = parse_monomial_list("1, x1, x2, x1*x2", 2, QQ)
    assert list(M) == [(0, 0), (1, 0), (0, 1), (1, 1)]
    with pytest.raises(ParseError):
        parse_monomial_list("1, 2*x1", 2, QQ)


def test_monomial_list_error_positions_count_from_the_whole_list():
    for text, position in [("1,x1,x2,x9", 8), ("1, 2*x1", 3), ("x1, x1 +", 7), ("1,,x1", 2)]:
        with pytest.raises(ParseError) as exc:
            parse_monomial_list(text, 2, QQ)
        assert exc.value.position == position, text


def reference_monomial_list(text, nvars, field):
    """The monomial-list contract, as first written: every entry goes
    through ``parse_poly`` and must come out as one term with coefficient
    one."""
    monos = []
    start = 0
    for entry in text.split(","):
        part = entry.strip()
        at = start + len(entry) - len(entry.lstrip())
        start += len(entry) + 1
        if not part:
            raise ParseError("empty entry in monomial list", at)
        try:
            p = parse_poly(part, nvars, field)
        except ParseError as exc:
            raise ParseError(exc.message, at + exc.position) from None
        supp = p.support()
        if len(supp) != 1 or p.terms[supp[0]] != field.one:
            raise ParseError(f"{part!r} is not a monomial", at)
        monos.append(supp[0])
    return MonomialSet(monos)


@pytest.mark.parametrize("nvars", [2, 3])
@pytest.mark.parametrize("field", [QQ, GF(101)], ids=["Q", "F101"])
def test_monomial_lists_keep_the_polynomial_parsers_contract(field, nvars, monkeypatch):
    """Plain monomials are read without ``parse_poly``; every spelling,
    read directly or not, accepted or not, gives the reference's exponents
    or its error message and list-wide position."""
    calls = []
    monkeypatch.setattr(cli, "parse_poly", lambda *args: calls.append(args) or parse_poly(*args))
    plain = ["x1*x1", "x2 * x1", " x1 ^ 2", "x1^0", "x1^007", "1"]
    parsed = ["1*x1", "2/2*x1", "x1 + x2 - x2"]
    for entry in plain + parsed:
        for text in (entry, f"x2^3,{entry} "):
            got = parse_monomial_list(text, nvars, field)
            assert got == reference_monomial_list(text, nvars, field), text
    assert [args[0] for args in calls] == [entry for entry in parsed for _ in range(2)]
    rejected = [f"x{nvars + 1}", "x1^", "x1**x2", "2*x1", "x1,,x2", "x0", "2", "0"]
    limit = sys.get_int_max_str_digits()
    if limit:  # a variable index and an exponent that int() refuses
        rejected += [f"x{'1' * (limit + 1)}", f"x1^{'1' * (limit + 1)}"]
    for entry in rejected:
        for text in (entry, f"1, x2 ,{entry}"):
            with pytest.raises(ParseError) as want:
                reference_monomial_list(text, nvars, field)
            with pytest.raises(ParseError) as exc:
                parse_monomial_list(text, nvars, field)
            assert (exc.value.message, exc.value.position) == (
                want.value.message, want.value.position
            ), text


def test_load_system_names_the_file_and_line_of_a_bad_polynomial(tmp_path, capsys):
    path = tmp_path / "sys.txt"
    path.write_text("degrees: 2,2\nx1^2-1\nx2^2-x3\n")
    with pytest.raises(ParseError) as exc:
        load_system(str(path), QQ)
    assert exc.value.position == 5
    assert str(exc.value).startswith(f"{path}, line 3: unknown variable x3")
    path.write_text("degrees: 2,2\nx1^2-1\n  x2^2-x3  # comment\n")
    assert main(["resultant", "--field", "q", "--system", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"parse error: {path}, line 3: unknown variable x3 (at position 7)\n"
    )


def test_load_system(tmp_path):
    path = tmp_path / "sys.txt"
    path.write_text(
        "# a comment\n"
        "degrees: 2, 2\n"
        "x1^2 - 1  # trailing comment\n"
        "\n"
        "x2^2 - 1\n"
    )
    sys_ = load_system(str(path), QQ)
    assert sys_.degrees == (2, 2)
    assert sys_.polys[0] == MultiPoly(QQ, 2, {(2, 0): Fraction(1), (0, 0): Fraction(-1)})


def test_load_system_declared_degree_above_actual(tmp_path):
    path = tmp_path / "sys.txt"
    path.write_text("degrees: 3, 2\nx1^2 - 1\nx2^2 - 1\n")
    sys_ = load_system(str(path), QQ)
    assert sys_.degrees == (3, 2)
    assert sys_.leading_forms().polys[0].is_zero()


def test_load_system_errors_name_the_file(tmp_path, capsys):
    path = tmp_path / "sys.txt"
    for text, after_path in (
        ("# no header\nx1^2 - 1\n", ", line 2: first line must declare `degrees: d1,..,dn`"),
        ("degrees: 2,x\nx1^2 - 1\nx2^2 - 1\n", ", line 1: bad degree list ' 2,x'"),
        ("degrees: 0,2\nx1^2 - 1\nx2^2 - 1\n", ", line 1: degrees must be positive integers"),
        ("# only a comment\n\n", ": missing degrees header"),
        ("degrees: 2,2\nx1^2 - 1\n", ": expected 2 polynomials, found 1"),
    ):
        path.write_text(text)
        assert main(["resultant", "--field", "q", "--system", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}{after_path}\n", text


def test_load_system_reads_past_a_byte_order_mark(tmp_path, capsys):
    text = "degrees: 2,2\nx1^2 - 1\nx2^2 - 1\n"
    answers = []
    for name, encoding in (("plain.txt", "utf-8"), ("bom.txt", "utf-8-sig")):
        path = tmp_path / name
        path.write_text(text, encoding=encoding)
        assert load_system(str(path), QQ) == load_system(str(tmp_path / "plain.txt"), QQ)
        code = main(["basis-check", "--field", "q", "--system", str(path),
                     "--monomials", "1,x1,x2,x1*x2"])
        answers.append((code, capsys.readouterr()))
    assert answers[0] == answers[1] and answers[0][0] == 0


@pytest.fixture
def grid22(tmp_path):
    path = tmp_path / "grid.txt"
    path.write_text("degrees: 2,2\nx1^2 - 1\nx2^2 - 1\n")
    return str(path)


def test_cli_hilbert(capsys):
    assert main(["hilbert", "--degrees", "2,2,2", "--tau", "3"]) == 0
    out = capsys.readouterr().out
    assert out.strip() == "H=8 h=1 rho=3 d=8"


def test_cli_huge_exponents(grid22, capsys):
    assert main(["hilbert", "--degrees", "2,2", "--tau", "99999999999"]) == 0
    assert capsys.readouterr().out == "H=4 h=0 rho=2 d=4\n"
    assert main(["hilbert", "--degrees", "99999999999", "--tau", "2"]) == 0
    assert capsys.readouterr().out == "H=3 h=1 rho=99999999998 d=99999999999\n"
    assert main(["hilbert", "--degrees", "2,1000000000", "--tau", "99999999999"]) == 0
    assert capsys.readouterr().out == "H=2000000000 h=0 rho=1000000000 d=2000000000\n"
    assert main(["basis-check", "--field", "q", "--system", grid22,
                 "--monomials", "x1^99999999999,x1,x2,x1*x2", "--oracle"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")
    # far below sys.maxsize monomials, but too many to eliminate
    for e in (10**9, 99999):
        assert main(["basis-check", "--field", "q", "--system", grid22,
                     "--monomials", f"x1^{e},x1,x2,x1*x2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")


def test_cli_basis_check_exit_codes(grid22, capsys):
    assert main([
        "basis-check", "--field", "q", "--system", grid22,
        "--monomials", "1,x1,x2,x1*x2", "--oracle",
    ]) == 0
    out = capsys.readouterr().out
    assert "verdict=basis" in out and "oracle=agree" in out

    assert main([
        "basis-check", "--field", "q", "--system", grid22,
        "--monomials", "1,x1,x1^2,x1^3",
    ]) == 1
    assert "verdict=not-basis" in capsys.readouterr().out


@pytest.mark.parametrize("field", ["q", "fp:101"])
def test_cli_basis_check_answers_where_the_extraneous_minor_vanishes(tmp_path, capsys, field):
    # Macaulay's extraneous minor of these leading forms vanishes at
    # rho+1..rho+3 although Res != 0; the certificate must still answer
    path = tmp_path / "sys.txt"
    path.write_text(
        "degrees: 2,2,2\n"
        "x1*x2 + x1*x3 + x2^2 + x1\n"
        "x1^2 - x1*x3 + x2*x3 + 1\n"
        "3*x1^2 - x2^2 + x3^2\n"
    )
    code = main([
        "basis-check", "--field", field, "--system", str(path),
        "--monomials", "1,x1,x2,x3,x1*x2,x1*x3,x2*x3,x1*x2*x3", "--oracle",
    ])
    out = capsys.readouterr().out
    assert code in (0, 1) and "oracle=agree" in out


def test_cli_usage_and_input_errors(grid22, tmp_path, capsys):
    assert main(["basis-check", "--field", "q", "--system", grid22,
                 "--monomials", "1,x1,x2,x4"]) == 2
    assert main(["basis-check", "--field", "q", "--system", "/nonexistent",
                 "--monomials", "1"]) == 2
    assert main(["no-such-command"]) == 2
    assert main(["hilbert", "--degrees", "2,x", "--tau", "1"]) == 2
    capsys.readouterr()
    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"degrees: 2\n\xff\xfe x1^2\n")
    assert main(["resultant", "--field", "q", "--system", str(binary)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    path = tmp_path / "sys.txt"
    for text in (
        "x1^2 - 1\nx2^2 - 1\n",  # no degrees header
        "# only a comment\n\n",
        "degrees: 2,2\nx1^2 - 1\n",  # fewer polynomials than declared
    ):
        path.write_text(text)
        assert main(["resultant", "--field", "q", "--system", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error:"), text
    path.write_text("degrees: 2,2,2\nx1^2 - 1\nx2^2 - 1\nx3^2 - 1\n")
    for argv in (
        ["resultant", "--field", "fp:abc", "--system", grid22],
        ["vandermonde-verify", "--degrees", "3", "--field", "fp:11"],  # no cube roots of 1
        ["upsilon", "--field", "q", "--system", str(path)],  # three variables
    ):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error:"), argv


def test_zero_denominator_is_a_parse_error(grid22, tmp_path, capsys):
    with pytest.raises(ParseError) as exc:
        parse_poly("1/0*x1", 1, QQ)
    assert exc.value.position == 0
    path = tmp_path / "sys.txt"
    path.write_text("degrees: 2,2\nx1^2 - 1/0\nx2^2 - 1\n")
    assert main(["basis-check", "--field", "q", "--system", str(path),
                 "--monomials", "1,x1,x2,x1*x2"]) == 2
    assert capsys.readouterr().err.startswith("parse error:")
    # a coefficient with no value in F_13 is placed like any other bad term
    path.write_text("degrees: 2,2\nx1^2 - 1/13\nx2^2 - 1\n")
    assert main(["resultant", "--field", "fp:13", "--system", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"parse error: {path}, line 2: denominator not invertible modulo 13 (at position 7)\n"
    )
    for g in ("1/0*x1", "x1 + 3/00"):
        assert main(["mulmat", "--field", "fp:101", "--system", grid22,
                     "--monomials", "1,x1,x2,x1*x2", "--g", g]) == 2
        assert capsys.readouterr().err.startswith("parse error:")


# one case per token kind that holds digits, over the three inputs that
# are parsed as polynomials; N stands for a number one digit longer than
# the interpreter's int-string limit
@pytest.mark.parametrize("where, template, position", [
    ("g", "N*x1", 0),  # coefficient
    ("g", "x1 + 1/N", 7),  # denominator
    ("g", "x1^N", 3),  # exponent
    ("monomials", "1,x1,x2,xN", 9),  # variable index
    ("monomials", "1,x1,x2,x1*x2^N", 14),  # exponent
    ("system", "x2^2 - N", 7),  # coefficient
    ("system", "x2^2 - xN", 8),  # variable index
])
def test_numbers_past_the_int_string_limit_are_parse_errors(
    grid22, tmp_path, capsys, where, template, position
):
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("this interpreter converts ints of any length")
    text = template.replace("N", "9" * (limit + 1))
    monomials, g = "1,x1,x2,x1*x2", "x1"
    system = grid22
    if where == "g":
        g = text
    elif where == "monomials":
        monomials = text
    else:
        system = tmp_path / "long.txt"
        system.write_text(f"degrees: 2,2\nx1^2 - 1\n{text}\n")
    assert main(["mulmat", "--field", "q", "--system", str(system),
                 "--monomials", monomials, "--g", g]) == 2
    place = f"{system}, line 3: " if where == "system" else ""
    assert capsys.readouterr().err == (
        f"parse error: {place}number too long ({limit + 1} digits) (at position {position})\n"
    )


def test_results_past_the_int_string_limit_print_in_full(tmp_path, capsys):
    """Res(-c x1^2, c x2) = -c^3 for a 3000-digit c has 9000 digits, past the
    default int-string limit: it is printed in full, the limit unchanged."""
    limit = sys.get_int_max_str_digits()
    c = 2 * 10**2999 + 1
    path = tmp_path / "long.txt"
    path.write_text(f"degrees: 2,1\n-{c}*x1^2\n{c}*x2\n")
    assert main(["resultant", "--field", "q", "--system", str(path)]) == 0
    assert capsys.readouterr().out == f"res={Decimal(-c**3)}\n"
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize("header", ["degrees: 2,x", "degrees:", "degrees: 0,2"])
def test_cli_malformed_degrees_header(tmp_path, capsys, header):
    path = tmp_path / "sys.txt"
    path.write_text(f"{header}\nx1^2 - 1\nx2^2 - 1\n")
    assert main(["resultant", "--field", "q", "--system", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_cli_parser_is_built_once_and_keeps_no_state(grid22, monkeypatch, capsys):
    """After a usage error, each call prints what a fresh process prints;
    so does every subcommand that reads its inputs in ``main``."""
    assert _build_parser() is _build_parser()
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines to the terminal
    monkeypatch.setenv("PYTHONPATH", os.path.dirname(os.path.dirname(monobasis.__file__)))
    assert main(["no-such-command"]) == 2
    capsys.readouterr()
    inputs = ["--field", "q", "--system", grid22]
    grid_basis = ["--monomials", "1,x1,x2,x1*x2"]
    for argv in (
        ["hilbert", "--degrees", "2,2,2", "--tau", "3"],
        ["basis-check", "--field", "q"],
        ["hilbert", "--degrees", "2,3", "--tau", "2"],
        ["resultant", *inputs],
        ["subresultant", *inputs, *grid_basis, "--degree", "3"],
        ["basis-check", *inputs, *grid_basis, "--oracle"],
        ["factor", *inputs, *grid_basis],
        ["upsilon", *inputs],
        ["mulmat", *inputs, *grid_basis, "--g", "x1 + 2*x2"],
        ["vandermonde-verify", "--degrees", "2,2", "--field", "fp:13",
         "--set", "custom", "--monomials", "1,x1,x2,x1*x2"],
    ):
        code = main(argv)
        out, err = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-m", "monobasis.cli", *argv],
            capture_output=True, text=True, timeout=60,
        )
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)


def test_cli_resultant_and_subresultant(grid22, capsys):
    assert main(["resultant", "--field", "q", "--system", grid22]) == 0
    assert capsys.readouterr().out.strip() == "res=1"
    assert main([
        "subresultant", "--field", "q", "--system", grid22,
        "--monomials", "1,x1,x2,x1*x2",
    ]) == 0
    out = capsys.readouterr().out
    assert "t=2" in out and "delta=" in out


def test_cli_vandermonde(capsys):
    assert main([
        "vandermonde-verify", "--degrees", "2,2", "--field", "fp:13", "--set", "m0",
    ]) == 0
    out = capsys.readouterr().out
    assert "residual=0" in out
    assert "exact_sign=yes" in out
    # over Q only the roots of unity of orders 1 and 2 exist
    assert main(["vandermonde-verify", "--degrees", "1,2", "--field", "q"]) == 0
    assert capsys.readouterr().out.split() == [
        "det=-2", "jacobian=-4", "res=1", "delta=1", "t=1", "sign=-1",
        "residual=0", "exact_sign=yes",
    ]
    assert main(["vandermonde-verify", "--degrees", "3,2", "--field", "q"]) == 2
    assert capsys.readouterr().err.startswith("error:")
    custom = ["vandermonde-verify", "--degrees", "2,2", "--field", "fp:13", "--set", "custom"]
    assert main([*custom, "--monomials", "1,x1,x2,x1*x2"]) == 0
    out = capsys.readouterr().out
    assert "residual=0" in out and "t=2" in out
    assert main(custom) == 2
    assert capsys.readouterr().err == "error: --set custom requires --monomials\n"
    # an explicit --monomials is never dropped: it needs --set custom
    m0 = ["vandermonde-verify", "--degrees", "2,2", "--field", "fp:13"]
    for argv in ([*m0, "--monomials", "1,x9,garbage"],
                 [*m0, "--set", "m0", "--monomials", "1,x1,x2,x1*x2"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --monomials requires --set custom\n"
    # each variable's roots are zeta^0..zeta^(d-1) with zeta = 2^2 = 4 of order 3
    assert main(["vandermonde-verify", "--degrees", "3", "--field", "fp:7"]) == 0
    assert capsys.readouterr().out.split()[0] == "det=1"


def test_cli_vandermonde_needs_no_factoring_of_p_minus_1(capsys):
    # p - 1 = 2 * 691183853 * 741616741: finding a generator of F_p^x by
    # trial division of p - 1 takes most of a minute
    start = time.perf_counter()
    assert main(["vandermonde-verify", "--degrees", "2,2",
                 "--field", "fp:1025187032987366147"]) == 0
    assert time.perf_counter() - start < 5
    assert "residual=0" in capsys.readouterr().out


def test_cli_vandermonde_refuses_a_root_grid_too_large_to_hold(capsys):
    # 172472412199 divides p - 1, so the roots exist; their grid would not fit
    assert main(["vandermonde-verify", "--degrees", "172472412199",
                 "--field", "fp:17592186044299"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


def test_cli_system_with_an_identically_zero_polynomial(tmp_path, capsys):
    path = tmp_path / "sys.txt"
    for zero in ("0", "x1 - x1"):
        path.write_text(f"degrees: 2,2\nx1^2 - 1\n{zero}\n")
        assert main(["basis-check", "--field", "q", "--system", str(path),
                     "--monomials", "1,x1,x2,x1*x2", "--oracle"]) == 1
        assert capsys.readouterr().out.split() == [
            "res=0", "delta=0", "t=2", "product=0", "verdict=not-basis", "oracle=agree",
        ]


def test_cli_factor_and_mulmat(grid22, capsys):
    assert main(["factor", "--field", "q", "--system", grid22,
                 "--monomials", "1,x1,x2,x1*x2"]) == 0
    assert "applicable=yes" in capsys.readouterr().out
    assert main(["mulmat", "--field", "q", "--system", grid22,
                 "--monomials", "1,x1,x2,x1*x2", "--g", "x1"]) == 0
    out = capsys.readouterr().out
    assert "kernel_dim=0" in out and "det=1" in out
    # g = 0: every basis element maps to zero
    for g in ("0", "x1 - x1"):
        assert main(["mulmat", "--field", "q", "--system", grid22,
                     "--monomials", "1,x1,x2,x1*x2", "--g", g]) == 0
        assert capsys.readouterr().out.split() == ["kernel_dim=4", "det=0"]


def test_cli_upsilon(tmp_path, capsys):
    path = tmp_path / "b.txt"
    path.write_text("degrees: 2,3\nx1^2 + x2 - 1\nx2^3 + x1\n")
    code = main(["upsilon", "--field", "q", "--system", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("upsilon=")
    # the closed form needs the lower degree first
    path.write_text("degrees: 3,2\nx2^3 + x1\nx1^2 + x2 - 1\n")
    assert main(["upsilon", "--field", "q", "--system", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


# Exact basis-check values on fixed dense systems.  The delta= value is the
# shuffle-signed descending torsion, which no choice of minors can move, so
# these pins catch a change of sign convention.
DENSE_322_Q = """degrees: 3,2,2
-2*x3^3 + x2*x3^2 + 3*x2^2*x3 + 3*x2^3 + 3*x1*x3^2 - 3*x1*x2*x3 - x1*x2^2 - 3*x1^2*x3 + 3*x1^3 + 2*x2^2 + 3*x1*x2 - 2*x1^2 - 3*x3 - 3*x1 + 3
x2^2 + 3*x1*x3 + 3*x1*x2 - 3*x1^2 + 2*x3 - x1 + 2
3*x3^2 - 2*x2*x3 + x2^2 - 3*x1*x3 - x1*x2 - 3*x1^2 - 3*x3 - 3*x2 + 2*x1 + 1
"""

DENSE_2222_F101 = """degrees: 2,2,2,2
-x4^2 - 2*x3*x4 + 2*x2*x4 - 3*x2*x3 - 3*x2^2 + 3*x1*x4 + x1*x3 - 3*x1*x2 - x1^2 + x4 - 3*x3 + x2 - 2*x1 - 3
-3*x4^2 - 3*x2*x4 - 2*x2*x3 - 3*x2^2 + x1*x4 - 3*x1*x2 + 3*x1^2 + x4 - 3*x3 - 2*x2 + 2*x1 + 2
x4^2 - 3*x3*x4 + x3^2 + x2*x4 - 3*x2^2 - 2*x1*x4 - 3*x1*x3 + x1*x2 + 3*x1^2 - 2*x4 - x3 - 2*x1 + 1
-3*x4^2 + x3*x4 - x3^2 + x2*x4 + 3*x2*x3 + 2*x2^2 - 2*x1*x4 - 3*x1*x3 + x1*x2 + x1^2 + 2*x4 - 2*x3 - x2 - 3*x1 + 1
"""

M0_322 = "1,x3,x2,x2*x3,x1,x1*x3,x1*x2,x1*x2*x3,x1^2,x1^2*x3,x1^2*x2,x1^2*x2*x3"
M0_2222 = ("1,x4,x3,x3*x4,x2,x2*x4,x2*x3,x2*x3*x4,"
           "x1,x1*x4,x1*x3,x1*x3*x4,x1*x2,x1*x2*x4,x1*x2*x3,x1*x2*x3*x4")


@pytest.mark.parametrize(
    "system, field, monomials, expected",
    [
        (DENSE_322_Q, "q", M0_322,
         ["res=949693059", "delta=-59078732265", "t=4",
          "product=-56106661966589848635"]),
        # M0 with its top monomial times x1: delta(M) = rho + 1
        (DENSE_322_Q, "q", M0_322.replace("x1^2*x2*x3", "x1^3*x2*x3"),
         ["res=949693059", "delta=-68021189532034600365", "t=5",
          "product=-64599251563496718114479366535"]),
        (DENSE_2222_F101, "fp:101", M0_2222,
         ["res=12", "delta=42", "t=4", "product=100"]),
        (DENSE_2222_F101, "fp:101", M0_2222.replace("x1*x2*x3*x4", "x1^2*x2*x3*x4"),
         ["res=12", "delta=62", "t=5", "product=37"]),
    ],
    ids=["Q-322-M0", "Q-322-lifted", "F101-2222-M0", "F101-2222-lifted"],
)
def test_cli_basis_check_pinned_values(tmp_path, capsys, system, field, monomials, expected):
    path = tmp_path / "dense.txt"
    path.write_text(system)
    assert main(["basis-check", "--field", field, "--system", str(path),
                 "--monomials", monomials]) == 0
    assert capsys.readouterr().out.split() == expected + ["verdict=basis"]
