"""Command-line front end.

Input grammar for polynomials: terms joined by `+`/`-`; a term is an
optional coefficient (`int` or `int/int`), optionally followed by `*` and
a monomial; a monomial is `x<k>` factors (each with an optional `^<e>`)
joined by `*`.  A monomial list (`--monomials`) is comma-separated, and
each entry must read as a single term with coefficient one; `1` and plain
products of factors are read directly, without the polynomial parser, and
the grammar is the same either way.

`--field` (`q` or `fp:<p>`), `--system` (a system file, see
`load_system`) and `--monomials` (a comma-separated monomial list) mean
the same in every subcommand that takes them, and `main` reads them in
that order, each against the ones before it.

Reports are line-oriented `key=value` with a stable key order; exit code
0 means success (or "is a basis"), 1 means a negative verdict or a failed
identity, and 2 means bad usage or bad input.
"""
from __future__ import annotations

import argparse
import functools
import re
import sys
from fractions import Fraction

from .certify import (
    certify_basis,
    factorize_delta,
    multiplication_matrix,
    rank_oracle,
    upsilon_bivariate,
    vandermonde_verify,
)
from .errors import AlgebraError, InputError, ParseError
from .fields import field_from_spec
from .hilbert import DegreeProfile, hilbert_H, hilbert_h
from .polynomials import MonomialSet, MultiPoly, PolySystem, m0_set
from .resultants import resultant_macaulay
from .rootsystems import power_system
from .subresultants import subresultant_delta

__all__ = ["main", "parse_poly", "parse_monomial_list", "load_system"]

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+/\d+|\d+)|(?P<var>x\d+)|(?P<caret>\^)|(?P<star>\*)"
    r"|(?P<plus>\+)|(?P<minus>-)|(?P<bad>\S))"
)


def _tokenize(text: str):
    """(kind, text, position) for each token; kind is the name of its group."""
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m[kind]!r}", m.start(kind))
        tokens.append((kind, m[kind], m.start(kind)))
    return tokens


def _int(text: str, pos: int) -> int:
    """A token's digits as an int; a ParseError past the interpreter's
    int-string limit (``sys.get_int_max_str_digits``)."""
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"number too long ({len(text)} digits)", pos) from None


def parse_poly(text: str, nvars: int, field) -> MultiPoly:
    """Parse a polynomial in variables x1..x<nvars> over the given field."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty polynomial", 0)
    terms = {}
    i = 0
    while i < len(tokens):
        if i and tokens[i][0] not in ("plus", "minus"):
            raise ParseError("terms must be joined by '+' or '-'", tokens[i][2])
        sign = 1
        while i < len(tokens) and tokens[i][0] in ("plus", "minus"):
            if tokens[i][0] == "minus":
                sign = -sign
            i += 1
        if i >= len(tokens):
            raise ParseError("dangling sign", tokens[-1][2])
        coeff = 1  # an int until a p/q token, a field element once stored
        mono = [0] * nvars
        while True:
            kind, value, pos = tokens[i]
            if kind == "num":
                top, _, bottom = value.partition("/")
                num = _int(top, pos)
                if bottom:
                    den = _int(bottom, pos + len(top) + 1)
                    if not den:
                        raise ParseError(f"zero denominator in {value}", pos)
                    try:
                        num = field.of(Fraction(num, den))
                    except InputError as exc:  # no value in F_p
                        raise ParseError(str(exc), pos) from None
                coeff = coeff * num
            elif kind == "var":
                k = _int(value[1:], pos + 1)
                if not 1 <= k <= nvars:
                    raise ParseError(f"unknown variable {value}", pos)
                e = 1
                if i + 1 < len(tokens) and tokens[i + 1][0] == "caret":
                    if i + 2 >= len(tokens) or tokens[i + 2][0] != "num" or "/" in tokens[i + 2][1]:
                        raise ParseError("exponent must be a non-negative integer", tokens[i + 1][2])
                    e = _int(tokens[i + 2][1], tokens[i + 2][2])
                    i += 2
                mono[k - 1] += e
            else:
                raise ParseError(f"unexpected token {value!r}", pos)
            i += 1
            if i < len(tokens) and tokens[i][0] == "star":
                i += 1
                if i >= len(tokens):
                    raise ParseError("dangling '*'", tokens[-1][2])
                continue
            break
        mono = tuple(mono)
        terms[mono] = terms.get(mono, 0) + (coeff if sign > 0 else -coeff)
    return MultiPoly(field, nvars, {m: field.of(c) for m, c in terms.items()})


# `1`, or x<k> and x<k>^<e> factors joined by `*`, spaced as the
# tokenizer allows
_FACTOR = r"x(\d+)(?:\s*\^\s*(\d+))?"
_PLAIN = re.compile(rf"1|{_FACTOR}(?:\s*\*\s*{_FACTOR})*")
_FACTORS = re.compile(_FACTOR)


def _plain_monomial(text: str, nvars: int):
    """The exponents of ``text`` if it is a plain monomial in x1..x<nvars>,
    as ``parse_poly`` reads it; otherwise None."""
    if not _PLAIN.fullmatch(text):
        return None
    mono = [0] * nvars
    try:
        for k, e in _FACTORS.findall(text):
            k = int(k)
            if not 1 <= k <= nvars:
                return None
            mono[k - 1] += int(e) if e else 1
    except ValueError:  # digits past the int-string limit
        return None
    return tuple(mono)


def parse_monomial_list(text: str, nvars: int, field) -> MonomialSet:
    """Comma-separated monomials (`1` for the constant) -> MonomialSet.

    An entry is any polynomial that ``parse_poly`` reads as one term with
    coefficient one.  Plain monomials, `1` or products of `x<k>` and
    `x<k>^<e>` factors, are read directly; every other entry, and every
    error, goes through ``parse_poly``.  Error positions count from the
    start of ``text``.
    """
    monos = []
    start = 0
    for entry in text.split(","):
        part = entry.strip()
        at = start + len(entry) - len(entry.lstrip())
        start += len(entry) + 1
        if not part:
            raise ParseError("empty entry in monomial list", at)
        mono = _plain_monomial(part, nvars)
        if mono is None:
            try:
                p = parse_poly(part, nvars, field)
            except ParseError as exc:
                raise ParseError(exc.message, at + exc.position) from None
            supp = p.support()
            if len(supp) != 1 or p.terms[supp[0]] != field.one:
                raise ParseError(f"{part!r} is not a monomial", at)
            mono = supp[0]
        monos.append(mono)
    return MonomialSet(monos)


def load_system(path: str, field) -> PolySystem:
    """Read a system file: `degrees: d1,..,dn` header, then one poly per line."""
    degrees = None
    polys = []
    try:
        # utf-8-sig: a byte order mark, as some editors save one, is not text
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc.reason}") from None
    for number, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if degrees is None:
            where = f"{path}, line {number}: "
            if not line.lower().startswith("degrees:"):
                raise InputError(where + "first line must declare `degrees: d1,..,dn`")
            try:
                degrees = _degrees_arg(line.split(":", 1)[1])
            except InputError as exc:
                raise InputError(where + str(exc)) from None
            continue
        try:
            polys.append(parse_poly(line, len(degrees), field))
        except ParseError as exc:
            at = len(raw) - len(raw.lstrip()) + exc.position
            raise ParseError(f"{path}, line {number}: {exc.message}", at) from None
    if degrees is None:
        raise InputError(f"{path}: missing degrees header")
    if len(polys) != len(degrees):
        raise InputError(f"{path}: expected {len(degrees)} polynomials, found {len(polys)}")
    return PolySystem(polys, degrees)


# ---------------------------------------------------------------------------
# subcommands


def _degrees_arg(text: str) -> tuple:
    try:
        ds = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise InputError(f"bad degree list {text!r}")
    if not ds or any(d < 1 for d in ds):
        raise InputError("degrees must be positive integers")
    return ds


def _cmd_hilbert(args) -> int:
    profile = DegreeProfile(_degrees_arg(args.degrees))
    print(
        f"H={hilbert_H(profile, args.tau)}"
        f" h={hilbert_h(profile, args.tau)}"
        f" rho={profile.rho}"
        f" d={profile.bezout}"
    )
    return 0


def _cmd_resultant(args) -> int:
    res = resultant_macaulay(args.system.leading_forms())
    print(f"res={args.field.format(res)}")
    return 0


def _cmd_subresultant(args) -> int:
    M = args.monomials
    t = M.delta if args.degree is None else args.degree
    sub = subresultant_delta(args.system.homogenized(), t, M.homogenized_at(t))
    print(f"t={t}")
    print(f"delta={args.field.format(sub)}")
    return 0


def _cmd_basis_check(args) -> int:
    field, sys_, M = args.field, args.system, args.monomials
    cert = certify_basis(sys_, M)
    print(f"res={field.format(cert.res_value)}")
    print(f"delta={field.format(cert.delta_value)}")
    print(f"t={cert.t_used}")
    print(f"product={field.format(cert.product)}")
    print(f"verdict={cert.verdict}")
    if args.oracle:
        agrees = rank_oracle(sys_, M) == cert.is_basis
        print(f"oracle={'agree' if agrees else 'DISAGREE'}")
        if not agrees:
            print("internal error: oracle disagrees with certificate", file=sys.stderr)
            return 2
    return 0 if cert.is_basis else 1


def _cmd_factor(args) -> int:
    field = args.field
    report = factorize_delta(args.system.leading_forms(), args.monomials)
    print(f"applicable={'yes' if report.applicable else 'no'}")
    for t, value in report.factors:
        print(f"factor.{t}={field.format(value)}")
    if report.applicable:
        print(f"product={field.format(report.product)}")
    return 0 if report.applicable else 1


def _cmd_vandermonde(args) -> int:
    field = args.field
    degrees = _degrees_arg(args.degrees)
    sys_, roots = power_system(field, degrees, [1] * len(degrees))
    if args.set == "m0":
        if args.monomials is not None:
            raise InputError("--monomials requires --set custom")
        M = m0_set(degrees)
    else:
        if not args.monomials:
            raise InputError("--set custom requires --monomials")
        M = parse_monomial_list(args.monomials, len(degrees), field)
    report = vandermonde_verify(sys_, roots, M)
    print(f"det={field.format(report.det_value)}")
    print(f"jacobian={field.format(report.jacobian_product)}")
    print(f"res={field.format(report.resultant_value)}")
    print(f"delta={field.format(report.subresultant_value)}")
    print(f"t={report.t_used}")
    print(f"sign={report.matched_sign if report.holds else 'none'}")
    print(f"residual={field.format(report.identity_residual)}")
    if report.disp_exact is not None:
        print(f"exact_sign={'yes' if report.disp_exact else 'no'}")
    return 0 if report.holds else 1


def _cmd_upsilon(args) -> int:
    sys_ = args.system
    if sys_.n != 2:
        raise InputError("upsilon is defined for bivariate systems only")
    value = upsilon_bivariate(*sys_.polys, *sys_.degrees)
    print(f"upsilon={args.field.format(value)}")
    return 0


def _cmd_mulmat(args) -> int:
    g = parse_poly(args.g, args.system.nvars, args.field)
    mm = multiplication_matrix(args.system, args.monomials, g)
    print(f"kernel_dim={mm.kernel_dim}")
    print(f"det={args.field.format(mm.det())}")
    return 0


def _required(flag: str) -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(flag, required=True)
    return parent


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monobasis",
        description="certify monomial bases of zero-dimensional quotient algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    takes_field = [_required("--field")]
    takes_system = takes_field + [_required("--system")]
    takes_monomials = takes_system + [_required("--monomials")]

    p = sub.add_parser("hilbert", help="Hilbert function values for a degree profile")
    p.add_argument("--degrees", required=True)
    p.add_argument("--tau", type=int, required=True)
    p.set_defaults(func=_cmd_hilbert)

    p = sub.add_parser("resultant", parents=takes_system,
                       help="resultant of the leading forms")
    p.set_defaults(func=_cmd_resultant)

    p = sub.add_parser("subresultant", parents=takes_monomials,
                       help="subresultant of the homogenized system")
    p.add_argument("--degree", type=int, default=None)
    p.set_defaults(func=_cmd_subresultant)

    p = sub.add_parser("basis-check", parents=takes_monomials,
                       help="certify a candidate monomial basis")
    p.add_argument("--oracle", action="store_true")
    p.set_defaults(func=_cmd_basis_check)

    p = sub.add_parser("factor", parents=takes_monomials,
                       help="factor the certificate into degree slices")
    p.set_defaults(func=_cmd_factor)

    p = sub.add_parser("vandermonde-verify", parents=takes_field,
                       help="check the Vandermonde identity on a roots-of-unity system")
    p.add_argument("--degrees", required=True)
    p.add_argument("--set", choices=("m0", "custom"), default="m0")
    p.add_argument("--monomials", default=None)
    p.set_defaults(func=_cmd_vandermonde)

    p = sub.add_parser("upsilon", parents=takes_system,
                       help="closed-form bivariate Vandermonde quotient")
    p.set_defaults(func=_cmd_upsilon)

    p = sub.add_parser("mulmat", parents=takes_monomials,
                       help="multiplication matrix in a certified basis")
    p.add_argument("--g", required=True)
    p.set_defaults(func=_cmd_mulmat)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        # the inputs every subcommand shares, read in this order; the
        # optional --monomials of vandermonde-verify has no system and is
        # read against --degrees by the subcommand
        if "field" in args:
            args.field = field_from_spec(args.field)
        if "system" in args:
            args.system = load_system(args.system, args.field)
            if "monomials" in args:
                args.monomials = parse_monomial_list(args.monomials, args.system.nvars, args.field)
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (AlgebraError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
