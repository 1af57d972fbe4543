"""Command-line front end: deterministic CSV/JSON tables for every harness.

Output discipline: identical arguments produce byte-identical output.  All
rational values are rendered as fixed 6-fractional-digit decimals computed
from exact integers with round-half-even, so no float formatting is on the
byte path.  Files are written to a temporary sibling and renamed into place;
a failed run never leaves a partial file.

Exit codes: 0 success, 2 for domain/usage errors (bad arguments, violated
preconditions), 1 for internal failures (no decomposition found, engine
contradictions, unexpected exceptions).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import tempfile
from fractions import Fraction
from operator import attrgetter
from typing import Any, Iterable, Sequence

from .errors import ConfigurationError, DecompositionError, DomainError, InvariantViolationError
from .goldbach import decompose_m, decomposition_reach, sn_scan, tail_frobenius, ternary_decomp
from .intervals import (
    build_interval_semigroup,
    figure_grid,
    interval_upper,
    parse_lambda,
    ratio_scan,
)
from .primes import MAX_WORKERS, PrimeTable, _checked_limit
from .semigroup import apery_set, normalize_generators
from .wilf import density, verify_sp_range, wilf_report

ENV_SIEVE_LIMIT = "PRIMEFROB_SIEVE_LIMIT"
ENV_THREADS = "PRIMEFROB_THREADS"


def _decimal6(num: int, den: int) -> str:
    """num/den (den > 0, in any terms) with 6 fractional digits, round-half-even.
    Adding den/2 rounds half up, and a zero remainder marks a tie, which goes
    to the even neighbour: exact integers throughout, no float or Fraction."""
    q, r = divmod(abs(num) * 2 * 10**6 + den, 2 * den)
    if not r and q & 1:
        q -= 1
    digits = "%07d" % q
    return f"{'-' if num < 0 else ''}{digits[:-6]}.{digits[-6:]}"


def decimal6(value: Fraction | int) -> str:
    """_decimal6 of an int or Fraction, from its numerator and denominator."""
    return _decimal6(value.numerator, value.denominator)


def _cell_csv(v: Any) -> Any:
    """A cell for csv.writer, which writes ints itself and None as ""."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, Fraction):
        return decimal6(v)
    if isinstance(v, tuple):
        return ";".join(map(str, v))
    return v


def _render(columns: Sequence[str], rows: Iterable[tuple], fmt: str) -> str:
    """Each row is a tuple in column order, and each column holds one type
    or None.  csv.writer writes int, str and None itself, so the first row
    decides once which columns go through _cell_csv: those that start with
    a bool, Fraction or tuple, or with a None that may stand for any type."""
    if fmt == "json":
        # json writes tuples as lists and hands each Fraction to decimal6
        return "".join(json.dumps(dict(zip(columns, row)), default=decimal6) + "\n" for row in rows)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    rows = iter(rows)
    first = next(rows, ())
    todo = [i for i, v in enumerate(first) if type(v) is not int and type(v) is not str]

    def cells(row: tuple) -> list:
        row = list(row)
        for i in todo:
            row[i] = _cell_csv(row[i])
        return row

    if first:
        writer.writerow(cells(first))
    writer.writerows(map(cells, rows) if todo else rows)
    return buf.getvalue()


def _write_atomically(path: str, content: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    umask = os.umask(0)
    os.umask(umask)
    try:
        fd, tmp = tempfile.mkstemp(prefix=".primefrob-", dir=directory)
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(content)
                # mkstemp creates 0600; give the mode a plain open would
                os.fchmod(fh.fileno(), 0o666 & ~umask)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise ConfigurationError(f"cannot write {path}: {exc.strerror or exc}") from None


def _emit(args, columns: Sequence[str], rows: Iterable[tuple], summary: str | None = None) -> None:
    content = _render(columns, rows, args.format)
    if args.output:
        _write_atomically(args.output, content)
        if summary:
            print(summary)
    else:
        sys.stdout.write(content)
        if summary:
            print(summary, file=sys.stderr)


def _setting(args, name: str, env: str) -> int | None:
    """The option ``name`` if given, else the integer in ``env``, else None."""
    value = getattr(args, name, None)
    if value is not None:
        return value
    text = os.environ.get(env)
    if not text:
        return None
    try:
        return int(text)
    except ValueError:
        raise DomainError(f"{env}={text!r} is not an integer") from None


def _resolve_threads(args) -> int:
    value = _setting(args, "threads", ENV_THREADS)
    if value is None:
        # the CPUs in this process's affinity mask, where the platform has one
        value = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                 else os.cpu_count() or 1)
        return min(value, MAX_WORKERS)
    if value < 1:
        raise DomainError(f"thread count must be >= 1, got {value}")
    if value > MAX_WORKERS:
        raise DomainError(f"thread count must be <= {MAX_WORKERS}, got {value}")
    return value


def _table_reaching(args, needed: int) -> PrimeTable:
    """A sieve reaching ``needed``.  A configured limit (--sieve-limit, else
    the environment) is its ceiling, which neither it nor any table grown
    from it may pass; a need beyond it is refused before the sieve."""
    return PrimeTable(max(needed, 2), args.sieve_limit)


def _parse_range(text: str) -> tuple[int, int]:
    try:
        lo_s, hi_s = text.split(":", 1)
        lo, hi = int(lo_s), int(hi_s)
    except ValueError:
        raise DomainError(f"range must look like LO:HI, got {text!r}") from None
    if lo < 1 or hi < lo:
        raise DomainError(f"bad range [{lo}, {hi}]")
    return lo, hi


def _cmd_frobenius(args) -> int:
    if args.gens and args.p is None and args.lam is None:
        try:
            raw = [int(tok) for tok in args.gens.split(",")]
        except ValueError:
            raise DomainError(f"--gens must be comma-separated integers, got {args.gens!r}") from None
        profile = apery_set(normalize_generators(raw))
        columns, key = ("m",), (profile.multiplicity,)
    else:
        if args.gens or args.p is None or args.lam is None:
            raise DomainError("provide either --gens or both --p and --lambda")
        lam = parse_lambda(args.lam)
        table = _table_reaching(args, interval_upper(args.p, lam))
        profile = build_interval_semigroup(table, args.p, lam).profile
        columns, key = ("p", "a", "b"), (args.p, lam.numerator, lam.denominator)
    r = wilf_report(profile)
    _emit(args, columns + ("f", "g", "e", "sporadic"), [key + (r.f, r.g, r.e, r.sporadic)],
          summary=f"f={r.f} g={r.g} e={r.e} sporadic={r.sporadic}")
    return 0


SCAN_COLUMNS = ["p", "a", "b", "x", "f", "ratio", "staircase", "two_primes"]


def _scan_rows(points: Iterable) -> Iterable[tuple]:
    """SCAN_COLUMNS rows from the points' integers: x = num/den in lowest terms, as is lam."""
    for pt in points:
        num, den, f = pt.x.numerator, pt.x.denominator, pt.f
        yield (pt.p, num - den, den, _decimal6(num, den), f,
               None if f is None else _decimal6(f, pt.p), pt.staircase, f is not None)


def _cmd_lambda_scan(args) -> int:
    if args.gnuplot and not args.output:
        raise DomainError("--gnuplot needs --output so the script has data to plot")
    x_max = parse_lambda(args.x_max)
    # the table reaches p even for a grid at or below x = 1, which the scan judges
    if args.figure_mode:
        table = _table_reaching(args, interval_upper(args.p, max(x_max - 1, 0)))
        xs = figure_grid(table, args.p, x_max)
    elif args.x:
        xs = [parse_lambda(x) for x in args.x]
        table = _table_reaching(args, interval_upper(args.p, max(max(xs) - 1, 0)))
    else:
        raise DomainError("provide --figure-mode or at least one --x")
    points = ratio_scan(table, args.p, xs)
    rows = _scan_rows(points)
    skipped = sum(1 for pt in points if pt.f is None)
    summary = f"{len(points)} grid points at p={args.p}" + (
        f" ({skipped} below two primes, kept with empty f)" if skipped else ""
    )
    if not args.gnuplot:
        _emit(args, SCAN_COLUMNS, rows, summary=summary)
        return 0
    # both files land before the summary; a script that cannot be written
    # takes the table with it
    _write_atomically(args.output, _render(SCAN_COLUMNS, rows, args.format))
    try:
        _write_atomically(args.gnuplot, _gnuplot_script(args.output, args.p))
    except ConfigurationError:
        os.unlink(args.output)
        raise
    print(summary)
    return 0


def _gnuplot_script(csv_path: str, p: int) -> str:
    return "\n".join(
        [
            "set datafile separator ','",
            "set datafile missing ''",
            "set key left top",
            "set xlabel 'x = 1 + lambda'",
            f"set ylabel 'f/{p} and staircase'",
            f"plot '{csv_path}' every ::1 using 4:6 with steps title 'f/p at p={p}', \\",
            f"     '{csv_path}' every ::1 using 4:7 with steps title 'staircase'",
            "",
        ]
    )


# the SpRangeRow fields of the same names
WILF_COLUMNS = [
    "n", "p", "e", "f", "g", "sporadic", "lhs", "rhs", "holds",
    "improved_rhs", "f_lt_improved_rhs",
]


def _cmd_wilf(args) -> int:
    n_lo, n_hi = _parse_range(args.range)
    # the scan grows the table to 2*p_{n_hi} itself
    rows = verify_sp_range(_table_reaching(args, 2), n_lo, n_hi, workers=args.threads)
    holding = sum(1 for r in rows if r.holds)
    verdict = "all hold" if holding == len(rows) else f"only {holding} hold"
    _emit(args, WILF_COLUMNS, map(attrgetter(*WILF_COLUMNS), rows),
          summary=f"{len(rows)} semigroups, {verdict}")
    return 0 if holding == len(rows) else 1


TABLE3_COLUMNS = ["n", "p", "f", "f_odd", "delta_next", "pass"]


def _cmd_table3(args) -> int:
    n_lo, n_hi = _parse_range(args.range)
    if n_lo < 5:
        raise DomainError(f"scan starts at n = 5, got {n_lo}")
    # the scan grows the table to its largest first-round truncation itself
    rows = sn_scan(_table_reaching(args, 2), n_lo, n_hi, workers=args.threads)
    passing = sum(1 for r in rows if r.passes)
    verdict = "all rows pass" if passing == len(rows) else f"only {passing} pass"
    _emit(args, TABLE3_COLUMNS,
          [(r.n, r.p_n, r.f_n, r.f_odd, r.delta_next, r.passes) for r in rows],
          summary=f"{len(rows)} rows, {verdict}")
    return 0 if passing == len(rows) else 1


GOLDBACH_COLUMNS = ["N", "m", "parts", "max_deviation", "bound_type", "bound_limit", "strict", "valid"]


def _cmd_goldbach(args) -> int:
    n, m = args.N, args.m
    theta = parse_lambda(args.theta)
    delta = None if args.delta is None else parse_lambda(args.delta)
    if delta is None and m != 3:
        raise DomainError("an m != 3 decomposition needs --delta")
    table = _table_reaching(args, decomposition_reach(n, m, delta, theta))
    cert = (ternary_decomp(table, n, theta=theta) if delta is None
            else decompose_m(table, n, m, delta, theta=theta))
    valid = cert.validate(table)
    row = (cert.N, cert.m, cert.parts, cert.max_deviation, cert.bound_type,
           str(cert.bound_limit), cert.strict, valid)
    _emit(args, GOLDBACH_COLUMNS, [row])
    return 0 if valid else 1


def _cmd_density(args) -> int:
    table = _table_reaching(args, interval_upper(args.p, Fraction(1)))
    d = density(table, args.p)
    _emit(args, ("p", "density"), [(args.p, d)], summary=f"density({args.p}) = {decimal6(d)}")
    return 0


SN_COLUMNS = ["n", "p", "truncation", "f", "certificate_ok"]


def _cmd_sn(args) -> int:
    tp = tail_frobenius(_table_reaching(args, 2), args.n)
    _emit(args, SN_COLUMNS, [(tp.n, tp.p_n, tp.truncation, tp.f, tp.certificate_ok)],
          summary=f"f_{tp.n} = {tp.f} (truncation {tp.truncation})")
    return 0


def _add_common(sub: argparse.ArgumentParser, default_format: str = "csv") -> None:
    sub.add_argument("--output", "-o", help="write the table here (atomic rename)")
    sub.add_argument("--format", choices=("csv", "json"), default=default_format)
    sub.add_argument("--sieve-limit", type=int, default=None,
                     help=f"hard sieve ceiling (or ${ENV_SIEVE_LIMIT})")
    sub.add_argument("--threads", type=int, default=None,
                     help=f"worker processes for scans (or ${ENV_THREADS})")


# name: (help, handler, default --format, own options as (flag, settings) pairs)
COMMANDS = {
    "frobenius": ("f, genus, atoms of one semigroup", _cmd_frobenius, "csv", (
        ("--gens", dict(help="comma-separated generators, e.g. 3,5")),
        ("--p", dict(type=int, help="prime start of the interval")),
        ("--lambda", dict(dest="lam", help="interval ratio, e.g. 1 or 1/2")))),
    "lambda-scan": ("f/p across a grid of interval ratios", _cmd_lambda_scan, "csv", (
        ("--p", dict(type=int, required=True)),
        ("--figure-mode", dict(action="store_true", help="grid of all x with x*p prime")),
        ("--x", dict(action="append", help="explicit grid point x = 1 + lambda (repeatable)")),
        ("--x-max", dict(default="3", help="grid ceiling in figure mode")),
        ("--gnuplot", dict(help="also write a gnuplot script here")))),
    "wilf": ("Wilf quotient across S(p_n) for a range of n", _cmd_wilf, "csv", (
        ("--range", dict(required=True, help="n range as LO:HI, e.g. 8:675")),)),
    "table3": ("tail semigroup scan: parity of f_n and candidate jumps", _cmd_table3, "csv", (
        ("--range", dict(required=True, help="n range as LO:HI, e.g. 5:1000")),)),
    "goldbach": ("almost-equal prime decomposition certificate", _cmd_goldbach, "json", (
        ("--N", dict(type=int, required=True)),
        ("--m", dict(type=int, default=3, help="number of parts (default 3)")),
        ("--delta", dict(help="relative deviation bound as a fraction, e.g. 1/20")),
        ("--theta", dict(default="3/5", help="window exponent for three-part splits")))),
    "density": ("sporadic density of the primes-in-[p,2p] semigroup", _cmd_density, "csv", (
        ("--p", dict(type=int, required=True)),)),
    "sn": ("Frobenius number of the all-primes-from-p_n semigroup", _cmd_sn, "csv", (
        ("--n", dict(type=int, required=True)),)),
}


def build_parser(argv: Sequence[str] = ()) -> argparse.ArgumentParser:
    """The parser for ``argv``.  When argv starts with a command, only that
    command's subparser is built; the metavar keeps the usage line of the
    full tree, which argparse prints for unrecognized arguments."""
    parser = argparse.ArgumentParser(
        prog="primefrob",
        description="Exact invariants of semigroups generated by primes in intervals",
    )
    if argv and argv[0] in COMMANDS:
        names = [argv[0]]
        metavar = "{" + ",".join(COMMANDS) + "}"
    else:  # help, or a missing or unknown command: its error names "command", not a metavar
        names, metavar = list(COMMANDS), None
    subs = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help_text, handler, default_format, options = COMMANDS[name]
        sub = subs.add_parser(name, help=help_text)
        for flag, settings in options:
            sub.add_argument(flag, **settings)
        _add_common(sub, default_format)
        sub.set_defaults(handler=handler)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser(argv).parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        # both settings are checked for every command, the sieve's as the sieve checks it
        args.threads = _resolve_threads(args)
        args.sieve_limit = _setting(args, "sieve_limit", ENV_SIEVE_LIMIT)
        if args.sieve_limit is not None:
            _checked_limit(args.sieve_limit)
        return args.handler(args)
    except DomainError as exc:
        print(f"primefrob: {exc}", file=sys.stderr)
        return 2
    except (DecompositionError, InvariantViolationError) as exc:
        print(f"primefrob: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - last resort
        print(f"primefrob: internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
