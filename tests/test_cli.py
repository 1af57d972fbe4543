import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primefrob import primes
from primefrob.cli import SCAN_COLUMNS, _render, _resolve_threads, build_parser, decimal6, main
from primefrob.primes import MAX_WORKERS
from primefrob.semigroup import apery_set


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    return [dict(zip(header, r)) for r in body]


# ---------------------------------------------------------------- decimal6


def test_decimal6_basic():
    assert decimal6(Fraction(1, 2)) == "0.500000"
    assert decimal6(4) == "4.000000"
    assert decimal6(Fraction(1, 3)) == "0.333333"
    assert decimal6(Fraction(2, 3)) == "0.666667"
    assert decimal6(Fraction(-1, 2)) == "-0.500000"


def test_decimal6_half_even_ties():
    # .0000005 rounds down to even, .0000015 rounds up to even
    assert decimal6(Fraction(1, 2_000_000)) == "0.000000"
    assert decimal6(Fraction(3, 2_000_000)) == "0.000002"
    assert decimal6(Fraction(-3, 2_000_000)) == "-0.000002"


def decimal6_reference(value):
    fr = Fraction(value)
    q = round(abs(fr) * 10**6)  # Fraction rounds half to even
    return ("-" if fr < 0 else "") + f"{q // 10**6}.{q % 10**6:06d}"


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.integers(min_value=-10**12, max_value=10**12),
    st.fractions(max_denominator=10**9),
    # exact ties at the sixth digit, both signs
    st.builds(lambda k, sign: Fraction(sign * (2 * k + 1), 2 * 10**6),
              st.integers(min_value=0, max_value=10**9), st.sampled_from((1, -1))),
))
def test_decimal6_matches_a_fraction_reference(value):
    assert decimal6(value) == decimal6_reference(value)


# ---------------------------------------------------------------- frobenius


def test_frobenius_gens(capsys):
    code, out, err = run(capsys, ["frobenius", "--gens", "19,23,29,31,37"])
    assert code == 0
    row = parse_csv(out)[0]
    assert row["f"] == "101" and row["g"] == "51" and row["e"] == "5"
    assert "f=101" in err  # summary goes to stderr when the table is on stdout


def test_frobenius_interval(capsys):
    code, out, err = run(
        capsys, ["frobenius", "--p", "23", "--lambda", "1", "--sieve-limit", "100"]
    )
    assert code == 0
    row = parse_csv(out)[0]
    assert row["f"] == "102" and row["e"] == "6" and row["a"] == "1" and row["b"] == "1"


def test_frobenius_json(capsys):
    code, out, _ = run(
        capsys, ["frobenius", "--gens", "3,5", "--format", "json"]
    )
    assert code == 0
    row = json.loads(out.strip())
    assert row == {"m": 3, "f": 7, "g": 4, "e": 2, "sporadic": 4}


def test_frobenius_error_paths(capsys):
    assert run(capsys, ["frobenius", "--gens", "4,6"])[0] == 2
    assert run(capsys, ["frobenius"])[0] == 2
    assert run(capsys, ["frobenius", "--gens", "3;5"])[0] == 2
    # explicit sieve limit below what the interval needs is a hard error
    assert run(
        capsys, ["frobenius", "--p", "23", "--lambda", "1", "--sieve-limit", "30"]
    )[0] == 2
    code, out, err = run(capsys, ["frobenius", "--p", "-5", "--lambda", "1"])
    assert (code, out) == (2, "") and "-5 is not prime" in err


def test_frobenius_with_a_far_generator_needs_no_value_range(capsys):
    # the atoms come from the certificate over 3 classes, not from a table
    # of every integer up to 536870914
    code, out, _ = run(capsys, ["frobenius", "--gens", "3,536870914", "--format", "json"])
    assert code == 0
    assert json.loads(out) == {"m": 3, "f": 1073741825, "g": 536870913, "e": 2,
                               "sporadic": 536870913}


def test_budget_overruns_exit_2(capsys):
    # apery values past the 64-bit budget, then a table too large to allocate
    for gens in ("1073741827,1073741831", "268435459,268435463"):
        code, out, err = run(capsys, ["frobenius", "--gens", gens])
        assert code == 2 and out == ""
        assert "budget" in err and "internal error" not in err


def test_usage_errors_exit_2(capsys):
    assert main([]) == 2
    assert main(["frobenius", "--no-such-flag"]) == 2
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("argv,built", [
    (["frobenius", "--gens", "3,5"], 1),
    (["sn", "--help"], 1),
    (["--help"], 7),
    ([], 7),
    (["no-such-command"], 7),
])
def test_only_the_named_command_gets_a_parser(monkeypatch, argv, built):
    calls = []
    add_parser = argparse._SubParsersAction.add_parser

    def counting(subs, name, **kwargs):
        calls.append(name)
        return add_parser(subs, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
    build_parser(argv)
    assert len(calls) == built


# ---------------------------------------------------------------- lambda-scan


def test_lambda_scan_figure_mode(capsys, tmp_path):
    out_file = tmp_path / "scan.csv"
    code, out, err = run(
        capsys,
        [
            "lambda-scan", "--p", "19", "--figure-mode", "--x-max", "3",
            "--sieve-limit", "100", "--output", str(out_file),
        ],
    )
    assert code == 0
    assert "8 grid points" in out  # summary moves to stdout when writing a file
    rows = parse_csv(out_file.read_text())
    assert [r["f"] for r in rows] == ["395", "131", "101", "101", "63", "63", "63", "63"]
    assert rows[0]["two_primes"] == "true"
    assert rows[-1]["ratio"] == decimal6(Fraction(63, 19))


def test_figure_mode_csv_bytes_are_pinned(capsys, tmp_path):
    out_file = tmp_path / "scan.csv"
    code, out, _ = run(
        capsys, ["lambda-scan", "--p", "48623", "--figure-mode", "-o", str(out_file)]
    )
    assert code == 0 and out.startswith("8494 grid points at p=48623")
    data = out_file.read_bytes()
    assert len(data) == 426_680
    assert hashlib.sha256(data).hexdigest() == (
        "c6b92f7f6f073ced620529c422043c8788467dd5dc7e496d1e7ec4a3c36a4aab"
    )


def test_lambda_scan_explicit_grid_and_skip(capsys):
    code, out, err = run(
        capsys,
        ["lambda-scan", "--p", "23", "--x", "24/23", "--x", "2", "--sieve-limit", "100"],
    )
    assert code == 0
    rows = parse_csv(out)
    assert rows[0]["two_primes"] == "false" and rows[0]["f"] == ""
    assert rows[1]["two_primes"] == "true" and rows[1]["f"] == "102"
    assert "1 below two primes" in err


def test_lambda_scan_gnuplot(capsys, tmp_path):
    out_file = tmp_path / "scan.csv"
    plot_file = tmp_path / "scan.gp"
    code, _, _ = run(
        capsys,
        [
            "lambda-scan", "--p", "19", "--figure-mode", "--sieve-limit", "100",
            "--output", str(out_file), "--gnuplot", str(plot_file),
        ],
    )
    assert code == 0
    script = plot_file.read_text()
    assert str(out_file) in script and "with steps" in script


def test_an_unwritable_gnuplot_path_leaves_no_table_and_prints_nothing(capsys, tmp_path):
    out_file = tmp_path / "scan.csv"
    code, out, err = run(
        capsys,
        ["lambda-scan", "--p", "19", "--figure-mode", "-o", str(out_file),
         "--gnuplot", str(tmp_path / "nodir" / "p.gp")],
    )
    assert code == 2 and out == ""
    assert err.startswith("primefrob: cannot write ")
    assert not out_file.exists()
    assert not list(tmp_path.rglob(".primefrob-*"))


def test_lambda_scan_gnuplot_needs_output(capsys, tmp_path):
    plot_file = tmp_path / "scan.gp"
    code, out, _ = run(
        capsys,
        ["lambda-scan", "--p", "19", "--figure-mode", "--sieve-limit", "100",
         "--gnuplot", str(plot_file)],
    )
    assert code == 2
    assert out == ""  # fails before any table is emitted
    assert not plot_file.exists()


def test_lambda_scan_needs_grid(capsys):
    assert run(capsys, ["lambda-scan", "--p", "19", "--sieve-limit", "100"])[0] == 2


def test_a_csv_column_that_starts_empty_is_still_converted():
    # the first row picks the converted columns once; a None there may
    # stand for any type, a bool or Fraction or tuple must be converted
    rows = iter([(None, True, 1, (2, 3)), (Fraction(1, 2), False, None, (5,)),
                 (Fraction(7), None, 3, ())])
    assert _render(("a", "b", "c", "d"), rows, "csv") == (
        "a,b,c,d\n,true,1,2;3\n0.500000,false,,5\n7.000000,,3,\n"
    )
    assert _render(("a", "b"), iter([]), "csv") == "a,b\n"


def _is_prime(n):
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def scan_reference(p, grid, fmt):
    """lambda-scan's table for ``grid`` (Fractions), rendered here from
    Fraction arithmetic with trial-division primes and one certified
    build per point."""
    lines = [",".join(SCAN_COLUMNS)] if fmt == "csv" else []
    for x in sorted(set(grid)):
        lam = x - 1
        gens = [q for q in range(p, math.floor(x * p) + 1) if _is_prime(q)]
        f = apery_set(tuple(gens)).frobenius if len(gens) >= 2 else None
        ratio = None if f is None else decimal6_reference(Fraction(f, p))
        cells = [p, lam.numerator, lam.denominator, decimal6_reference(x), f, ratio,
                 3 if lam > 1 else 2 + math.floor(2 / lam), len(gens) >= 2]
        if fmt == "json":
            lines.append(json.dumps(dict(zip(SCAN_COLUMNS, cells))))
        else:
            lines.append(",".join("" if v is None else str(v).lower() if isinstance(v, bool)
                                  else str(v) for v in cells))
    return "".join(line + "\n" for line in lines)


# an --x value as the user may type it, and the Fraction it stands for:
# a/b (not always in lowest terms), an integer, or a decimal
_X_TEXTS = st.one_of(
    st.builds(lambda b, k: (f"{b + k}/{b}", Fraction(b + k, b)),
              st.integers(1, 40), st.integers(1, 120)).filter(lambda t: t[1] <= 4),
    st.integers(2, 4).map(lambda n: (str(n), Fraction(n))),
    st.builds(lambda k, d: (f"{1 + k / 10**d:.{d}f}", 1 + Fraction(k, 10**d)),
              st.integers(1, 300), st.integers(1, 3)).filter(lambda t: t[1] <= 4),
)


@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from([q for q in range(2, 120) if _is_prime(q)]),
       grid=st.lists(_X_TEXTS, min_size=1, max_size=8).flatmap(
           lambda xs: st.permutations(xs + xs[: len(xs) // 2 + 1])))
def test_scan_rows_match_a_fraction_reference(p, grid):
    argv = ["lambda-scan", "--p", str(p)]
    for text, _ in grid:
        argv += ["--x", text]
    for fmt in ("csv", "json"):
        # capsys is per test, not per example
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert main(argv + ["--format", fmt]) == 0
        assert out.getvalue() == scan_reference(p, [x for _, x in grid], fmt)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_figure_mode_rows_match_a_fraction_reference(capsys, fmt):
    p = 1009
    grid = [Fraction(q, p) for q in range(p + 1, 3 * p + 1) if _is_prime(q)]
    code, out, _ = run(capsys, ["lambda-scan", "--p", str(p), "--figure-mode", "--format", fmt])
    assert code == 0
    assert out == scan_reference(p, grid, fmt)


# ---------------------------------------------------------------- tables


def test_wilf_range(capsys):
    code, out, _ = run(
        capsys, ["wilf", "--range", "8:10", "--sieve-limit", "1000", "--threads", "1"]
    )
    assert code == 0
    rows = parse_csv(out)
    assert [r["n"] for r in rows] == ["8", "9", "10"]
    first = rows[0]
    assert first["p"] == "19" and first["f"] == "101" and first["holds"] == "true"
    assert first["lhs"] == "0.500000" and first["rhs"] == "0.800000"
    assert first["improved_rhs"] == "66" and first["f_lt_improved_rhs"] == "false"


def test_wilf_bad_ranges(capsys):
    assert run(capsys, ["wilf", "--range", "8"])[0] == 2
    assert run(capsys, ["wilf", "--range", "10:5"])[0] == 2
    # strict limit smaller than p_675 cannot deliver the range
    assert run(capsys, ["wilf", "--range", "8:675", "--sieve-limit", "100",
                        "--threads", "1"])[0] == 2


def test_table3_range(capsys):
    code, out, _ = run(
        capsys, ["table3", "--range", "5:8", "--sieve-limit", "2000", "--threads", "1"]
    )
    assert code == 0
    rows = parse_csv(out)
    assert all(r["pass"] == "true" for r in rows)
    assert rows[0]["n"] == "5" and rows[0]["f_odd"] == "true"


def test_table3_starts_at_5(capsys):
    assert run(capsys, ["table3", "--range", "3:8", "--sieve-limit", "2000"])[0] == 2


def test_threads_validation(capsys, monkeypatch):
    assert run(capsys, ["table3", "--range", "5:6", "--sieve-limit", "2000",
                        "--threads", "0"])[0] == 2
    monkeypatch.setenv("PRIMEFROB_THREADS", "abc")
    assert run(capsys, ["table3", "--range", "5:6", "--sieve-limit", "2000"])[0] == 2


def test_default_threads_follow_cpu_affinity(monkeypatch):
    monkeypatch.delenv("PRIMEFROB_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5, 7}, raising=False)
    assert _resolve_threads(argparse.Namespace(threads=None)) == 3
    monkeypatch.delattr(os, "sched_getaffinity")
    assert _resolve_threads(argparse.Namespace(threads=None)) == 64


def test_a_thread_count_is_bounded_and_a_pool_fits_its_items(capsys, monkeypatch, pool_sizes):
    argv = ["wilf", "--range", "8:9"]
    serial = run(capsys, argv + ["--threads", "1"])
    assert run(capsys, argv + ["--threads", "64"]) == serial and serial[0] == 0
    assert pool_sizes == [2]  # two rows, so two workers, not 64
    over = str(MAX_WORKERS + 1)
    message = f"primefrob: thread count must be <= {MAX_WORKERS}, got {over}\n"
    assert run(capsys, argv + ["--threads", over]) == (2, "", message)
    monkeypatch.setenv("PRIMEFROB_THREADS", over)
    assert run(capsys, argv) == (2, "", message)
    assert pool_sizes == [2]


def test_default_threads_stop_at_the_worker_budget(monkeypatch):
    monkeypatch.delenv("PRIMEFROB_THREADS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(1000)), raising=False)
    assert _resolve_threads(argparse.Namespace(threads=None)) == MAX_WORKERS


# ---------------------------------------------------------------- goldbach


def test_goldbach_ternary_json(capsys):
    code, out, _ = run(capsys, ["goldbach", "--N", "10001", "--sieve-limit", "11000"])
    assert code == 0
    row = json.loads(out.strip())
    assert row["parts"] == [3323, 3331, 3347]
    assert row["valid"] is True and row["bound_type"] == "n_theta"


def test_goldbach_delta_csv(capsys):
    code, out, _ = run(
        capsys,
        ["goldbach", "--N", "100000", "--m", "4", "--delta", "1/20",
         "--sieve-limit", "110000", "--format", "csv"],
    )
    assert code == 0
    row = parse_csv(out)[0]
    parts = [int(tok) for tok in row["parts"].split(";")]
    assert sum(parts) == 100000 and len(parts) == 4
    assert row["bound_type"] == "delta" and row["strict"] == "true"


def test_goldbach_errors(capsys):
    # m != 3 without a delta bound has no defined window
    assert run(capsys, ["goldbach", "--N", "20", "--m", "4",
                        "--sieve-limit", "1000"])[0] == 2
    # even N cannot be three primes of this shape
    assert run(capsys, ["goldbach", "--N", "10", "--sieve-limit", "1000"])[0] == 2
    # a negative N is refused before any window is formed
    code, out, err = run(capsys, ["goldbach", "--N", "-8", "--m", "4", "--delta", "1/20"])
    assert (code, out) == (2, "") and "need n >= 0, got -8" in err
    # tiny window: search fails, which is an internal failure, not misuse
    assert run(capsys, ["goldbach", "--N", "11", "--theta", "0.1",
                        "--sieve-limit", "1000"])[0] == 1


def test_goldbach_theta_is_exact(capsys):
    # floor(243^(3/5)) = 27, one more than the float power gives
    for theta in ("3/5", "0.6"):
        code, out, _ = run(capsys, ["goldbach", "--N", "243", "--theta", theta])
        assert code == 0 and json.loads(out)["bound_limit"] == "81"
    for theta in ("1/1001", "3/2", "0"):
        code, out, err = run(capsys, ["goldbach", "--N", "243", "--theta", theta])
        assert code == 2 and out == "" and "primefrob:" in err


def test_goldbach_sieve_covers_a_wide_theta_window(capsys):
    # at theta = 1 the parts may reach (N + 3N)/3 = 13334, past N + 16
    code, out, _ = run(capsys, ["goldbach", "--N", "10001", "--theta", "1"])
    assert code == 0
    row = json.loads(out)
    assert row["parts"] == [3323, 3331, 3347] and row["valid"] is True
    code, out, err = run(capsys, ["goldbach", "--N", "10001", "--theta", "1",
                                  "--sieve-limit", "12000"])
    assert code == 2 and out == ""
    assert "beyond the configured sieve limit 12000" in err


# ---------------------------------------------------------------- small commands


def test_density_command(capsys):
    code, out, err = run(capsys, ["density", "--p", "19", "--sieve-limit", "100"])
    assert code == 0
    assert parse_csv(out)[0]["density"] == "0.500000"
    assert "density(19) = 0.500000" in err


def test_sn_command(capsys):
    code, out, _ = run(capsys, ["sn", "--n", "8", "--sieve-limit", "1000"])
    assert code == 0
    row = parse_csv(out)[0]
    assert row["f"] == "63" and row["certificate_ok"] == "true"


@pytest.mark.parametrize("via_env", [False, True])
@pytest.mark.parametrize("argv,limit", [
    (["sn", "--n", "500"], "100"),
    (["table3", "--range", "5:300", "--threads", "1"], "500"),
])
def test_scans_honour_an_explicit_sieve_limit(capsys, monkeypatch, argv, limit, via_env):
    if via_env:
        monkeypatch.setenv("PRIMEFROB_SIEVE_LIMIT", limit)
    else:
        argv = argv + ["--sieve-limit", limit]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert f"configured sieve limit {limit}" in err


def test_sieve_limit_is_checked_before_sieving(capsys, monkeypatch):
    def no_sieve(*args, **kwargs):
        raise AssertionError("sieved past a limit the request cannot fit")

    monkeypatch.setattr("primefrob.primes._sieve", no_sieve)
    code, out, err = run(
        capsys, ["frobenius", "--p", "10000019", "--lambda", "1", "--sieve-limit", "20000000"]
    )
    assert code == 2 and out == ""
    assert "beyond the configured sieve limit 20000000" in err


@pytest.mark.parametrize("argv", [
    ["frobenius", "--p", "23", "--lambda", "1"],
    ["density", "--p", "23"],
    ["lambda-scan", "--p", "23", "--x", "2"],
    ["lambda-scan", "--p", "23", "--figure-mode", "--x-max", "2"],
])
def test_a_sieve_limit_at_the_interval_end_suffices(capsys, argv):
    # [23, 46] needs primes up to 46 and no further
    code, out, _ = run(capsys, argv + ["--sieve-limit", "46"])
    assert code == 0 and out
    code, out, err = run(capsys, argv + ["--sieve-limit", "45"])
    assert code == 2 and out == ""
    assert "needs primes up to 46, beyond the configured sieve limit 45" in err


def test_goldbach_sieve_fits_the_delta_window(capsys):
    # the strict window at delta = 1 reaches 1331, past N + 16
    code, out, _ = run(capsys, ["goldbach", "--N", "999", "--delta", "1"])
    assert code == 0 and json.loads(out)["valid"] is True


def test_a_sieve_limit_is_a_ceiling_not_a_size(capsys, monkeypatch):
    sieve, sizes = primes._sieve, []
    monkeypatch.setattr("primefrob.primes._sieve", lambda n: sizes.append(n) or sieve(n))
    code, out, _ = run(capsys, ["frobenius", "--p", "23", "--lambda", "1",
                                "--sieve-limit", "50000000"])
    assert code == 0 and out == "p,a,b,f,g,e,sporadic\n23,1,1,102,62,6,41\n"
    assert sizes == [46]


def test_a_pooled_scan_under_a_sieve_limit_prints_the_same_bytes(capsys):
    argv = ["table3", "--range", "5:9", "--threads", "2"]
    code, out, err = run(capsys, argv)
    assert code == 0 and out
    assert run(capsys, argv + ["--sieve-limit", "2000"]) == (code, out, err)


@pytest.mark.parametrize("option,env,message", [
    (["--sieve-limit", "1"], None, "sieve limit must be >= 2, got 1"),
    ([], "1", "sieve limit must be >= 2, got 1"),
    ([], "abc", "PRIMEFROB_SIEVE_LIMIT='abc' is not an integer"),
])
def test_every_command_checks_the_sieve_setting(capsys, monkeypatch, option, env, message):
    if env is not None:
        monkeypatch.setenv("PRIMEFROB_SIEVE_LIMIT", env)
    # frobenius --gens sieves nothing, density sieves: both refuse alike
    for argv in (["frobenius", "--gens", "3,5"], ["density", "--p", "19"]):
        assert run(capsys, argv + option) == (2, "", f"primefrob: {message}\n")


def test_sieve_limit_env(capsys, monkeypatch):
    monkeypatch.setenv("PRIMEFROB_SIEVE_LIMIT", "30")
    assert run(capsys, ["frobenius", "--p", "23", "--lambda", "1"])[0] == 2
    monkeypatch.setenv("PRIMEFROB_SIEVE_LIMIT", "100")
    assert run(capsys, ["frobenius", "--p", "23", "--lambda", "1"])[0] == 0
    monkeypatch.setenv("PRIMEFROB_SIEVE_LIMIT", "abc")
    assert run(capsys, ["frobenius", "--p", "23", "--lambda", "1"])[0] == 2


# ---------------------------------------------------------------- determinism


def test_byte_identical_reruns(capsys, tmp_path):
    argv = ["lambda-scan", "--p", "19", "--figure-mode", "--sieve-limit", "100"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0 and out1 == out2

    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(argv + ["--output", str(a)]) == 0
    assert main(argv + ["--output", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    # atomic writes leave no temp droppings behind
    assert all(not name.startswith(".primefrob-") for name in os.listdir(tmp_path))


def test_output_overwrites_in_place(capsys, tmp_path):
    target = tmp_path / "table.csv"
    target.write_text("stale")
    code, _, _ = run(
        capsys, ["density", "--p", "19", "--sieve-limit", "100",
                 "--output", str(target)]
    )
    assert code == 0
    assert target.read_text().startswith("p,density\n")


def test_written_files_take_the_mode_a_plain_open_gives(capsys, tmp_path):
    files = [tmp_path / name for name in ("density.csv", "scan.csv", "scan.gp")]
    old = os.umask(0o022)
    try:
        assert main(["density", "--p", "19", "--output", str(files[0])]) == 0
        assert main(["lambda-scan", "--p", "19", "--figure-mode", "--output", str(files[1]),
                     "--gnuplot", str(files[2])]) == 0
    finally:
        os.umask(old)
    capsys.readouterr()
    assert [oct(f.stat().st_mode & 0o777) for f in files] == ["0o644"] * 3


@pytest.mark.parametrize("target", ["missing/table.csv", "a-directory"])
def test_an_unwritable_output_exits_2_and_leaves_no_temporary_file(capsys, tmp_path, target):
    (tmp_path / "a-directory").mkdir()
    path = tmp_path / target
    code, out, err = run(capsys, ["density", "--p", "19", "--output", str(path)])
    assert code == 2 and out == ""
    assert err.startswith(f"primefrob: cannot write {path}: ")
    assert not list(tmp_path.rglob(".primefrob-*"))


# ---------------------------------------------------------------- byte identity


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _pinned_outcome(capsys, monkeypatch, tmp_path, argv):
    """Exit code and sha256 prefixes of stdout and stderr; an "{out}"
    argument names a file whose text is digested after stdout."""
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("PRIMEFROB_SIEVE_LIMIT", raising=False)
    monkeypatch.delenv("PRIMEFROB_THREADS", raising=False)
    target = tmp_path / "table.out"
    code, out, err = run(capsys, [a.replace("{out}", str(target)) for a in argv])
    if target.exists():
        out += target.read_text()
    return code, _digest(out), _digest(err)


# (argv, exit code, stdout digest, stderr digest); _digest("") is e3b0c44298fc1c14
PINNED_RUNS = [
    (("frobenius", "--gens", "19,23,29,31,37"), 0, "87b7a50bc8c0f840", "9f185a562fed946d"),
    (("frobenius", "--gens", "3,5", "--format", "json"), 0, "71a9c0e550507572", "d2404ec1594c1ea5"),
    (("frobenius", "--p", "23", "--lambda", "1"), 0, "72545075170f1a7a", "3b81e26e86d0e03a"),
    (("frobenius", "--p", "23", "--lambda", "1/2", "--format", "json"), 0,
     "c17c8c2daa6f51d6", "832126e6739c9e7c"),
    (("lambda-scan", "--p", "19", "--figure-mode"), 0, "d4521bbb5848e832", "71920d832188d53f"),
    (("lambda-scan", "--p", "23", "--x", "24/23", "--x", "2", "--format", "json"), 0,
     "0bcd3eeca749b5ef", "04fb987374782208"),
    (("wilf", "--range", "8:12", "--threads", "1"), 0, "04adc6dc39152d91", "b465ab1468457f66"),
    (("wilf", "--range", "8:12", "--threads", "1", "--format", "json"), 0,
     "342c74cd591d4855", "b465ab1468457f66"),
    (("table3", "--range", "5:9", "--threads", "1"), 0, "427b39e137afc8dc", "20bb8390e1e35fb8"),
    (("table3", "--range", "5:9", "--threads", "1", "--format", "json"), 0,
     "f58fce0e3a6d8c58", "20bb8390e1e35fb8"),
    (("goldbach", "--N", "10001"), 0, "b13ca968bf2206d0", "e3b0c44298fc1c14"),
    (("goldbach", "--N", "10001", "--format", "csv"), 0, "891aca9e7b7e750f", "e3b0c44298fc1c14"),
    (("goldbach", "--N", "1001", "--m", "3", "--delta", "1/20"), 0,
     "1bbef632680cbf05", "e3b0c44298fc1c14"),
    (("goldbach", "--N", "100000", "--m", "4", "--delta", "1/20", "--format", "csv"), 0,
     "7b963865502a6062", "e3b0c44298fc1c14"),
    (("density", "--p", "19"), 0, "0a63643cef2e50be", "c8aa2df141ddab19"),
    (("density", "--p", "19", "--format", "json"), 0, "21591987e7f95f47", "c8aa2df141ddab19"),
    (("sn", "--n", "8"), 0, "2a67ba5d7dbb349d", "738acc5d69086ca4"),
    (("sn", "--n", "8", "--format", "json"), 0, "a3f7398a504113f2", "738acc5d69086ca4"),
    (("density", "--p", "19", "--output", "{out}"), 0, "ad08c569cf1d7bd9", "e3b0c44298fc1c14"),
    (("frobenius", "--gens", "4,6"), 2, "e3b0c44298fc1c14", "921b9ab501e56e5f"),
    (("frobenius", "--gens", "3;5"), 2, "e3b0c44298fc1c14", "452446b0ca5f69c1"),
    (("frobenius",), 2, "e3b0c44298fc1c14", "5a9c1f44e5ca9ef4"),
    (("frobenius", "--gens", "1073741827,1073741831"), 2, "e3b0c44298fc1c14", "c42bd8ff6076d35a"),
    (("lambda-scan", "--p", "19"), 2, "e3b0c44298fc1c14", "05ecfe433102d13f"),
    (("lambda-scan", "--p", "19", "--figure-mode", "--gnuplot", "plot.gp"), 2,
     "e3b0c44298fc1c14", "97aba58e4d78e8d1"),
    (("wilf", "--range", "8"), 2, "e3b0c44298fc1c14", "7d1e1c98461de072"),
    (("table3", "--range", "3:8"), 2, "e3b0c44298fc1c14", "28ca4e6f76fafe0e"),
    (("goldbach", "--N", "20", "--m", "4"), 2, "e3b0c44298fc1c14", "2785f635579c2f9c"),
    (("goldbach", "--N", "10"), 2, "e3b0c44298fc1c14", "120fa826298ee0c4"),
    (("goldbach", "--N", "11", "--theta", "0.1"), 1, "e3b0c44298fc1c14", "4465335b9f708d2e"),
    (("goldbach", "--N", "243", "--theta", "3/2"), 2, "e3b0c44298fc1c14", "fc036e260879a521"),
    (("sn", "--n", "500", "--sieve-limit", "100"), 2, "e3b0c44298fc1c14", "86adab9095bcbee6"),
    # the thread count is checked for every command, with the scans' message
    (("frobenius", "--gens", "3,5", "--threads", "0"), 2, "e3b0c44298fc1c14", "441c8620cb06472c"),
    (("density", "--p", "19", "--threads", "-3"), 2, "e3b0c44298fc1c14", "556bc668070d27a1"),
    # an anchor of 2 leaves a rest that no three-prime split takes
    (("goldbach", "--N", "8", "--m", "4", "--delta", "1/100"), 1,
     "e3b0c44298fc1c14", "be183fb9b386a1cf"),
    # a grid at or below x = 1 is judged by the scan, not by a table sized below p
    (("lambda-scan", "--p", "23", "--x", "1/2"), 2, "e3b0c44298fc1c14", "ef683130e598c627"),
    (("lambda-scan", "--p", "23", "--figure-mode", "--x-max", "1/2"), 0,
     "3eac88bda0e990bc", "fb9d6e1051579d74"),
    # the sieve setting is checked for every command, with the sieve's message
    (("frobenius", "--gens", "3,5", "--sieve-limit", "1"), 2, "e3b0c44298fc1c14", "8dca5740907df62c"),
    # generators and an interval together are refused, not read as generators alone
    (("frobenius", "--gens", "3,5", "--p", "7", "--lambda", "1"), 2,
     "e3b0c44298fc1c14", "5a9c1f44e5ca9ef4"),
    # an exact window root: a far N meets the sieve budget instead of a float overflow
    (("goldbach", "--N", str(10**400 + 1)), 2, "e3b0c44298fc1c14", "abadcb2c7fce1f75"),
]

# argparse's help and usage-error text changes between Python releases;
# these digests were recorded under Python 3.11, the version CI runs
PINNED_ARGPARSE_RUNS = [
    ((), 2, "e3b0c44298fc1c14", "a49907a1020bd364"),
    (("--help",), 0, "ddd1c5c476923cad", "e3b0c44298fc1c14"),
    (("frobenius", "--help"), 0, "e25b4596cf477d07", "e3b0c44298fc1c14"),
    (("lambda-scan", "--help"), 0, "73dfd995fc7c92d9", "e3b0c44298fc1c14"),
    (("wilf", "--help"), 0, "5125b2589e3d4c88", "e3b0c44298fc1c14"),
    (("table3", "--help"), 0, "cc6eae8bed5ae81b", "e3b0c44298fc1c14"),
    (("goldbach", "--help"), 0, "0eb0e2d2bcf82fd4", "e3b0c44298fc1c14"),
    (("density", "--help"), 0, "8983cc5056cd73c1", "e3b0c44298fc1c14"),
    (("sn", "--help"), 0, "4e44889c3781d3ad", "e3b0c44298fc1c14"),
    (("frobenius", "--no-such-flag"), 2, "e3b0c44298fc1c14", "9533181e1bc7934b"),
    (("no-such-command",), 2, "e3b0c44298fc1c14", "f551ffc3b9b42258"),
    (("wilf",), 2, "e3b0c44298fc1c14", "600908f179209377"),
    (("frobenius", "--gens", "3,5", "extra"), 2, "e3b0c44298fc1c14", "1d8f5817016abcfb"),
    (("goldbach", "--N"), 2, "e3b0c44298fc1c14", "4fa2608f56c699be"),
    (("density", "--p", "19", "--format", "xml"), 2, "e3b0c44298fc1c14", "44c7bd76cf88ace5"),
    (("sn", "--n", "8", "-h"), 0, "4e44889c3781d3ad", "e3b0c44298fc1c14"),
    (("-h", "frobenius"), 0, "ddd1c5c476923cad", "e3b0c44298fc1c14"),
]


@pytest.mark.parametrize("argv,code,out,err", PINNED_RUNS)
def test_pinned_outputs_are_byte_identical(capsys, monkeypatch, tmp_path, argv, code, out, err):
    assert _pinned_outcome(capsys, monkeypatch, tmp_path, argv) == (code, out, err)


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="argparse text is pinned for 3.11")
@pytest.mark.parametrize("argv,code,out,err", PINNED_ARGPARSE_RUNS)
def test_pinned_help_and_usage_text_is_byte_identical(capsys, monkeypatch, tmp_path,
                                                      argv, code, out, err):
    assert _pinned_outcome(capsys, monkeypatch, tmp_path, argv) == (code, out, err)
