"""Command-line interface: compute, scan, table, verify, conjecture, primes.

The CLI parses and prints. Every input rule (a prime p, a capped r, n >= 1,
a count >= 1, a finite D) belongs to the library function that takes the
value. The CLI raises ValueError too, for an argument it cannot parse or an
--out file it cannot write; it prints any ValueError as an `error:` line and
exits 1, as it does when a write to stdout fails (a closed pipe, a full device).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from . import analysis, closedform
from .discriminator import compute, scan
from .poly import Polynomial, PolynomialSyntaxError, parse_poly_input


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2; the contract is 1
        raise ValueError(message)


def _read_poly(text: str) -> Polynomial:
    try:
        return parse_poly_input(text)
    except PolynomialSyntaxError as exc:
        raise ValueError(f"bad polynomial: {exc}") from None


def _parse_family_spec(spec: str) -> tuple[int, int]:
    """Parse `p=<prime>,r=<int>` into (p, r); `closedform.prime_power_family` checks them."""
    fields = {}
    parts = spec.split(",")
    for part in parts:
        if "=" not in part:
            raise ValueError(f"bad --family spec {spec!r}, expected p=<prime>,r=<int>")
        key, _, value = part.partition("=")
        try:
            fields[key.strip()] = int(value)
        except ValueError:
            raise ValueError(f"bad --family value {value!r}") from None
    if len(parts) != 2 or set(fields) != {"p", "r"}:
        raise ValueError(f"--family must give exactly p and r, got {spec!r}")
    return fields["p"], fields["r"]


def _emit(text: str, out_path: Optional[str]) -> None:
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {out_path}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)


def _cmd_compute(args) -> int:
    result = compute(_read_poly(args.poly), args.n)
    print("D = infinity" if result.value is None else f"D = {result.value}")
    return 0


def _table(f: Polynomial, args) -> int:
    """Print D_f's run-length table for n <= --n-max; a CSV labels rows by `analysis.csv_prime`."""
    rows = analysis.run_length_table(scan(f, args.n_max))
    if args.format == "latex":
        text = analysis.emit_latex(rows, str(f), args.n_max)
    else:
        text = analysis.emit_csv(rows, analysis.csv_prime(f, rows))
    _emit(text, args.out)
    return 0


def _cmd_scan(args) -> int:
    return _table(_read_poly(args.poly), args)


def _cmd_table(args) -> int:
    return _table(closedform.prime_power_family(*_parse_family_spec(args.family)), args)


def _cmd_conjecture(args) -> int:
    p, r = _parse_family_spec(args.family)
    for n, value, kind in analysis.check_conjecture1(p, r, args.n_max):
        print(f"n={n} value={value} class={kind.value}")
    return 0


def _cmd_primes(args) -> int:
    primes, mismatches = closedform.family_primes(closedform.FAMILIES[args.family], args.count)
    for n, formula, oracle in mismatches:
        print(f"mismatch at n={n}: formula {formula}, oracle {oracle}", file=sys.stderr)
    for prime in primes:
        print(prime)
    return 2 if mismatches else 0


def _cmd_verify(args) -> int:
    verdict = analysis.verify_theorem(args.theorem, args.n_max, args.seed)
    for note in verdict.notes:
        print(f"note: {note}")
    print(("PASS: " if verdict.ok else "FAIL: ") + verdict.message)
    return 0 if verdict.ok else 2


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="polydisc", description="Polynomial discriminator toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="minimal discriminating modulus for one n")
    p_compute.add_argument("--poly", required=True)
    p_compute.add_argument("--n", type=int, required=True)
    p_compute.set_defaults(func=_cmd_compute)

    p_scan = sub.add_parser("scan", help="run-length table of D over n = 1..n_max")
    p_scan.add_argument("--poly", required=True)
    p_scan.set_defaults(func=_cmd_scan)

    p_table = sub.add_parser("table", help="classified table for the family x(p^r x - 1)")
    p_table.set_defaults(func=_cmd_table)

    p_verify = sub.add_parser("verify", help="run a theorem's property suite")
    p_verify.add_argument("--theorem", type=int, choices=(1, 2, 3, 4, 5), required=True)
    p_verify.add_argument("--n-max", type=int)
    p_verify.add_argument("--seed", type=int, default=analysis.DEFAULT_SEED)
    p_verify.set_defaults(func=_cmd_verify)

    p_conj = sub.add_parser("conjecture", help="exceptions to 'prime or p^ceil(log_p n)'")
    p_conj.set_defaults(func=_cmd_conjecture)

    p_primes = sub.add_parser("primes", help="primes generated by a family formula")
    p_primes.add_argument("--family", required=True, choices=sorted(closedform.FAMILIES))
    p_primes.add_argument("--count", type=int, required=True)
    p_primes.set_defaults(func=_cmd_primes)

    for p_family in (p_table, p_conj):  # both read x(p^r x - 1) through _parse_family_spec
        p_family.add_argument("--family", required=True, metavar="p=<prime>,r=<int>")
    for p_run in (p_scan, p_table, p_conj):
        p_run.add_argument("--n-max", type=int, required=True)
    for p_run in (p_scan, p_table):  # both print a run-length table through _table
        p_run.add_argument("--format", choices=("csv", "latex"), default="csv")
        p_run.add_argument("--out")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit:  # --help prints, then exits before the flush below
            sys.stdout.flush()
            raise
        status = args.func(args)
        sys.stdout.flush()  # a closed or full stdout fails here, not at interpreter exit
        return status
    except (ValueError, OSError) as exc:
        # the library does no I/O and _emit reports its own file, so an
        # OSError is a failed write to stdout: the exit flush then writes to nowhere
        if isinstance(exc, OSError):
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
