"""Command-line interface: compute, scan, table, verify, conjecture, primes."""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from . import analysis, closedform, ntheory
from .discriminator import compute, scan
from .poly import MAX_EXPONENT, Polynomial, PolynomialSyntaxError, parse_poly_input


class CLIError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2; the contract is 1
        raise CLIError(message)


def _read_poly(text: str) -> Polynomial:
    try:
        return parse_poly_input(text)
    except PolynomialSyntaxError as exc:
        raise CLIError(f"bad polynomial: {exc}") from None


def _parse_family_spec(spec: str) -> tuple[int, int]:
    """Parse `p=<prime>,r=<int>` into (p, r)."""
    fields = {}
    parts = spec.split(",")
    for part in parts:
        if "=" not in part:
            raise CLIError(f"bad --family spec {spec!r}, expected p=<prime>,r=<int>")
        key, _, value = part.partition("=")
        try:
            fields[key.strip()] = int(value)
        except ValueError:
            raise CLIError(f"bad --family value {value!r}") from None
    if len(parts) != 2 or set(fields) != {"p", "r"}:
        raise CLIError(f"--family must give exactly p and r, got {spec!r}")
    p, r = fields["p"], fields["r"]
    if not ntheory.is_prime(p):
        raise CLIError(f"p={p} is not prime")
    if r < 1:
        raise CLIError("r must be >= 1")
    if r > MAX_EXPONENT:
        raise CLIError(f"r={r} exceeds the cap {MAX_EXPONENT}")
    return p, r


def _emit(text: str, out_path: Optional[str]) -> None:
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise CLIError(f"cannot write {out_path}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)


def _cmd_compute(args) -> int:
    f = _read_poly(args.poly)
    if args.n < 1:
        raise CLIError("--n must be >= 1")
    result = compute(f, args.n)
    print(f"D = {result.value}" if result.exists else "D = infinity")
    return 0


def _table(f: Polynomial, args, p: Optional[int] = None) -> int:
    """Print D_f's run-length table for n <= --n-max; a CSV labels rows against p."""
    if args.n_max < 1:
        raise CLIError("--n-max must be >= 1")
    results = scan(f, args.n_max)
    if any(not r.exists for r in results):
        raise CLIError("scan hit nonexistent values; run-length table undefined")
    table = analysis.run_length_table(results)
    if args.format == "latex":
        text = analysis.emit_latex(table, str(f), args.n_max)
    else:
        text = analysis.emit_csv(table, p if p is not None else analysis.csv_prime(f, table))
    _emit(text, args.out)
    return 0


def _cmd_scan(args) -> int:
    return _table(_read_poly(args.poly), args)


def _cmd_table(args) -> int:
    p, r = _parse_family_spec(args.family)
    return _table(closedform.x_dx_minus_1(p ** r), args, p)


def _cmd_conjecture(args) -> int:
    if not ntheory.is_prime(args.p):
        raise CLIError(f"--p {args.p} is not prime")
    if args.r < 1 or args.n_max < 1:
        raise CLIError("--r and --n-max must be >= 1")
    if args.r > MAX_EXPONENT:
        raise CLIError(f"--r {args.r} exceeds the cap {MAX_EXPONENT}")
    for n, value, cls in analysis.check_conjecture1(args.p, args.r, args.n_max):
        print(f"n={n} value={value} class={cls.kind.value}")
    return 0


def _cmd_primes(args) -> int:
    if args.count < 1:
        raise CLIError("--count must be >= 1")
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
    p_table.add_argument("--family", required=True, metavar="p=<prime>,r=<int>")
    p_table.set_defaults(func=_cmd_table)
    for p_run in (p_scan, p_table):  # both print a run-length table through _table
        p_run.add_argument("--n-max", type=int, required=True)
        p_run.add_argument("--format", choices=("csv", "latex"), default="csv")
        p_run.add_argument("--out")

    p_verify = sub.add_parser("verify", help="run a theorem's property suite")
    p_verify.add_argument("--theorem", type=int, choices=(1, 2, 3, 4, 5), required=True)
    p_verify.add_argument("--n-max", type=int)
    p_verify.add_argument("--seed", type=int, default=analysis.DEFAULT_SEED)
    p_verify.set_defaults(func=_cmd_verify)

    p_conj = sub.add_parser("conjecture", help="exceptions to 'prime or p^ceil(log_p n)'")
    p_conj.add_argument("--p", type=int, required=True)
    p_conj.add_argument("--r", type=int, required=True)
    p_conj.add_argument("--n-max", type=int, required=True)
    p_conj.set_defaults(func=_cmd_conjecture)

    p_primes = sub.add_parser("primes", help="primes generated by a family formula")
    p_primes.add_argument("--family", required=True, choices=sorted(closedform.FAMILIES))
    p_primes.add_argument("--count", type=int, required=True)
    p_primes.set_defaults(func=_cmd_primes)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (CLIError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
