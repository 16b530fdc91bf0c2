"""Command-line front end: analyze one graph, fuzz the theorem suite over a
seeded corpus, or emit generated graphs.

Exit codes: 0 success, 1 check failure (always an implementation bug),
2 input, output or config error or a MemoryError, 3 oracle-bound refusal.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from typing import Iterator

from .analysis import analyze
from .graph import (
    FIXTURE_NAMES,
    GeneratorSpec,
    Graph,
    ParseError,
    bipartite_gnp,
    disjoint_union,
    fixture,
    generate,
    gnp,
    parse_graph,
    to_edge_list,
)
from .oracle import DEFAULT_ORACLE_BOUND, MAX_ORACLE_BOUND, OracleBoundError

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_INPUT_ERROR = 2
EXIT_BOUND_REFUSAL = 3


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _oracle_bound(text: str) -> int:
    value = _non_negative_int(text)
    if value > MAX_ORACLE_BOUND:
        raise argparse.ArgumentTypeError(f"must be at most {MAX_ORACLE_BOUND}, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="critind",
        description="Critical-independence profiles and Konig-Egervary analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="analyze a single graph")
    src = p_an.add_mutually_exclusive_group()
    src.add_argument("--input", default="-", help="input path, or '-' for stdin (default)")
    src.add_argument("--fixture", choices=FIXTURE_NAMES, help="use a named fixture graph")
    p_an.add_argument("--format", choices=("edge_list", "dimacs"), default="edge_list")
    p_an.add_argument("--output", choices=("json", "text"), default="json")
    p_an.add_argument("--oracle-bound", type=_oracle_bound, default=DEFAULT_ORACLE_BOUND)
    p_an.add_argument(
        "--full",
        action="store_true",
        help="demand the full (oracle-backed) profile; refuse beyond the bound",
    )
    p_an.add_argument(
        "--skip-checks", action="store_true", help="omit theorem checks from the report"
    )
    p_an.set_defaults(func=cmd_analyze)

    p_ver = sub.add_parser("verify", help="machine-check the theorems on random graphs")
    p_ver.add_argument("--trials", type=int, required=True)
    p_ver.add_argument("--n", default="4..12", help="vertex-count range, e.g. 4..12")
    p_ver.add_argument(
        "--p", default="0.1,0.3,0.5,0.8", help="comma-separated edge probabilities"
    )
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--oracle-bound", type=_oracle_bound, default=DEFAULT_ORACLE_BOUND)
    p_ver.set_defaults(func=cmd_verify)

    p_gen = sub.add_parser("generate", help="emit a generated graph as edge_list text")
    kind = p_gen.add_mutually_exclusive_group(required=True)
    kind.add_argument("--fixture", choices=FIXTURE_NAMES)
    kind.add_argument("--gnp", nargs=2, metavar=("N", "P"))
    kind.add_argument("--bipartite", nargs=3, metavar=("L", "R", "P"))
    kind.add_argument("--union", nargs=2, metavar=("SIZES", "P"), help="e.g. --union 4,5 0.3")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.set_defaults(func=cmd_generate)

    return parser


def _read_graph(args: argparse.Namespace) -> Graph:
    if args.fixture:
        return fixture(args.fixture)
    if args.input == "-":
        text = sys.stdin.read()
        # Under a C or POSIX locale stdin decodes with surrogateescape, so
        # bytes that are not UTF-8 arrive as lone surrogates: reject them
        # here as a file read rejects them.
        text.encode("utf-8")
    else:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    return parse_graph(text, args.format)


def cmd_analyze(args: argparse.Namespace) -> int:
    try:
        g = _read_graph(args)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except UnicodeError as exc:
        print(f"error: input is not valid UTF-8: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    try:
        report = analyze(
            g,
            oracle_bound=args.oracle_bound,
            include_checks=not args.skip_checks,
            require_oracle=args.full,
        )
    except OracleBoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BOUND_REFUSAL
    if args.output == "json":
        print(json.dumps(report.to_json_dict(), indent=2))
    else:
        sys.stdout.write(report.to_text())
    return EXIT_OK if report.ok else EXIT_CHECK_FAILURE


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        lo = hi = text
    try:
        lo_i, hi_i = int(lo), int(hi)
    except ValueError:
        raise ValueError(f"bad range {text!r}; expected e.g. 4..12") from None
    if lo_i < 0 or hi_i < lo_i:
        raise ValueError(f"bad range {text!r}")
    return lo_i, hi_i


def corpus_specs(
    trials: int, n_lo: int, n_hi: int, p_values: list[float], seed: int
) -> Iterator[GeneratorSpec]:
    """The seeded generator sweep behind `verify`: mostly G(n,p), with
    bipartite and disjoint-union families mixed in. Fully determined by
    (trials, range, p_values, seed)."""
    master = random.Random(seed)
    kinds = ("gnp", "gnp", "gnp", "bipartite_gnp", "disjoint_union")
    for _ in range(trials):
        kind = master.choice(kinds)
        n = master.randint(n_lo, n_hi)
        p = master.choice(p_values)
        sub_seed = master.getrandbits(63)
        if kind == "gnp":
            yield GeneratorSpec("gnp", n=n, p=p, seed=sub_seed)
        elif kind == "bipartite_gnp":
            yield GeneratorSpec("bipartite_gnp", parts=(n // 2, n - n // 2), p=p, seed=sub_seed)
        else:
            yield GeneratorSpec("disjoint_union", parts=(n // 2, n - n // 2), p=p, seed=sub_seed)


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        if args.trials < 1:
            raise ValueError("--trials must be at least 1")
        n_lo, n_hi = _parse_range(args.n)
        p_values = [float(tok) for tok in args.p.split(",") if tok]
        if not p_values or any(not (0.0 <= p <= 1.0) for p in p_values):
            raise ValueError(f"bad probability list {args.p!r}")
        if n_hi > args.oracle_bound:
            raise ValueError(
                f"n range top {n_hi} exceeds oracle bound {args.oracle_bound}; "
                "verification needs the exact oracle"
            )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR

    failures = 0
    for trial, spec in enumerate(
        corpus_specs(args.trials, n_lo, n_hi, p_values, args.seed)
    ):
        g = generate(spec)
        report = analyze(g, oracle_bound=args.oracle_bound, include_checks=True)
        if report.ok:
            continue
        failures += 1
        print(f"trial {trial} FAILED ({','.join(report.failures)})")
        print(f"spec: {spec}")
        print("graph (edge_list):")
        sys.stdout.write(to_edge_list(g))
    passed = args.trials - failures
    print(f"{passed}/{args.trials} passed")
    return EXIT_OK if failures == 0 else EXIT_CHECK_FAILURE


def cmd_generate(args: argparse.Namespace) -> int:
    try:
        if args.fixture:
            g = fixture(args.fixture)
        elif args.gnp:
            g = gnp(int(args.gnp[0]), float(args.gnp[1]), args.seed)
        elif args.bipartite:
            left, right = int(args.bipartite[0]), int(args.bipartite[1])
            g = bipartite_gnp(left, right, float(args.bipartite[2]), args.seed)
        else:
            sizes = tuple(int(tok) for tok in args.union[0].split(",") if tok)
            if not sizes:
                raise ValueError(f"bad size list {args.union[0]!r}; expected e.g. 4,5")
            g = disjoint_union(sizes, float(args.union[1]), args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    sys.stdout.write(to_edge_list(g))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout: the flush at exit goes to devnull instead.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_INPUT_ERROR
    except MemoryError:
        code = None  # reported once the frames that hold the memory are freed
    if code is None:
        print("error: out of memory; the input is too large", file=sys.stderr)
        return EXIT_INPUT_ERROR
    return code


if __name__ == "__main__":
    sys.exit(main())
