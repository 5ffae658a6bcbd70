"""Command-line interface.

Exit codes: 0 success, 1 check failure, 2 parse/usage error (a file that
cannot be read or written included), 3 invariant or precondition violation,
4 enumeration budget exceeded.  Randomized commands require an explicit
--seed; reports are byte-identical across runs with the same arguments.
The default arithmetic mode is exact rationals; --float parses models into
floats instead.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys

from .channels import cascade, hookup, quasi_stationary_mean
from .classify import classify_channel, run_theorem_suite, resolve_theorem_id
from .errors import (
    AmschanError,
    BudgetExceededError,
    ModelParseError,
    UnknownTheoremError,
)
from .models import (
    channel_to_json,
    parse_model,
    source_to_json,
    table_to_json,
    _sym_to_json,
)
from .oracle import monte_carlo
from .scalars import format_scalar, to_float
from .seqcore import sort_words
from .sources import classify_source, stationary_mean

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_INVARIANT = 3
EXIT_BUDGET = 4

#: the exit code of a library error is that of its nearest class listed here
ERROR_EXITS = {
    ModelParseError: EXIT_PARSE,
    UnknownTheoremError: EXIT_PARSE,
    BudgetExceededError: EXIT_BUDGET,
    AmschanError: EXIT_INVARIANT,
}


def _load(path: str, float_mode: bool, kind: str):
    """The model of kind "source" or "channel" in the file at `path`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ModelParseError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # bad JSON, bytes that are not UTF-8, an integer past Python's digit
        # cap, or arrays nested past the recursion limit
        raise ModelParseError(f"{path} is not valid JSON: {exc}") from exc
    try:
        model = parse_model(obj, float_mode)
    except ModelParseError as exc:
        raise ModelParseError(f"{path}: {exc}") from exc
    if obj["kind"] != kind:
        raise ModelParseError(f"{path} does not describe a {kind}")
    return model


def _write(path: str, text: str) -> None:
    """Write `text` to `path`; a path that cannot be opened or written is a
    usage error (exit 2), as an unreadable model file is."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ModelParseError(f"cannot write {path}: {exc}") from exc


def _emit(obj: dict, out: str | None) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if out:
        _write(out, text)
    else:
        sys.stdout.write(text)


def _word_json(word) -> list:
    return [_sym_to_json(s) for s in word]


def _source_verdict_json(v) -> dict:
    return {
        "stationary": v.stationary,
        "recurrent": {
            "holds": v.recurrent.recurrent,
            "depth": v.recurrent.depth,
            "witness": None if v.recurrent.witness is None else _word_json(v.recurrent.witness),
        },
        "ams": {
            "holds": True,
            "constant": v.ams.constant,
            "dev_small": v.ams.dev_small,
            "dev_big": v.ams.dev_big,
        },
        "ergodic": {
            "holds": v.ergodic.ergodic,
            "caveat": v.ergodic.caveat,
            "positive_classes": [list(c) for c in v.ergodic.positive_classes],
        },
        "dominated_by_mean": {
            "holds": v.dominated_by_mean.holds,
            "witness": None
            if v.dominated_by_mean.witness is None
            else _word_json(v.dominated_by_mean.witness),
        },
        "asymptotically_dominated": {"holds": v.asymptotically_dominated.holds},
    }


def _channel_verdict_json(v) -> dict:
    rows = []
    for row in v.per_source:
        rows.append(
            {
                "source": row.label,
                "quasi_stationary": None
                if row.quasi_stationary is None
                else row.quasi_stationary.holds,
                "recurrent": None if row.recurrent is None else row.recurrent.holds,
                "ams": row.ams.holds,
                "ams_constant": row.ams.evidence.constant,
                "r_ams": row.r_ams,
                "ergodic": None if row.ergodic is None else row.ergodic.ergodic,
                "rejections": dict(sorted(row.rejections.items())),
            }
        )
    return {
        "stationary_to_depth": {"holds": v.stationary.holds, "depth": v.stationary.depth},
        "per_source": rows,
        "depth": v.depth,
    }


def _print_channel_verdict(v) -> None:
    s = v.stationary
    print(f"channel stationary (depth {s.depth}): {s.holds}")
    if s.witness:
        print(f"  witness: input={_word_json(s.witness[0])} output={_word_json(s.witness[1])}")
    for row in _channel_verdict_json(v)["per_source"]:
        bits = (
            f"{key.replace('_', '-')}={'rejected' if row[key] is None else row[key]}"
            for key in ("quasi_stationary", "recurrent", "ams", "r_ams", "ergodic")
        )
        print(f"{row['source']}: " + " ".join(bits))
        for check, why in row["rejections"].items():
            print(f"  {check} rejected: {why}")


def _cmd_classify(args) -> int:
    if args.channel:
        ch = _load(args.channel, args.float_mode, "channel")
        sources = [_load(p, args.float_mode, "source") for p in args.source]
        verdict = classify_channel(ch, sources, args.depth, labels=list(args.source))
        if args.json:
            _emit(_channel_verdict_json(verdict), None)
        else:
            _print_channel_verdict(verdict)
        return EXIT_OK
    if not args.source:
        raise ModelParseError("classify needs --channel and/or --source")
    out = {}
    for path in args.source:
        src = _load(path, args.float_mode, "source")
        out[path] = verdict = _source_verdict_json(classify_source(src, args.depth))
        if not args.json:
            print(f"{path}:")
            for key, value in verdict.items():
                print(f"  {key}: {value}")
    if args.json:
        _emit(out, None)
    return EXIT_OK


def _cmd_mean(args) -> int:
    src = _load(args.source, args.float_mode, "source")
    _emit(source_to_json(stationary_mean(src)), args.out)
    return EXIT_OK


def _cmd_qsmean(args) -> int:
    ch = _load(args.channel, args.float_mode, "channel")
    src = _load(args.source, args.float_mode, "source")
    _emit(table_to_json(quasi_stationary_mean(src, ch, args.depth)), args.out)
    return EXIT_OK


def _cmd_hookup(args) -> int:
    src = _load(args.source, args.float_mode, "source")
    ch = _load(args.channel, args.float_mode, "channel")
    _emit(source_to_json(hookup(src, ch).source), args.out)
    return EXIT_OK


def _cmd_cascade(args) -> int:
    first = _load(args.first, args.float_mode, "channel")
    second = _load(args.second, args.float_mode, "channel")
    _emit(channel_to_json(cascade(first, second)), args.out)
    return EXIT_OK


def _cmd_check(args) -> int:
    canonical = resolve_theorem_id(args.theorem)
    workers = min(args.jobs, args.trials, os.cpu_count() or 1)
    if workers > 1:
        with multiprocessing.Pool(workers) as pool:
            report = run_theorem_suite(canonical, args.trials, args.depth, args.seed, pool.map)
    else:
        report = run_theorem_suite(canonical, args.trials, args.depth, args.seed)
    sys.stdout.write(report.to_text())
    for name, ce in report.counterexamples:
        path = os.path.join(
            args.out_dir, f"{canonical}_{name.replace(' ', '')}_counterexample.json"
        )
        _write(path, json.dumps(ce, indent=2, sort_keys=True))
        print(f"counterexample written: {path}", file=sys.stderr)
    return EXIT_OK if report.all_passed else EXIT_CHECK_FAILED


def _cmd_sample(args) -> int:
    src = _load(args.source, args.float_mode, "source")
    table = monte_carlo(src, args.horizon, args.samples, args.seed)
    words = sort_words(table.freq.keys(), src.alphabet)
    if args.json:
        _emit(
            {
                "kind": "empirical",
                "horizon": table.horizon,
                "samples": table.samples,
                "seed": table.seed,
                "freq": [
                    {
                        "word": _word_json(w),
                        "freq": format_scalar(table.freq[w]),
                        "ci99_half_width": table.ci_half_width(w),
                    }
                    for w in words
                ],
            },
            None,
        )
    else:
        for w in words:
            print(
                f"{_word_json(w)}: {format_scalar(table.freq[w])}"
                f" (~{to_float(table.freq[w]):.4f} +/- {table.ci_half_width(w):.4f})"
            )
    return EXIT_OK


def count(text: str) -> int:
    """argparse type of a depth, trial, job, horizon or sample count: an
    integer of at least 1, or else a usage error (exit 2)."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="amschan",
        description="Exact finite-state toolkit for asymptotically mean "
        "stationary sources and channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_mode(p):
        group = p.add_mutually_exclusive_group()
        group.add_argument(
            "--exact", dest="float_mode", action="store_false",
            help="exact rational arithmetic (default)",
        )
        group.add_argument(
            "--float", dest="float_mode", action="store_true",
            help="float arithmetic with 1e-9 comparison tolerance",
        )
        p.set_defaults(float_mode=False)

    p = sub.add_parser("classify", help="stability verdicts for a channel or sources")
    p.add_argument("--channel")
    p.add_argument("--source", action="append", default=[])
    p.add_argument("--depth", type=count, default=3)
    p.add_argument("--json", action="store_true")
    add_mode(p)
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("mean", help="stationary mean of a source, as a model file")
    p.add_argument("--source", required=True)
    p.add_argument("--out")
    add_mode(p)
    p.set_defaults(fn=_cmd_mean)

    p = sub.add_parser("qsmean", help="quasi-stationary mean table of a channel")
    p.add_argument("--channel", required=True)
    p.add_argument("--source", required=True, help="stationary source model")
    p.add_argument("--depth", type=count, default=3)
    p.add_argument("--out")
    add_mode(p)
    p.set_defaults(fn=_cmd_qsmean)

    p = sub.add_parser("hookup", help="joint input/output source of source+channel")
    p.add_argument("--source", required=True)
    p.add_argument("--channel", required=True)
    p.add_argument("--out")
    add_mode(p)
    p.set_defaults(fn=_cmd_hookup)

    p = sub.add_parser("cascade", help="Markovian composition of two channels")
    p.add_argument("--first", required=True)
    p.add_argument("--second", required=True)
    p.add_argument("--out")
    add_mode(p)
    p.set_defaults(fn=_cmd_cascade)

    p = sub.add_parser("check", help="run a bundled claim check suite")
    p.add_argument("--theorem", required=True, help="claim id, e.g. prop8")
    p.add_argument("--trials", type=count, required=True)
    p.add_argument("--depth", type=count, default=3)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--jobs", type=count, default=1)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("sample", help="Monte Carlo empirical word frequencies")
    p.add_argument("--source", required=True)
    p.add_argument("--horizon", type=count, required=True)
    p.add_argument("--samples", type=count, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--json", action="store_true")
    add_mode(p)
    p.set_defaults(fn=_cmd_sample)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except AmschanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(ERROR_EXITS[c] for c in type(exc).__mro__ if c in ERROR_EXITS)


if __name__ == "__main__":
    sys.exit(main())
