"""Command-line interface.

Exit codes: 0 success, 1 check failure, 2 parse/usage error, 3 invariant or
precondition violation, 4 enumeration budget exceeded.  Randomized commands
require an explicit --seed; reports are byte-identical across runs with the
same arguments.  The default arithmetic mode is exact rationals; --float
parses models into floats instead.
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
from .sources import FsmSource, classify_source, stationary_mean
from .channels import FsmChannel

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_INVARIANT = 3
EXIT_BUDGET = 4


def _load(path: str, float_mode: bool):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ModelParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ModelParseError(f"{path} is not valid JSON: {exc}") from exc
    return parse_model(obj, float_mode)


def _load_source(path: str, float_mode: bool) -> FsmSource:
    model = _load(path, float_mode)
    if not isinstance(model, FsmSource):
        raise ModelParseError(f"{path} does not describe a source")
    return model


def _load_channel(path: str, float_mode: bool) -> FsmChannel:
    model = _load(path, float_mode)
    if not isinstance(model, FsmChannel):
        raise ModelParseError(f"{path} does not describe a channel")
    return model


def _emit(obj: dict, out: str | None) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
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
    for row in v.per_source:
        bits = []
        for name, value in (
            ("quasi-stationary", row.quasi_stationary),
            ("recurrent", row.recurrent),
        ):
            bits.append(f"{name}={'rejected' if value is None else value.holds}")
        bits.append(f"ams={row.ams.holds}")
        bits.append(f"r-ams={'rejected' if row.r_ams is None else row.r_ams}")
        bits.append(
            f"ergodic={'rejected' if row.ergodic is None else row.ergodic.ergodic}"
        )
        print(f"{row.label}: " + " ".join(bits))
        for check, why in sorted(row.rejections.items()):
            print(f"  {check} rejected: {why}")


def _cmd_classify(args) -> int:
    float_mode = args.mode == "float"
    if args.channel:
        ch = _load_channel(args.channel, float_mode)
        sources = [_load_source(p, float_mode) for p in args.source]
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
        src = _load_source(path, float_mode)
        verdict = classify_source(src, args.depth)
        if args.json:
            out[path] = _source_verdict_json(verdict)
        else:
            print(f"{path}:")
            v = _source_verdict_json(verdict)
            for key in (
                "stationary",
                "recurrent",
                "ams",
                "ergodic",
                "dominated_by_mean",
                "asymptotically_dominated",
            ):
                print(f"  {key}: {v[key]}")
    if args.json:
        _emit(out, None)
    return EXIT_OK


def _cmd_mean(args) -> int:
    src = _load_source(args.source, args.mode == "float")
    _emit(source_to_json(stationary_mean(src)), args.out)
    return EXIT_OK


def _cmd_qsmean(args) -> int:
    float_mode = args.mode == "float"
    ch = _load_channel(args.channel, float_mode)
    src = _load_source(args.source, float_mode)
    table = quasi_stationary_mean(src, ch, args.depth)
    _emit(table_to_json(table), args.out)
    return EXIT_OK


def _cmd_hookup(args) -> int:
    float_mode = args.mode == "float"
    src = _load_source(args.source, float_mode)
    ch = _load_channel(args.channel, float_mode)
    _emit(source_to_json(hookup(src, ch).source), args.out)
    return EXIT_OK


def _cmd_cascade(args) -> int:
    float_mode = args.mode == "float"
    first = _load_channel(args.first, float_mode)
    second = _load_channel(args.second, float_mode)
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
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(ce, fh, indent=2, sort_keys=True)
        print(f"counterexample written: {path}", file=sys.stderr)
    return EXIT_OK if report.all_passed else EXIT_CHECK_FAILED


def _cmd_sample(args) -> int:
    src = _load_source(args.source, args.mode == "float")
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
            "--exact", dest="mode", action="store_const", const="exact",
            help="exact rational arithmetic (default)",
        )
        group.add_argument(
            "--float", dest="mode", action="store_const", const="float",
            help="float arithmetic with 1e-9 comparison tolerance",
        )
        p.set_defaults(mode="exact")

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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ModelParseError, UnknownTheoremError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except AmschanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
