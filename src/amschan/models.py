"""Model files: JSON descriptions of sources and channels.

Probabilities are serialized as "num/den" strings so exact values survive
the trip through text.  Parsers also accept {"num": ..., "den": ...}
objects, decimal strings, and plain JSON numbers; in exact mode JSON
decimals are read as exact decimal fractions, in float mode everything
becomes a float and distributions within 1e-12 of normalized, but off by
more than the rounding of their sum, are renormalized with a warning.

Product symbols (labels of joint processes) are nested arrays: "a" stays a
string, ("a", "b") becomes ["a", "b"].

A parser reads each distinct probability string (or JSON integer) once per
model, with a memo local to that call: equal entries of a parsed model share
one value object, so an n-state chain with a handful of distinct
probabilities holds a handful of Fractions, not n^2.  Exact zeros stay
`Fraction(0)`.  Only float mode sums a distribution while parsing.
"""

from __future__ import annotations

import re
import warnings
from collections import defaultdict
from collections.abc import Callable
from fractions import Fraction

from .channels import ConditionalKernelTable, FsmChannel
from .errors import ModelParseError
from .linalg import total
from .scalars import Scalar, format_scalar, to_float
from .seqcore import Alphabet, Word, sort_words
from .sources import FsmSource

NORMALIZATION_SLACK = 1e-12

#: the probability strings read on every supported Python, the grammar of
#: Python 3.11's `Fraction`: a sign, digits with single underscores between
#: them, then a denominator or a fractional part and exponent, with
#: whitespace only at the ends.  3.10 rejects the underscores, which are
#: removed before conversion, and 3.12 also reads spaces around the "/".
PROB_FORMAT = re.compile(
    r"""\s*[-+]?(?=\d|\.\d)(\d+(_\d+)*)?
    (/\d+(_\d+)*|(\.(\d+(_\d+)*)?)?([eE](?P<exponent>[-+]?\d+(_\d+)*))?)\s*""",
    re.VERBOSE,
)

#: the largest decimal exponent, in absolute value, that a probability
#: string may carry: Python's default cap on the digits of an int.  `Fraction`
#: builds 10**exponent, in time that grows faster than the exponent, so
#: without a bound "1e-10000000" takes seconds to read.
MAX_EXPONENT = 4300


def parse_prob(obj, float_mode: bool = False) -> Scalar:
    try:
        if isinstance(obj, dict):
            value = Fraction(int(obj["num"]), int(obj["den"]))
        elif isinstance(obj, bool):
            raise ModelParseError(f"not a probability: {obj!r}")
        elif isinstance(obj, int):
            value = Fraction(obj)
        elif isinstance(obj, float):
            value = Fraction(repr(obj)) if not float_mode else obj
        elif isinstance(obj, str):
            match = PROB_FORMAT.fullmatch(obj)
            if match is None:
                raise ValueError("not a rational number")
            if match["exponent"] and abs(int(match["exponent"])) > MAX_EXPONENT:
                raise ValueError(f"exponent beyond +-{MAX_EXPONENT}")
            value = Fraction(obj.replace("_", ""))
        else:
            raise ModelParseError(f"not a probability: {obj!r}")
        return to_float(value) if float_mode else value
    except (ValueError, KeyError, ZeroDivisionError, OverflowError) as exc:
        raise ModelParseError(f"bad probability {obj!r}: {exc}") from exc


def _prob_reader(float_mode: bool) -> Callable[[object], Scalar]:
    """`parse_prob` for one model: each distinct string or int is parsed
    once.  JSON floats are not memoised, as -0.0 == 0.0 would merge two
    entries that serialize differently; neither are bools (True == 1), which
    `parse_prob` rejects."""
    memo: dict = {}

    def read(obj) -> Scalar:
        if type(obj) not in (str, int):
            return parse_prob(obj, float_mode)
        value = memo.get(obj)
        if value is None:
            value = memo[obj] = parse_prob(obj, float_mode)
        return value

    return read


def _sym_to_json(sym):
    if isinstance(sym, tuple):
        return [_sym_to_json(s) for s in sym]
    return sym


def _sym_from_json(obj):
    if isinstance(obj, list):
        return tuple(_sym_from_json(s) for s in obj)
    if isinstance(obj, str):
        return obj
    raise ModelParseError(f"bad symbol {obj!r}")


def _parse_alphabet(obj) -> Alphabet:
    if not isinstance(obj, list) or not obj:
        raise ModelParseError("alphabet must be a nonempty array")
    return Alphabet(tuple(_sym_from_json(s) for s in obj))


def _normalize(vec: list[Scalar], what: str, float_mode: bool) -> tuple[Scalar, ...]:
    """In float mode, rescale a vector whose sum is off 1 by more than
    len(vec) * 2**-53, the rounding of a float sum, and by at most
    NORMALIZATION_SLACK; so a vector the tool wrote reads back unchanged.
    An exact vector is returned as it is; `FsmSource` checks its sum."""
    if not float_mode:
        return tuple(vec)
    mass = total(vec)
    if mass and len(vec) * 2**-53 < abs(mass - 1.0) <= NORMALIZATION_SLACK:
        warnings.warn(f"{what} renormalized (off by {mass - 1.0:.2e})")
        return tuple(x / mass for x in vec)
    return tuple(vec)


def source_to_json(src: FsmSource) -> dict:
    return {
        "kind": "source",
        "alphabet": [_sym_to_json(s) for s in src.alphabet],
        "states": [
            {"name": name, "label": _sym_to_json(lab)}
            for name, lab in zip(src.states, src.labels)
        ],
        "init": [format_scalar(x) for x in src.init],
        "trans": [[format_scalar(x) for x in row] for row in src.trans],
    }


def channel_to_json(ch: FsmChannel) -> dict:
    entries = []
    for q, name in enumerate(ch.states):
        for a in ch.in_alphabet:
            for b, q2, p in ch.kernel[(q, a)]:
                entries.append(
                    {
                        "state": name,
                        "in": _sym_to_json(a),
                        "out": _sym_to_json(b),
                        "next": ch.states[q2],
                        "prob": format_scalar(p),
                    }
                )
    return {
        "kind": "channel",
        "in_alphabet": [_sym_to_json(s) for s in ch.in_alphabet],
        "out_alphabet": [_sym_to_json(s) for s in ch.out_alphabet],
        "states": list(ch.states),
        "init": [format_scalar(x) for x in ch.init],
        "kernel": entries,
    }


def parse_model(obj, float_mode: bool = False) -> FsmSource | FsmChannel:
    if not isinstance(obj, dict):
        raise ModelParseError("model file must be a JSON object")
    kind = obj.get("kind")
    if kind == "source":
        return parse_source(obj, float_mode)
    if kind == "channel":
        return parse_channel(obj, float_mode)
    raise ModelParseError(f"unknown model kind {kind!r}")


def parse_source(obj, float_mode: bool = False) -> FsmSource:
    try:
        alphabet = _parse_alphabet(obj["alphabet"])
        states = obj["states"]
        names = tuple(s["name"] for s in states)
        labels = tuple(_sym_from_json(s["label"]) for s in states)
        read = _prob_reader(float_mode)
        init = _normalize([read(x) for x in obj["init"]], "init", float_mode)
        trans = tuple(
            _normalize([read(x) for x in row], "transition row", float_mode)
            for row in obj["trans"]
        )
    except (KeyError, TypeError, RecursionError) as exc:
        raise ModelParseError(f"malformed source model: {exc!r}") from exc
    return FsmSource(alphabet, names, init, trans, labels)


def parse_channel(obj, float_mode: bool = False) -> FsmChannel:
    try:
        in_alphabet = _parse_alphabet(obj["in_alphabet"])
        out_alphabet = _parse_alphabet(obj["out_alphabet"])
        names = tuple(
            s["name"] if isinstance(s, dict) else s for s in obj["states"]
        )
        index = {name: i for i, name in enumerate(names)}
        read = _prob_reader(float_mode)
        init = _normalize([read(x) for x in obj["init"]], "channel init", float_mode)
        rows: dict[tuple[int, object], dict] = {
            (q, a): {} for q in range(len(names)) for a in in_alphabet
        }
        for entry in obj["kernel"]:
            q = index[entry["state"]]
            a = _sym_from_json(entry["in"])
            b = _sym_from_json(entry["out"])
            q2 = index[entry["next"]]
            p = read(entry["prob"])
            key = (b, q2)
            if (q, a) not in rows:
                raise ModelParseError(f"kernel entry for unknown input {a!r}")
            acc = rows[(q, a)]
            acc[key] = acc[key] + p if key in acc else (p if p else 0 + p)
    except (KeyError, TypeError, RecursionError) as exc:
        raise ModelParseError(f"malformed channel model: {exc!r}") from exc
    kernel = {}
    for key, acc in rows.items():
        vec = _normalize(list(acc.values()), "kernel row", float_mode)
        kernel[key] = tuple(
            (b, q2, p) for ((b, q2), p) in zip(acc.keys(), vec)
        )
    return FsmChannel(in_alphabet, out_alphabet, names, init, kernel)


def table_to_json(t: ConditionalKernelTable) -> dict:
    """Conditional table with entries in canonical lexicographic order.
    The entries are grouped by input word in one pass, then sorted."""
    outputs: defaultdict[Word, list[Word]] = defaultdict(list)
    for w, v in t.entries:
        outputs[w].append(v)
    entries = [
        {
            "input": [_sym_to_json(s) for s in w],
            "output": [_sym_to_json(s) for s in v],
            "prob": format_scalar(t.entries[(w, v)]),
        }
        for w in sort_words(outputs, t.in_alphabet)
        for v in sort_words(outputs[w], t.out_alphabet)
    ]
    return {
        "kind": "table",
        "depth": t.depth,
        "in_alphabet": [_sym_to_json(s) for s in t.in_alphabet],
        "out_alphabet": [_sym_to_json(s) for s in t.out_alphabet],
        "entries": entries,
        "flagged": [
            [_sym_to_json(s) for s in w] for w in sort_words(t.flagged, t.in_alphabet)
        ],
    }
