"""Model files read and written value for value.

The parsers read each distinct probability string once per model.  These
tests hold them to the per-entry rule they replaced, in which every entry
got a fresh value and a string was read by Python 3.11's `Fraction(str)`:
the same values, the same types, the same warnings and `ModelParseError`
on the same inputs.  Other Pythons' `Fraction` reads a different grammar,
so there the reference first checks the string against
`models.PROB_FORMAT`, which is held to 3.11's `Fraction` on its own.
"""

import json
import re
import sys
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amschan.battery import ABC, rand_channel, rand_source
from amschan.errors import ModelParseError
from amschan.models import (
    MAX_EXPONENT,
    PROB_FORMAT,
    channel_to_json,
    parse_channel,
    parse_prob,
    parse_source,
    source_to_json,
)
from amschan.rng import SplitMix64
from amschan.scalars import format_scalar
from amschan.sources import as_float_source

SETTINGS = settings(max_examples=60)
ON_311 = sys.version_info[:2] == (3, 11)


def fresh_prob(obj, float_mode=False):
    """One entry by the per-entry rule: a new value each time.  A string
    whose decimal exponent is beyond 4300 in absolute value, or a value too
    large for a float in float mode, is a parse error."""
    try:
        exponent = re.search(r"[eE]([-+]?\d[\d_]*)", obj) if isinstance(obj, str) else None
        if exponent and abs(int(exponent.group(1).replace("_", ""))) > 4300:
            raise ModelParseError(f"bad probability {obj!r}")
        if isinstance(obj, dict):
            value = Fraction(int(obj["num"]), int(obj["den"]))
        elif isinstance(obj, bool):
            raise ModelParseError(f"not a probability: {obj!r}")
        elif isinstance(obj, int):
            value = Fraction(obj)
        elif isinstance(obj, float):
            value = Fraction(repr(obj)) if not float_mode else obj
        elif isinstance(obj, str) and ON_311:
            value = Fraction(obj)
        elif isinstance(obj, str):
            if PROB_FORMAT.fullmatch(obj) is None:
                raise ModelParseError(f"bad probability {obj!r}")
            value = Fraction(obj.replace("_", ""))
        else:
            raise ModelParseError(f"not a probability: {obj!r}")
        return float(value) if float_mode else value
    except (ValueError, KeyError, ZeroDivisionError, OverflowError) as exc:
        raise ModelParseError(f"bad probability {obj!r}: {exc}") from exc


def fresh_normalize(vec, what, float_mode):
    """The float-mode rescaling, applied to a vector summed in full, left to
    right from int 0 (``sum`` compensates float rounding on Python 3.12+)."""
    total = 0
    for x in vec:
        total += x
    if float_mode and total and len(vec) * 2**-53 < abs(total - 1.0) <= 1e-12:
        warnings.warn(f"{what} renormalized (off by {total - 1.0:.2e})")
        return tuple(x / total for x in vec)
    return tuple(vec)


def typed(xs):
    """Values with their types: Fraction(1, 2), 0.5, -0.0 and 1 all differ."""
    return [repr(x) for x in xs]


def recorded(fn, *args):
    """(result or exception type, warning messages) of fn(*args)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = fn(*args)
        except Exception as exc:  # compared by type with the reference
            result = type(exc)
    return result, [str(w.message) for w in caught]


BAD = ["x/y", "1/0", None, True, False, "", "1__0", "1 /2", [1], {"num": 1},
       "1e-99999", "9e4_301"]

raw_probs = st.one_of(
    st.text(alphabet="0123456789_./eE+- \t", max_size=8),
    st.builds(lambda n, d: f"{n}/{d}", st.integers(-3, 40), st.integers(0, 40)),
    st.integers(-3, 10**20),
    st.builds(lambda n, d: {"num": n, "den": d}, st.integers(-3, 40), st.integers(0, 40)),
    st.floats(),
    st.sampled_from(BAD),
)


def forms(v: Fraction) -> list:
    """Ways to write the probability v in a model file."""
    n, d = v.numerator, v.denominator
    out = [f"{n}/{d}", f"+{n}/{d}", f" {n}/{d}\t", {"num": n, "den": d}, {"num": str(n), "den": d}]
    if d >= 10:
        out.append(f"{n}/{str(d)[0]}_{str(d)[1:]}")
    if d == 1:
        out += [n, str(n), f"{n}.0", f"{n}e0"]
    if n == 0:
        out += ["-0", "0/7", "-0.0", "0e3", 0, -0.0]
    for k in range(7):
        if 10**k % d == 0:
            digits = n * (10**k // d)
            decimal = f"{digits // 10**k}.{digits % 10**k:0{k}d}" if k else str(digits)
            out += [decimal, f"{digits}e-{k}", float(decimal)]
            break
    return out


def render(data, vec, bad: bool) -> list:
    """vec written entry by entry in drawn forms; with `bad`, one entry is
    replaced by an unreadable one."""
    out = [data.draw(st.sampled_from(forms(Fraction(x)))) for x in vec]
    if bad:
        out[data.draw(st.integers(0, len(out) - 1))] = data.draw(st.sampled_from(BAD))
    return out


@SETTINGS
@given(raw_probs, st.booleans())
def test_parse_prob_matches_the_per_entry_rule(obj, float_mode):
    got, want = recorded(parse_prob, obj, float_mode), recorded(fresh_prob, obj, float_mode)
    if isinstance(want[0], type):
        assert got == want
    else:
        assert typed([got[0]]) == typed([want[0]])


def fraction_reads(text: str) -> bool:
    """Whether this Python's `Fraction` accepts `text` as a number; a zero
    denominator is read, then refused."""
    try:
        Fraction(text)
    except ZeroDivisionError:
        return True
    except ValueError:
        return False
    return True


@pytest.mark.skipif(not ON_311, reason="PROB_FORMAT is the grammar of 3.11's Fraction")
@settings(max_examples=3000)
@given(st.text(alphabet="0123456789\u0663_./eEdD+- \t\n", max_size=10))
def test_prob_format_is_the_grammar_of_fraction_on_311(text):
    assert (PROB_FORMAT.fullmatch(text) is not None) == fraction_reads(text)


@pytest.mark.parametrize(
    "text, value",
    [("1_0/3", Fraction(10, 3)), (" 3/4\t", Fraction(3, 4)), ("+.5e1", Fraction(5)),
     ("1.", Fraction(1)), ("1_0.2_5", Fraction(41, 4)), ("1 /2", None), ("1/ 2", None),
     ("1__0", None), ("1_", None), ("1.d", None), (".", None)],
)
def test_probability_strings_read_alike_on_every_python(text, value):
    """Strings read as Python 3.11's `Fraction` reads them, also where 3.10
    (underscores) or 3.12 and later (spaces around "/") read them
    differently."""
    if value is None:
        with pytest.raises(ModelParseError):
            parse_prob(text)
    else:
        assert parse_prob(text) == value


@pytest.mark.parametrize("float_mode", [False, True])
def test_probability_exponents_are_bounded(float_mode):
    """A decimal exponent beyond MAX_EXPONENT, and in float mode a value
    beyond the float range, is a parse error; `Fraction` would take minutes
    to build 10**10**8."""
    assert MAX_EXPONENT == 4300
    for text in ("1e-4300", "5e-4_300", "0.5e-0004300"):
        value = Fraction(text.replace("_", ""))
        assert parse_prob(text, float_mode) == (float(value) if float_mode else value)
    for text in ("1e4301", "1e-4301", "1e-1_0000_0000", "1e+0004301", "1e-" + "9" * 5000):
        with pytest.raises(ModelParseError, match="bad probability"):
            parse_prob(text, float_mode)
    if float_mode:
        with pytest.raises(ModelParseError, match="too large"):
            parse_prob("1e400", float_mode)
    else:
        assert parse_prob("1e400") == 10**400


@SETTINGS
@given(st.data(), st.integers(0, 2**32), st.integers(1, 4), st.booleans(), st.booleans())
def test_parse_source_matches_the_per_entry_rule(data, seed, n, float_mode, bad):
    doc = source_to_json(rand_source(SplitMix64(seed), ABC, n_states=n, zero_prob=0.4))
    doc["init"] = render(data, doc["init"], False)
    rows = [render(data, row, False) for row in doc["trans"]]
    if bad:
        rows[data.draw(st.integers(0, n - 1))] = render(data, doc["trans"][0], True)
    doc["trans"] = rows

    def reference():
        def read(vec, what):
            return fresh_normalize([fresh_prob(x, float_mode) for x in vec], what, float_mode)

        return [read(doc["init"], "init")] + [read(row, "transition row") for row in rows]

    want, want_warnings = recorded(reference)
    got, got_warnings = recorded(parse_source, doc, float_mode)
    if bad:
        assert want is ModelParseError and got is ModelParseError
        return
    assert got_warnings == want_warnings
    assert [typed(got.init)] + [typed(row) for row in got.trans] == [typed(v) for v in want]


@SETTINGS
@given(st.data(), st.integers(0, 2**32), st.integers(1, 3), st.booleans(), st.booleans())
def test_parse_channel_matches_the_per_entry_rule(data, seed, n, float_mode, bad):
    doc = channel_to_json(rand_channel(SplitMix64(seed), ABC, ABC, n_states=n))
    entries, tail = [], []
    for entry in doc["kernel"]:
        p = Fraction(entry["prob"])
        if data.draw(st.booleans()):  # split in two, the second part read last
            tail.append(dict(entry, prob=p - p / 3))
            p = p / 3
        entries.append(dict(entry, prob=p))
    entries += tail
    doc["init"] = render(data, doc["init"], False)
    probs = render(data, [e["prob"] for e in entries], bad)
    doc["kernel"] = [dict(e, prob=prob) for e, prob in zip(entries, probs)]

    def reference():
        index = {name: i for i, name in enumerate(doc["states"])}
        rows: dict = {}
        for e in doc["kernel"]:
            key = (e["out"], index[e["next"]])
            row = rows.setdefault((index[e["state"]], e["in"]), {})
            row[key] = row.get(key, 0) + fresh_prob(e["prob"], float_mode)
        kernel = {}
        for qa, row in rows.items():
            vec = fresh_normalize(list(row.values()), "kernel row", float_mode)
            kernel[qa] = [(b, q2, repr(p)) for (b, q2), p in zip(row, vec)]
        init = [fresh_prob(x, float_mode) for x in doc["init"]]
        return typed(fresh_normalize(init, "channel init", float_mode)), kernel

    want, want_warnings = recorded(reference)
    got, got_warnings = recorded(parse_channel, doc, float_mode)
    if bad:
        assert want is ModelParseError and got is ModelParseError
        return
    assert got_warnings == want_warnings
    kernel = {qa: [(b, q2, repr(p)) for b, q2, p in es] for qa, es in got.kernel.items() if es}
    assert (typed(got.init), kernel) == want


def test_parsed_entries_share_one_value_per_distinct_string():
    # the pin on the memo: every zero of the parsed chain is one object, and
    # the chain holds one value per distinct probability string
    doc = source_to_json(rand_source(SplitMix64(7), ABC, n_states=8, zero_prob=0.5))
    text = json.loads(json.dumps(doc))
    src = parse_source(text)
    entries = [*src.init, *(x for row in src.trans for x in row)]
    zeros = [x for x in entries if x == 0]
    assert len(zeros) > 8 and len({id(x) for x in zeros}) == 1
    assert type(zeros[0]) is Fraction
    strings = [*text["init"], *(x for row in text["trans"] for x in row)]
    assert len({id(x) for x in entries}) == len(set(strings))


def test_entries_equal_in_python_stay_apart():
    # -0.0 == 0.0 and True == 1, but they read differently
    states = [{"name": f"s{i}", "label": "a"} for i in range(3)]
    doc = {"kind": "source", "alphabet": ["a"], "states": states, "init": [0.0, -0.0, 1],
           "trans": [[1, 0.0, -0.0], ["0", 1, "-0.0"], [0, 0, True]]}
    doc["trans"][2][2] = 1
    src = parse_source(doc, float_mode=True)
    assert typed(src.init) == ["0.0", "-0.0", "1.0"]
    assert typed(src.trans[0] + src.trans[1]) == ["1.0", "0.0", "-0.0", "0.0", "1.0", "0.0"]
    doc["trans"][2][2] = True
    for float_mode in (False, True):
        try:
            parse_source(doc, float_mode)
        except ModelParseError:
            continue
        raise AssertionError("True read as a probability")
    ch = {"kind": "channel", "in_alphabet": ["a"], "out_alphabet": ["a", "b"],
          "states": ["q"], "init": [1],
          "kernel": [{"state": "q", "in": "a", "out": "a", "next": "q", "prob": 1.0},
                     {"state": "q", "in": "a", "out": "b", "next": "q", "prob": -0.0}]}
    # a zero kernel entry is read as 0 + p: -0.0 becomes 0.0
    assert typed(p for *_, p in parse_channel(ch, float_mode=True).kernel[(0, "a")]) == [
        "1.0", "0.0"]


@settings(max_examples=25)
@given(st.integers(0, 2**32), st.integers(1, 5))
def test_models_round_trip_by_value_and_type(seed, n):
    rng = SplitMix64(seed)
    src = rand_source(rng, ABC, n_states=n, zero_prob=0.4)
    ch = rand_channel(rng, ABC, ABC, n_states=min(n, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fch = parse_channel(channel_to_json(ch), float_mode=True)
        for model, float_mode in ((src, False), (as_float_source(src), True)):
            back = parse_source(json.loads(json.dumps(source_to_json(model))), float_mode)
            assert typed(back.init) == typed(model.init)
            assert [typed(r) for r in back.trans] == [typed(r) for r in model.trans]
        for model, float_mode in ((ch, False), (fch, True)):
            back = parse_channel(json.loads(json.dumps(channel_to_json(model))), float_mode)
            assert typed(back.init) == typed(model.init)
            assert {k: typed(p for *_, p in es) for k, es in back.kernel.items()} == {
                k: typed(p for *_, p in es) for k, es in model.kernel.items()
            }
            assert {k: [e[:2] for e in es] for k, es in back.kernel.items()} == {
                k: [e[:2] for e in es] for k, es in model.kernel.items()
            }


def fresh_format(x):
    """Serialisation by way of a new Fraction, for ints and Fractions alike."""
    if isinstance(x, float):
        return repr(x)
    f = Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


@SETTINGS
@given(st.one_of(st.integers(), st.booleans(), st.fractions(), st.floats()))
def test_format_scalar_matches_a_fresh_fraction(x):
    assert format_scalar(x) == fresh_format(x)


def test_format_scalar_examples():
    cases = [0, 1, True, False, Fraction(0), Fraction(-3, 7), Fraction(10**30 + 1, 3**20),
             Fraction(-(10**25)), 0.0, -0.0, 0.1, 1e-300]
    assert [format_scalar(x) for x in cases] == [fresh_format(x) for x in cases]
    assert [format_scalar(x) for x in cases[:6]] == ["0", "1", "1", "0", "0", "-3/7"]
