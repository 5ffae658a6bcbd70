"""Model families, transforms and switches shared by the test modules.

Each generator, transform and switch here is used by more than one test
module, by the CI or by the README.  pytest does not collect this module
(no `test_` prefix), and test modules import from it, never from each
other.  A seeded generator takes its draws from the `SplitMix64` it is
given, in a fixed order, so a seed always gives the same model.

- families: `reducible_chain`, `int_rows`, `split_bsc`,
  `float_stationary_source`, `float_split_copy`;
- transforms: `floated` (a source or channel in float mode), `fresh` (a
  source on a chain with an empty cache), `split_state` (a source) and
  `split_states` (a channel), each of which keeps the law;
- switches: `full_paths()` turns every early answer off, so that a
  question runs the search or solve the answer skips; `outcome` and
  `counted` read the results and the calls of both paths.
"""

from contextlib import contextmanager
from fractions import Fraction

import pytest

from amschan import classify, sources
from amschan.battery import AB, rand_ergodic_stationary_source
from amschan.channels import FsmChannel
from amschan.gallery import bsc
from amschan.models import channel_to_json, parse_model, source_to_json
from amschan.rng import SplitMix64
from amschan.sources import FsmSource, as_float_source, with_init

F = Fraction


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------


def reducible_chain(
    rng: SplitMix64, n: int, n_classes: int, *, transient: int | None = None,
    one_class: bool = False, periodic: bool = False,
):
    """(P, closed classes): an exact n-state chain with `n_classes` closed
    classes (some periodic) and transient states that each enter a class
    with positive probability, its states in a random order.  `transient`
    fixes the number of transient states (random by default); with
    `one_class` they step only among themselves and into the first class.
    With `periodic` member i of a class of size m steps only to i + 1 and,
    when m is even and above 2, to i + 3 (mod m), so every class of two or
    more states has period 2 or m."""
    sizes = [1] * n_classes
    extra = rng.randint(n - n_classes + 1) if transient is None else n - n_classes - transient
    for _ in range(extra):
        sizes[rng.randint(n_classes)] += 1
    t = n - sum(sizes)
    rows, classes = [], []
    for _ in range(t):
        row = list(rng.rational_row(n, 12, 0.5))
        if one_class:
            row[t + sizes[0] :] = [F(0)] * (n - t - sizes[0])
        if not any(row[t:]):
            row[t + rng.randint(sizes[0] if one_class else n - t)] = F(1, 12)
        mass = sum(row)
        rows.append(tuple(x / mass for x in row))
    start = t
    for size in sizes:
        for i in range(size):
            if periodic:
                inner = [F(0)] * size
                for step in (1, 3) if size % 2 == 0 and size > 2 else (1,):
                    inner[(i + step) % size] += F(1 + rng.randint(11), 12)
            else:
                inner = list(rng.rational_row(size, 12, 0.6))
                inner[(i + 1) % size] += F(1, 12)  # a cycle keeps the class irreducible
            mass = sum(inner)
            inner = [x / mass for x in inner]
            rows.append((F(0),) * start + tuple(inner) + (F(0),) * (n - start - size))
        classes.append(range(start, start + size))
        start += size
    perm = sorted(range(n), key=lambda i: rng.next_u64())
    where = {old: new for new, old in enumerate(perm)}
    trans = tuple(tuple(rows[perm[i]][perm[j]] for j in range(n)) for i in range(n))
    return trans, {frozenset(where[s] for s in c) for c in classes}


def int_rows(rng: SplitMix64, n: int, init=None) -> FsmSource:
    """A deterministic n-state chain over {a, b}: each row one int 1, the
    zeros int 0, started from int 1 on state 0 unless `init` is given."""
    succ = [rng.randint(n) for _ in range(n)]
    trans = tuple(tuple(int(j == succ[i]) for j in range(n)) for i in range(n))
    init = init or (1,) + (0,) * (n - 1)
    labels = tuple(rng.choice(("a", "b")) for _ in range(n))
    return FsmSource(AB, tuple(f"s{i}" for i in range(n)), init, trans, labels)


def split_bsc() -> FsmChannel:
    """bsc(1/10) in float mode with its one state split into two that swap
    at every step, started in the first.  Both emit the bsc's law, so the
    channel is the bsc and stationary, but alpha K_a = (0, 1) is not the
    init (1, 0): the norm bound does not decide it, and the float search
    enumerates every pair, as it does the bsc's."""
    kernel = bsc(Fraction(1, 10)).kernel
    split = {(q, a): tuple((b, 1 - q, p) for b, _, p in kernel[(0, a)]) for q in (0, 1) for a in AB}
    return floated(FsmChannel(AB, AB, ("q0", "q1"), (Fraction(1), Fraction(0)), split))


def float_stationary_source(n: int) -> FsmSource:
    return as_float_source(rand_ergodic_stationary_source(SplitMix64(12), AB, n_states=n))


def float_split_copy(n: int, init_share: Fraction | None = None) -> FsmSource:
    """`float_stationary_source(n)` with state 3 split 5 : 7: the same law on
    a chain of n + 1 states, so the norm bound, which needs one chain, leaves
    the pair to the search.  With `init_share` the init splits state 3's
    mass in that share instead; the law is the same, since the two copies
    share their label and row, and it is still stationary, but the init is
    no longer its own step, so the bound leaves the source against its
    shift to the search as well."""
    split = split_state(
        rand_ergodic_stationary_source(SplitMix64(12), AB, n_states=n), 3, Fraction(5, 12)
    )
    if init_share is not None:
        mass = split.init[3] + split.init[n]
        init = list(split.init)
        init[3], init[n] = init_share * mass, (1 - init_share) * mass
        split = with_init(split, init)
    return as_float_source(split)


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------


def floated(model):
    """A source or channel read back from its JSON form in float mode, as
    `--float` reads a model file."""
    to_json = channel_to_json if isinstance(model, FsmChannel) else source_to_json
    return parse_model(to_json(model), float_mode=True)


def fresh(src: FsmSource) -> FsmSource:
    """`src` on a chain with an empty cache, so that nothing one path
    computed is read by the other."""
    trans = tuple(map(tuple, src.trans))
    return FsmSource(src.alphabet, src.states, src.init, trans, src.labels)


def split_state(src, j: int, alpha: Fraction) -> FsmSource:
    """The same measure with state j split into two copies of its label and
    row, entered in proportion alpha : 1 - alpha."""

    def split_row(row):
        return tuple(row[:j]) + (alpha * row[j],) + tuple(row[j + 1 :]) + ((1 - alpha) * row[j],)

    trans = tuple(split_row(row) for row in src.trans)
    states = tuple(f"s{i}" for i in range(len(src.states) + 1))
    return FsmSource(
        src.alphabet, states, split_row(src.init), trans + (trans[j],), src.labels + (src.labels[j],)
    )


def split_states(ch: FsmChannel) -> FsmChannel:
    """`ch` with each state q split into 2q and 2q + 1, which swap at every
    step, started on the even copies.  Both copies emit as q does, so the
    channel has the kernel of `ch`, but alpha K_a lies on the odd copies
    and is not the init."""
    kernel = {
        (2 * q + c, a): tuple((b, 2 * q2 + 1 - c, p) for b, q2, p in ch.kernel[(q, a)])
        for q in range(len(ch.states))
        for c in (0, 1)
        for a in ch.in_alphabet
    }
    states = tuple(f"{s}.{c}" for s in ch.states for c in (0, 1))
    init = tuple(y for x in ch.init for y in (x, x - x))
    return FsmChannel(ch.in_alphabet, ch.out_alphabet, states, init, kernel)


# ---------------------------------------------------------------------------
# switches
# ---------------------------------------------------------------------------


def _searched_undominated_word(alphabet, depth, kept, other):
    pairs = sources._support_pairs(alphabet, depth, kept, other, {})
    return next((w for w, (_, e) in pairs if not e), None)


@contextmanager
def full_paths():
    """Every early answer switched off: each question runs the search or
    solve the rule would skip.  The float norm bounds and the float gate's
    closed-class decision (`_failing_pairs`) decide their inputs and stay
    on."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sources, "_on_closed_classes", lambda src: False)
        mp.setattr(sources, "same_entries", lambda a, b: False)
        mp.setattr(classify, "same_entries", lambda a, b: False)
        mp.setattr(sources, "_undominated_word", _searched_undominated_word)
        mp.setattr(sources, "_one_chain", lambda s1, s2, e1, e2: False)
        mp.setattr(sources, "_closed_class_zero", lambda src, words: None)
        yield


def outcome(f, *args):
    """`repr` of f(*args), or the name of the error it raises: a float
    search without a depth can exceed its budget, and a periodic cycle can
    fail the AMS probe of a hookup (ROADMAP item 1)."""
    try:
        return repr(f(*args))
    except Exception as exc:
        return type(exc).__name__


def counted(monkeypatch, owner, name: str) -> list:
    """Record each call of `owner.name` and pass it on."""
    calls, real = [], getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls
