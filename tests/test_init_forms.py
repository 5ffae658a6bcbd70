"""Each model keeps its init's engine form, the one its check computed.

An exact init is checked on its `linalg.IntVector`, and the source or
channel keeps that IntVector in `_init_form`; a float init keeps its tuple.
Every reader (the walks, `shifted_source`, `equivalence_witness`,
`_one_step`, the class weights of `stationary_mean`, the channel
stationarity search) reads the kept form instead of converting the init
again.  A kept form must therefore equal ``IntVector.of(init)`` in
``(nums, den, frac)`` however the model was made: built, `with_init`,
restarted (`shifted_source`, the stationarity gate's restart), a stationary
mean, a marginal or a hookup.  A restart must not carry its old init's form
or step: a stale one makes the shifted law look stationary.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amschan import sources
from amschan.battery import AB, rand_channel, rand_source
from amschan.channels import FsmChannel, hookup, input_marginal, output_marginal
from amschan.classify import classify_channel
from amschan.errors import InvariantError
from amschan.gallery import transient_copy_channel
from amschan.linalg import IntVector
from amschan.rng import SplitMix64
from amschan.sources import (
    FsmSource, as_float_source, engine, is_stationary, shifted_source, stationary_mean,
    with_init,
)
from families import int_rows, reducible_chain

F = Fraction


def assert_kept(model) -> None:
    """`model._init_form` is the engine form of `model.init`."""
    form = model._init_form
    if any(type(x) is float for x in model.init):
        assert type(form) is tuple and repr(form) == repr(tuple(model.init))
        return
    want = IntVector.of(model.init)
    assert type(form) is IntVector
    assert (form.nums, form.den, form.frac) == (want.nums, want.den, want.frac)
    assert repr(form.scalars()) == repr(tuple(model.init))


@st.composite
def exact_sources(draw):
    rng = SplitMix64(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(("random", "reducible", "int rows")))
    n = 1 + rng.randint(5)
    if kind == "random":
        return rand_source(rng, AB, n_states=n, zero_prob=rng.uniform())
    if kind == "int rows":
        return int_rows(rng, n)
    trans, _ = reducible_chain(rng, n + 1, 1 + rng.randint(2))
    labels = tuple(rng.choice(("a", "b")) for _ in range(n + 1))
    init = rng.rational_row(n + 1, 12, 0.4)
    return FsmSource(AB, tuple(f"s{i}" for i in range(n + 1)), init, trans, labels)


def _derived(src: FsmSource, rng: SplitMix64) -> list[FsmSource]:
    """The sources made from `src` without the public constructor's check
    of a given init, or with a new init."""
    n, exact = len(src.states), src.is_exact
    k = rng.randint(n)
    point = tuple(int(i == k) for i in range(n))
    law = rng.rational_row(n, 12, 0.5)
    step = src._one_step[0] if exact else None
    out = [
        with_init(src, law if exact else tuple(map(float, law))),
        with_init(src, point),
        with_init(src, tuple(map(F if exact else float, point))),
        shifted_source(src, 1),
        shifted_source(src, 3),
        stationary_mean(src),
    ]
    if step is not None:
        out.append(sources._restarted(src, step))
    ch = rand_channel(rng, AB, AB, n_states=1 + rng.randint(2), zero_prob=0.3)
    joint = hookup(src, ch)
    out += [joint.source, input_marginal(joint), output_marginal(joint)]
    out.append(hookup(out[2], ch).source)  # the memo hit
    return out


@settings(max_examples=40)
@given(exact_sources(), st.integers(0, 2**32))
def test_every_source_keeps_the_form_of_its_own_init(src, seed):
    rng = SplitMix64(seed)
    for model in (src, as_float_source(src)):
        assert_kept(model)
        for derived in _derived(model, rng):
            assert_kept(derived)


@settings(max_examples=80)
@given(exact_sources())
def test_a_restart_reads_its_new_init(src):
    """`shifted_source` and the stationarity gate's restart start a new
    init on the old chain: its one step, its stationarity and its walk
    are those of a source built with that init, also when the old init's
    step was taken first."""
    src._one_step  # noqa: B018 - cache the old init's step
    for restarted in (shifted_source(src, 1), sources._restarted(src, src._one_step[0])):
        fresh = with_init(src, restarted.init)
        step, fixed = restarted._one_step
        want, want_fixed = fresh._one_step
        assert (step.nums, step.den, step.frac) == (want.nums, want.den, want.frac)
        assert fixed == want_fixed
        assert is_stationary(restarted) == is_stationary(fresh)
        for word in (("a",), ("b", "a"), ("a", "b", "b")):
            assert repr(sources.forward_vector(restarted, word)) == repr(
                sources.forward_vector(fresh, word)
            )


def test_a_transient_copy_hookup_of_a_stationary_source_classifies():
    """The hookup of a stationary source with the transient copy channel is
    not stationary, but its shift is; a restart that kept the hookup's own
    step would call the hookup stationary and contradict the hierarchy."""
    for seed in range(8):
        src = stationary_mean(rand_source(SplitMix64(seed), AB, 3, zero_prob=0.0, cover=True))
        joint = hookup(src, transient_copy_channel()).source
        assert not is_stationary(joint) and is_stationary(shifted_source(joint, 1))
        classify_channel(transient_copy_channel(), [src], 5)


def test_channels_keep_the_form_of_their_init():
    rows = {(0, "a"): (("a", 0, 1),), (0, "b"): (("b", 1, F(1, 2)), ("a", 0, F(1, 2))),
            (1, "a"): (("b", 0, 1),), (1, "b"): (("b", 1, 1),)}
    for init in ((1, 0), (F(1), 0), (F(1), F(0)), (F(1, 3), F(2, 3))):
        assert_kept(FsmChannel(AB, AB, ("q0", "q1"), init, rows))
    units = {(q, a): ((a, q, 1),) for q in range(2) for a in AB}
    assert_kept(FsmChannel(AB, AB, ("q0", "q1"), (0.25, 0.75), units))


@pytest.mark.parametrize("init, message", [
    ((F(1, 2), F(1, 3)), "init does not sum to 1"),
    ((F(3, 2), F(-1, 2)), "init has a negative entry"),
    ((2, -1), "init has a negative entry"),
    ((0.5, 0.25), "init does not sum to 1"),
    ((1.5, -0.5), "init has a negative entry"),
])
def test_an_init_is_checked_on_its_form_with_the_same_messages(init, message):
    trans = ((F(1, 2), F(1, 2)), (0, 1))
    with pytest.raises(InvariantError, match=message):
        FsmSource(AB, ("s0", "s1"), init, trans, ("a", "b"))
    rows = {(q, a): ((a, q, 1),) for q in range(2) for a in AB}
    with pytest.raises(InvariantError, match="channel " + message):
        FsmChannel(AB, AB, ("q0", "q1"), init, rows)


def test_the_kept_form_leaves_the_fields_as_they_were():
    """The init stays the given tuple, and equality and repr read the
    dataclass fields only."""
    src = FsmSource(AB, ("s0", "s1"), (F(1, 3), F(2, 3)), ((0, 1), (1, 0)), ("a", "b"))
    assert src.init == (F(1, 3), F(2, 3)) and "_init_form" not in repr(src)
    assert src == with_init(src, (F(1, 3), F(2, 3))) != with_init(src, (F(2, 3), F(1, 3)))
    assert src.is_exact and not as_float_source(src).is_exact
    assert engine(src).step(src._init_form).scalars() == (F(2, 3), F(1, 3))
