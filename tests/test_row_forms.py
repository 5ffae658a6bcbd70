"""One read of each chain's rows: the stochasticity check's row forms are the
chain's only row form.

`FsmSource.__post_init__` checks each distinct row once and keeps what the
check read off it: the nonzero entries (j, x) and, in a chain without
floats, the integer form (d, numerators over d).  The engine is built from
these on first use, and the absorption and avoidance solves read the
integer form.  Every engine here must equal `SparseMatrix.of` of the dense
matrix, entry types and column types included, and its integer rows must
equal the ones computed from the Fractions.  Models: parsed exact and float
chains, int-row (deterministic) chains with exact and float inits, battery
sources, hookup joints with exact and float channels, and the `with_init`
restarts and marginals that share a chain's cache.
"""

from fractions import Fraction
from math import lcm

import pytest

from amschan import linalg, sources
from amschan.battery import AB, ABC, rand_channel, rand_dense_source, rand_source
from amschan.channels import hookup, input_marginal, output_marginal
from amschan.gallery import bsc, cycle_source, lazy_two_state
from amschan.linalg import IntVector, SparseMatrix
from amschan.models import parse_model, source_to_json
from amschan.rng import SplitMix64
from amschan.seqcore import event
from amschan.sources import (
    FsmSource,
    as_float_source,
    engine,
    recurrence_defect,
    stationary_mean,
    with_init,
)
from families import int_rows


def chain_models() -> list[tuple[str, FsmSource]]:
    rng = SplitMix64(29)
    base = rand_source(rng, AB, n_states=5, zero_prob=0.5)
    joint = hookup(base, rand_channel(rng, AB, AB, n_states=2, zero_prob=0.4)).source
    out = [
        ("parsed exact", parse_model(source_to_json(base))),
        ("parsed float", parse_model(source_to_json(base), float_mode=True)),
        ("int rows", int_rows(SplitMix64(1), 6)),
        ("int rows, float init", int_rows(SplitMix64(2), 5, (0.5, 0.25, 0.25, 0.0, 0.0))),
        ("battery", rand_source(rng, ABC, n_states=6, zero_prob=0.6)),
        ("battery dense", rand_dense_source(rng, AB, n_states=4)),
        ("float source", as_float_source(lazy_two_state())),
        ("cycle", cycle_source(("a", "b", "b"))),
        ("hookup", joint),
        ("hookup of a float source", hookup(as_float_source(base), bsc(0.25)).source),
        ("hookup of int rows", hookup(int_rows(SplitMix64(3), 4), bsc(Fraction(1, 3))).source),
        ("with_init", with_init(base, (Fraction(1, 5),) * 5)),
        ("input marginal", input_marginal(hookup(base, bsc(Fraction(1, 4))))),
        ("output marginal", output_marginal(hookup(base, bsc(Fraction(1, 4))))),
    ]
    return out


MODELS = chain_models()


@pytest.mark.parametrize("name, src", MODELS, ids=[name for name, _ in MODELS])
def test_engine_equals_the_dense_scan(name, src):
    eng, ref = engine(src), SparseMatrix.of(src.trans)
    assert repr(eng.rows) == repr(ref.rows)
    assert eng.col_rank == ref.col_rank and eng.exact == ref.exact
    if not eng.exact:
        return
    for row, (d, nums) in zip(src.trans, eng.ints):
        nonzero = [x for x in row if x]
        assert d == lcm(*(x.denominator for x in nonzero))
        assert [Fraction(n, d) for n in nums] == nonzero
    v = IntVector.of(tuple(Fraction(1, len(src.trans)) for _ in src.trans))
    assert repr(eng.step(v).scalars()) == repr(ref.step(v.scalars()))
    # the integer rows that step read: numerators over the chain's lcm
    den = lcm(*(x.denominator for row in src.trans for x in row))
    for i, row in enumerate(src.trans):
        want = tuple((j, int(x * den)) for j, x in enumerate(row) if x)
        assert eng._int_rows[i] == want


@pytest.mark.parametrize("name, src", MODELS, ids=[name for name, _ in MODELS])
def test_shared_rows_share_their_forms(name, src):
    """Rows that are one object, as a hookup's |B| rows per (state, channel
    state) are, hold one nonzero tuple and one integer form."""
    eng = engine(src)
    first: dict[int, int] = {}
    for i, row in enumerate(src.trans):
        k = first.setdefault(id(row), i)
        assert eng.rows[i] is eng.rows[k]
        if eng.exact:
            assert eng.ints[i] is eng.ints[k]


def test_hookup_rows_are_shared_per_output():
    joint = hookup(rand_source(SplitMix64(3), AB, n_states=3), bsc(Fraction(1, 4))).source
    eng = engine(joint)
    assert len({id(row) for row in eng.rows}) == len(joint.trans) // 2
    assert len({id(form) for form in eng.ints}) == len(joint.trans) // 2


def test_restarts_share_the_engine():
    src = parse_model(source_to_json(lazy_two_state()))
    joint = hookup(src, bsc(Fraction(1, 4)))
    assert engine(with_init(src, (Fraction(1, 2),) * 2)) is engine(src)
    assert engine(input_marginal(joint)) is engine(output_marginal(joint)) is engine(joint.source)
    assert engine(stationary_mean(src)) is engine(src)


def test_a_parsed_chain_is_not_rescanned(monkeypatch):
    """A parsed chain's engine, graph, mean and defects read the kept row
    forms: neither `SparseMatrix.of` nor a second row check runs."""
    objs = [
        source_to_json(rand_source(SplitMix64(s), AB, n_states=6, zero_prob=0.5)) for s in range(4)
    ]

    def forbidden(*args):
        raise AssertionError("the dense matrix was scanned again")

    for obj in objs:
        src = parse_model(obj)
        monkeypatch.setattr(SparseMatrix, "of", forbidden)
        monkeypatch.setattr(sources, "_check_rows", forbidden)
        engine(src)
        sources.chain_graph(src)
        stationary_mean(src)
        recurrence_defect(src, event(AB, [("a", "b"), ("b", "b")]))
        monkeypatch.undo()


def test_integer_forms_come_from_the_check(monkeypatch):
    """Each distinct row's integer form is computed once, by the check, and
    so is the init's IntVector; the engine, the solves and the walks reuse
    them."""
    obj = source_to_json(rand_source(SplitMix64(5), AB, n_states=7, zero_prob=0.5))
    calls, inits = [], []
    real, real_of = sources.int_form, linalg.IntVector.of.__func__

    def counted(row):
        calls.append(row)
        return real(row)

    def counted_of(cls, vec):
        inits.append(vec)
        return real_of(cls, vec)

    monkeypatch.setattr(sources, "int_form", counted)
    monkeypatch.setattr(linalg, "int_form", counted)
    monkeypatch.setattr(linalg.IntVector, "of", classmethod(counted_of))
    src = parse_model(obj)
    assert len(calls) == len(src.trans) and inits == [src.init]  # each row, and the init
    stationary_mean(src)
    recurrence_defect(src, event(AB, [("a", "b")]))
    sources.forward_vector(src, ("a", "b", "a"))
    assert len(calls) == len(src.trans) and len(inits) == 2  # the check of the mean's init
