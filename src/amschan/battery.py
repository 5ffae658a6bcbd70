"""Deterministic random model generation for the check suites.

Generators draw numerators over small denominators, so every instance is
exactly rational; a zero-entry probability knob exercises reducible and
periodic structure, which is where the stability properties have content.
Constructions with a guaranteed property say so in their docstring; checks
that rely on a hypothesis either use such a construction or verify the
hypothesis per instance.
"""

from __future__ import annotations

from fractions import Fraction

from .channels import FsmChannel, KernelEntries, LassoInput
from .gallery import copy_channel, cycle_source, iid_uniform, lazy_two_state, two_loop_source
from .rng import SplitMix64
from .seqcore import Alphabet
from .sources import FsmSource, class_decomposition, positive_words, stationary_mean

AB = Alphabet(("a", "b"))
ABC = Alphabet(("a", "b", "c"))


def rand_labels(rng: SplitMix64, alphabet: Alphabet, n_states: int, cover: bool = False):
    """Random state labels; with cover=True every symbol gets some state."""
    syms = tuple(alphabet)
    labels = [rng.choice(syms) for _ in range(n_states)]
    if cover:
        if n_states < len(syms):
            raise ValueError("cannot cover the alphabet with fewer states")
        for i, s in enumerate(syms):
            labels[i] = s
    return tuple(labels)


def rand_source(
    rng: SplitMix64,
    alphabet: Alphabet = AB,
    n_states: int = 3,
    zero_prob: float = 0.3,
    denom: int = 12,
    cover: bool = False,
) -> FsmSource:
    labels = rand_labels(rng, alphabet, n_states, cover=cover)
    init = rng.rational_row(n_states, denom, zero_prob)
    trans = tuple(rng.rational_row(n_states, denom, zero_prob) for _ in range(n_states))
    states = tuple(f"s{i}" for i in range(n_states))
    return FsmSource(alphabet, states, init, trans, labels)


def rand_dense_source(
    rng: SplitMix64, alphabet: Alphabet = AB, n_states: int = 3, denom: int = 12,
    cover: bool = False,
) -> FsmSource:
    """All transitions positive: irreducible, hence recurrent and ergodic."""
    return rand_source(rng, alphabet, n_states, zero_prob=0.0, denom=denom, cover=cover)


def rand_stationary_source(
    rng: SplitMix64, alphabet: Alphabet = AB, n_states: int = 3,
    zero_prob: float = 0.2, denom: int = 12,
) -> FsmSource:
    """Stationarized random source: the init law is the chain's Cesaro mean."""
    return stationary_mean(rand_source(rng, alphabet, n_states, zero_prob, denom))


def rand_ergodic_stationary_source(
    rng: SplitMix64, alphabet: Alphabet = AB, n_states: int = 3, denom: int = 12
) -> FsmSource:
    return stationary_mean(rand_dense_source(rng, alphabet, n_states, denom))


def rand_channel(
    rng: SplitMix64,
    in_alphabet: Alphabet = AB,
    out_alphabet: Alphabet = AB,
    n_states: int = 2,
    zero_prob: float = 0.3,
    denom: int = 12,
) -> FsmChannel:
    b_syms = tuple(out_alphabet)
    kernel: dict[tuple[int, object], KernelEntries] = {}
    for q in range(n_states):
        for a in in_alphabet:
            row = rng.rational_row(len(b_syms) * n_states, denom, zero_prob)
            kernel[(q, a)] = tuple(
                (b_syms[k // n_states], k % n_states, p)
                for k, p in enumerate(row)
                if p != 0
            )
    states = tuple(f"q{i}" for i in range(n_states))
    init = rng.rational_row(n_states, denom, zero_prob)
    return FsmChannel(in_alphabet, out_alphabet, states, init, kernel)


def rand_dense_channel(
    rng: SplitMix64,
    in_alphabet: Alphabet = AB,
    out_alphabet: Alphabet = AB,
    n_states: int = 2,
    denom: int = 12,
) -> FsmChannel:
    """Strictly positive kernel rows: every per-input output law gives every
    finite pattern positive probability infinitely often, so each is
    recurrent (and AMS); the channel is recurrent with respect to every
    recurrent source."""
    return rand_channel(rng, in_alphabet, out_alphabet, n_states, 0.0, denom)


def rand_stationary_channel(
    rng: SplitMix64,
    in_alphabet: Alphabet = AB,
    out_alphabet: Alphabet = AB,
    n_states: int = 2,
    denom: int = 12,
) -> FsmChannel:
    """Random channel that is stationary by construction.

    The state update J is shared by all input symbols (emissions still
    depend on state and input) and the initial law is J's stationary law, so
    the state law is invariant under consuming any symbol; the output law of
    a shifted input equals the shifted output law everywhere.  J's rows are
    strictly positive, so its one closed class holds every state.
    """
    if rng.uniform() < 0.3:
        row = rng.rational_row(n_states, denom)
        j = tuple(row for _ in range(n_states))  # restart-style update
    else:
        j = tuple(rng.rational_row(n_states, denom) for _ in range(n_states))
    rho = class_decomposition(j).classdist[0]
    b_syms = tuple(out_alphabet)
    kernel: dict[tuple[int, object], KernelEntries] = {}
    for q in range(n_states):
        for a in in_alphabet:
            emit = rng.rational_row(len(b_syms), denom, zero_prob=0.2)
            kernel[(q, a)] = tuple(
                (b, q2, emit[k] * j[q][q2])
                for k, b in enumerate(b_syms)
                if emit[k] != 0
                for q2 in range(n_states)
                if j[q][q2] != 0
            )
    states = tuple(f"q{i}" for i in range(n_states))
    return FsmChannel(in_alphabet, out_alphabet, states, rho, kernel)


def rand_markov_channel(
    rng: SplitMix64,
    in_alphabet: Alphabet = AB,
    out_alphabet: Alphabet = AB,
    n_states: int = 2,
    denom: int = 12,
) -> FsmChannel:
    """Random input-driven Markov output chain (one matrix per input symbol)."""
    from .channels import markov_channel

    labels = rand_labels(rng, out_alphabet, n_states, cover=n_states >= len(out_alphabet))
    matrices = {
        a: tuple(rng.rational_row(n_states, denom, zero_prob=0.2) for _ in range(n_states))
        for a in in_alphabet
    }
    init = rng.rational_row(n_states, denom)
    return markov_channel(matrices, labels, init=init, out_alphabet=out_alphabet)


def rand_recurrent_channel(
    rng: SplitMix64, in_alphabet: Alphabet = AB, out_alphabet: Alphabet | None = None
) -> FsmChannel:
    """Channel recurrent with respect to every recurrent source.

    Draws either a noiseless copy (when alphabets agree), a deterministic
    per-symbol relabeling (pointwise recurrence is preserved under symbol
    maps), or a strictly positive memoryless channel (recurrent by
    independence of the noise)."""
    out_alphabet = out_alphabet or in_alphabet
    pick = rng.randint(3)
    if pick == 0 and in_alphabet == out_alphabet:
        return copy_channel(in_alphabet)
    if pick == 1:
        from .gallery import symbol_map_channel

        mapping = {a: rng.choice(tuple(out_alphabet)) for a in in_alphabet}
        return symbol_map_channel(mapping, in_alphabet, out_alphabet)
    b_syms = tuple(out_alphabet)
    kernel: dict[tuple[int, object], KernelEntries] = {}
    for a in in_alphabet:
        row = rng.rational_row(len(b_syms), denom=12, zero_prob=0.0)
        kernel[(0, a)] = tuple((b, 0, row[k]) for k, b in enumerate(b_syms))
    return FsmChannel(in_alphabet, out_alphabet, ("q",), (Fraction(1),), kernel)


def rand_lassos(rng: SplitMix64, src: FsmSource, count: int, depth: int = 4) -> list[LassoInput]:
    """Eventually periodic inputs whose stem-plus-cycle prefix has positive
    source mass (the finite surrogate for almost-every input)."""
    words = positive_words(src, depth)
    out = []
    for _ in range(count):
        w = words[rng.randint(len(words))]
        cut = rng.randint(len(w))
        out.append(LassoInput(w[:cut], w[cut:]))
    return out


def battery_stationary_sources(
    rng: SplitMix64, alphabet: Alphabet = AB, randoms: int = 2
) -> list[FsmSource]:
    """Stationary quantifier surrogate: structured laws plus random ones.

    Contains an iid law, a periodic law (stationarized cycle), a reducible
    mixture, an aperiodic two-state law, and `randoms` stationarized random
    sources.
    """
    out = []
    if alphabet == AB:
        out = [
            iid_uniform(("a", "b")),
            stationary_mean(cycle_source(("a", "b"))),
            two_loop_source(),
            stationary_mean(lazy_two_state()),
        ]
    else:
        out = [iid_uniform(tuple(alphabet))]
    for _ in range(randoms):
        out.append(rand_stationary_source(rng, alphabet))
    return out
