"""Small zoo of named sources and channels used by tests and batteries."""

from __future__ import annotations

from fractions import Fraction

from .scalars import exact
from .seqcore import Alphabet
from .sources import FsmSource
from .channels import FsmChannel, KernelEntries

AB = Alphabet(("a", "b"))


def cycle_source(symbols: tuple = ("a", "b")) -> FsmSource:
    """Deterministic cycle emitting the symbols in order, started at the first."""
    n = len(symbols)
    alpha = Alphabet(tuple(dict.fromkeys(symbols)))
    trans = tuple(
        tuple(Fraction(1 if j == (i + 1) % n else 0) for j in range(n))
        for i in range(n)
    )
    init = tuple(Fraction(1 if i == 0 else 0) for i in range(n))
    return FsmSource(alpha, tuple(f"s{i}" for i in range(n)), init, trans, symbols)


def absorbing_source(first: str = "a", rest: str = "b") -> FsmSource:
    """Emits `first` once, then `rest` forever (transient-then-absorbing)."""
    alpha = Alphabet((first, rest))
    return FsmSource(
        alpha,
        ("t", "r"),
        (Fraction(1), Fraction(0)),
        ((Fraction(0), Fraction(1)), (Fraction(0), Fraction(1))),
        (first, rest),
    )


def iid_source(probs: dict) -> FsmSource:
    """Memoryless source with the given symbol law (one state per symbol)."""
    syms = tuple(probs.keys())
    p = tuple(exact(probs[s]) for s in syms)
    n = len(syms)
    return FsmSource(
        Alphabet(syms),
        tuple(f"u{i}" for i in range(n)),
        p,
        tuple(p for _ in range(n)),
        syms,
    )


def iid_uniform(symbols: tuple = ("a", "b")) -> FsmSource:
    n = len(symbols)
    return iid_source({s: Fraction(1, n) for s in symbols})


def constant_source(symbol: str, alphabet: Alphabet | None = None) -> FsmSource:
    """Point mass on symbol^infinity."""
    alpha = alphabet or Alphabet((symbol,))
    return FsmSource(alpha, ("c",), (Fraction(1),), ((Fraction(1),),), (symbol,))


def two_loop_source(weight_a=Fraction(1, 2)) -> FsmSource:
    """Two disconnected self-loops labeled a and b; mixture by init weight."""
    wa = exact(weight_a)
    return FsmSource(
        AB,
        ("la", "lb"),
        (wa, 1 - wa),
        ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))),
        ("a", "b"),
    )


def lazy_two_state() -> FsmSource:
    """Aperiodic irreducible two-state chain with a non-uniform stationary law."""
    return FsmSource(
        AB,
        ("s0", "s1"),
        (Fraction(1), Fraction(0)),
        (
            (Fraction(1, 2), Fraction(1, 2)),
            (Fraction(1, 4), Fraction(3, 4)),
        ),
        ("a", "b"),
    )


def bsc(p, symbols: tuple = ("a", "b")) -> FsmChannel:
    """Binary symmetric channel: flips the symbol with probability p."""
    if len(symbols) != 2:
        raise ValueError("a binary symmetric channel needs two symbols")
    alpha = Alphabet(symbols)
    p = exact(p) if not isinstance(p, float) else p
    x, y = symbols
    kernel: dict[tuple[int, object], KernelEntries] = {
        (0, x): ((x, 0, 1 - p), (y, 0, p)),
        (0, y): ((y, 0, 1 - p), (x, 0, p)),
    }
    if p == 0:
        kernel = {(0, x): ((x, 0, 1),), (0, y): ((y, 0, 1),)}
    init = (1.0,) if isinstance(p, float) else (Fraction(1),)
    return FsmChannel(alpha, alpha, ("q",), init, kernel)


def copy_channel(alphabet: Alphabet = AB) -> FsmChannel:
    """Noiseless channel: output equals input."""
    kernel = {(0, a): ((a, 0, 1),) for a in alphabet}
    return FsmChannel(alphabet, alphabet, ("q",), (Fraction(1),), kernel)


def symbol_map_channel(mapping: dict, in_alphabet: Alphabet, out_alphabet: Alphabet) -> FsmChannel:
    """Deterministic per-symbol relabeling channel."""
    kernel = {(0, a): ((mapping[a], 0, 1),) for a in in_alphabet}
    return FsmChannel(in_alphabet, out_alphabet, ("q",), (Fraction(1),), kernel)


def transient_copy_channel(alphabet: Alphabet = AB, first: str = "a") -> FsmChannel:
    """Emits `first` at time 0 regardless of input, then copies the input.

    The canonical strict-separation witness: it is AMS with respect to every
    source but neither quasi-stationary nor recurrent.
    """
    kernel: dict[tuple[int, object], KernelEntries] = {}
    for a in alphabet:
        kernel[(0, a)] = ((first, 1, 1),)
        kernel[(1, a)] = ((a, 1, 1),)
    return FsmChannel(
        alphabet, alphabet, ("fresh", "copy"), (Fraction(1), Fraction(0)), kernel
    )


def coin_flip_once_channel(symbols: tuple = ("a", "b")) -> FsmChannel:
    """Flips one fair coin at time 0, then outputs that constant forever.

    Hooked to any source this produces two positive-mass invariant output
    tails, so it is the stock non-ergodic channel.
    """
    alpha = Alphabet(symbols)
    x, y = symbols
    kernel: dict[tuple[int, object], KernelEntries] = {}
    for a in alpha:
        kernel[(0, a)] = ((x, 1, Fraction(1, 2)), (y, 2, Fraction(1, 2)))
        kernel[(1, a)] = ((x, 1, 1),)
        kernel[(2, a)] = ((y, 2, 1),)
    return FsmChannel(
        alpha, alpha, ("flip", "ca", "cb"), (Fraction(1), Fraction(0), Fraction(0)), kernel
    )
