"""Alphabets, words and cylinder events on one-sided sequence spaces.

A cylinder event of depth L over alphabet A is a finite set of length-L words
W, denoting the event {x in A^N : (x_0, ..., x_{L-1}) in W}.  Events are kept
extensionally (explicit word sets at a fixed depth): at desk-scale depths this
makes every set operation and every shift-preimage exact and testable.

The shift T drops the first symbol of a sequence, so T^{-k} of a depth-L
event is the depth-(L+k) event whose words carry an arbitrary length-k
prefix.  Set operations on events of different depths first refine both
operands to the common depth (appending all suffixes), which does not change
the denoted event.

`PatternAutomaton` matches a set of equal-length words along a sequence; the
recurrence product of `sources` pairs it with a chain.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import AlphabetMismatchError, InvariantError

#: a symbol is a token; product alphabets use tuples of tokens as symbols
Symbol = object
Word = tuple


@dataclass(frozen=True)
class Alphabet:
    """Ordered finite set of distinct symbols; the order fixes serialization."""

    symbols: tuple

    def __post_init__(self):
        if len(self.symbols) == 0:
            raise InvariantError("alphabet must contain at least one symbol")
        if len(set(self.symbols)) != len(self.symbols):
            raise InvariantError("alphabet symbols must be distinct")

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator:
        return iter(self.symbols)

    def __contains__(self, sym) -> bool:
        return sym in self.symbols

    def index(self, sym) -> int:
        return self.symbols.index(sym)

    def words(self, length: int) -> Iterator[Word]:
        """All words of exactly the given length, in lexicographic order."""
        return itertools.product(self.symbols, repeat=length)

    def words_upto(self, max_len: int) -> Iterator[Word]:
        for n in range(1, max_len + 1):
            yield from self.words(n)


def product_alphabet(a: Alphabet, b: Alphabet) -> Alphabet:
    """Alphabet of pairs, ordered a-major: used for joint input/output spaces."""
    return Alphabet(tuple((x, y) for x in a.symbols for y in b.symbols))


def check_word(alphabet: Alphabet, word: Word) -> Word:
    word = tuple(word)
    for sym in word:
        if sym not in alphabet:
            raise AlphabetMismatchError(f"symbol {sym!r} not in alphabet")
    return word


@dataclass(frozen=True)
class CylinderEvent:
    """Finite union of depth-L cylinders, as a set of length-L words."""

    alphabet: Alphabet
    depth: int
    words: frozenset

    def __post_init__(self):
        if self.depth < 1:
            raise InvariantError("event depth must be >= 1")
        for w in self.words:
            if len(w) != self.depth:
                raise InvariantError("all event words must have length == depth")
            check_word(self.alphabet, w)

    @property
    def is_empty(self) -> bool:
        return not self.words

    @property
    def is_full(self) -> bool:
        return len(self.words) == len(self.alphabet) ** self.depth


def event(alphabet: Alphabet, words: Iterable[Word], depth: int | None = None) -> CylinderEvent:
    ws = frozenset(tuple(w) for w in words)
    if depth is None:
        if not ws:
            raise InvariantError("empty event needs an explicit depth")
        depth = len(next(iter(ws)))
    return CylinderEvent(alphabet, depth, ws)


def full_event(alphabet: Alphabet, depth: int) -> CylinderEvent:
    return CylinderEvent(alphabet, depth, frozenset(alphabet.words(depth)))


def empty_event(alphabet: Alphabet, depth: int) -> CylinderEvent:
    return CylinderEvent(alphabet, depth, frozenset())


def refine(e: CylinderEvent, depth: int) -> CylinderEvent:
    """Re-express the same event at a greater depth by appending all suffixes."""
    if depth < e.depth:
        raise InvariantError("cannot refine to a smaller depth")
    if depth == e.depth:
        return e
    tails = list(e.alphabet.words(depth - e.depth))
    return CylinderEvent(
        e.alphabet, depth, frozenset(w + t for w in e.words for t in tails)
    )


def shift_preimage(e: CylinderEvent, k: int) -> CylinderEvent:
    """T^{-k} of the event: the same words, k positions later."""
    if k < 0:
        raise InvariantError("shift count must be >= 0")
    if k == 0:
        return e
    heads = list(e.alphabet.words(k))
    return CylinderEvent(
        e.alphabet, e.depth + k, frozenset(h + w for h in heads for w in e.words)
    )


def _common_depth(e1: CylinderEvent, e2: CylinderEvent) -> tuple[CylinderEvent, CylinderEvent]:
    if e1.alphabet != e2.alphabet:
        raise AlphabetMismatchError("events live over different alphabets")
    d = max(e1.depth, e2.depth)
    return refine(e1, d), refine(e2, d)


def union(e1: CylinderEvent, e2: CylinderEvent) -> CylinderEvent:
    a, b = _common_depth(e1, e2)
    return CylinderEvent(a.alphabet, a.depth, a.words | b.words)


def intersect(e1: CylinderEvent, e2: CylinderEvent) -> CylinderEvent:
    a, b = _common_depth(e1, e2)
    return CylinderEvent(a.alphabet, a.depth, a.words & b.words)


def difference(e1: CylinderEvent, e2: CylinderEvent) -> CylinderEvent:
    a, b = _common_depth(e1, e2)
    return CylinderEvent(a.alphabet, a.depth, a.words - b.words)


def complement(e: CylinderEvent) -> CylinderEvent:
    return CylinderEvent(
        e.alphabet, e.depth, frozenset(e.alphabet.words(e.depth)) - e.words
    )


def event_algebra(op: str, e1: CylinderEvent, e2: CylinderEvent | None = None) -> CylinderEvent:
    """Dispatch set algebra by name; operands are refined to a common depth."""
    if op == "complement":
        return complement(e1)
    if e2 is None:
        raise InvariantError(f"operation {op!r} needs two operands")
    ops = {"union": union, "intersect": intersect, "difference": difference}
    if op not in ops:
        raise InvariantError(f"unknown event operation {op!r}")
    return ops[op](e1, e2)


@dataclass(frozen=True)
class RectEvent:
    """Rectangle F x G: an input event and an output event of equal depth."""

    input: CylinderEvent
    output: CylinderEvent

    def __post_init__(self):
        if self.input.depth != self.output.depth:
            raise InvariantError("rectangle components must have equal depth")

    @property
    def depth(self) -> int:
        return self.input.depth

    def to_product_event(self, joint_alphabet: Alphabet) -> CylinderEvent:
        """The rectangle as a cylinder event over the product alphabet."""
        words = frozenset(
            tuple(zip(f, g)) for f in self.input.words for g in self.output.words
        )
        return CylinderEvent(joint_alphabet, self.depth, words)


def sort_words(words: Iterable[Word], alphabet: Alphabet) -> list[Word]:
    """Canonical order: by length, then lexicographic in alphabet order."""
    return sorted(words, key=lambda w: (len(w), tuple(alphabet.index(s) for s in w)))


class PatternAutomaton:
    """Multi-word matching automaton over a set of equal-length words.

    Each node stands for a word prefix; the nodes are numbered as the
    prefixes first occur in the words, from the empty prefix, node 0.  With
    u the prefix of node q, `delta[q][a]` is the node of the longest suffix
    of u + a that is a word prefix, so a walk ends on the longest suffix of
    its input that is one.  `match[q]` is true when u is one of the words;
    since the words have one length, that is when the path into q ends with
    one of them.
    """

    def __init__(self, alphabet: Alphabet, words):
        self.alphabet = alphabet
        words = [tuple(w) for w in words]
        ids: dict[Word, int] = {(): 0}
        for w in words:
            for k in range(1, len(w) + 1):
                ids.setdefault(w[:k], len(ids))
        self.delta: list[dict] = []
        for u in ids:
            row = {}
            for sym in alphabet:
                v = u + (sym,)
                while v not in ids:
                    v = v[1:]
                row[sym] = ids[v]
            self.delta.append(row)
        whole = set(words)
        self.match = [u in whole for u in ids]
        self.size = len(ids)

    def walk(self, word: Word) -> int:
        node = 0
        for sym in word:
            node = self.delta[node][sym]
        return node
