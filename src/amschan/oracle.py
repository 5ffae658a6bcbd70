"""Independent oracles: brute-force enumeration, literal Cesaro partial
sums, the full equality search, and Monte Carlo sampling.

These deliberately share no matrix machinery with the production modules
(an oracle sharing the bug is no oracle): brute force enumerates raw state
paths with `itertools.product`, the Cesaro partials follow the defining sum
term by term, the equality search walks every positive word breadth first
with dense products, and sampling uses the SplitMix64 stream with
per-trajectory derived seeds so blocks merge deterministically.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .channels import FsmChannel
from .errors import AlphabetMismatchError, BudgetExceededError
from .rng import SplitMix64, derive_seed
from .scalars import Scalar, is_positive, scalar_eq, to_float
from .seqcore import CylinderEvent, Word
from .sources import FsmSource, event_prob, with_init

#: refuse path enumerations larger than this
DEFAULT_PATH_BUDGET = 2_000_000


def _check_budget(n_states: int, depth: int, budget: int) -> None:
    if n_states**depth > budget:
        raise BudgetExceededError(
            f"{n_states}^{depth} paths exceed the enumeration budget {budget}"
        )


def brute_force_word_probs(
    src: FsmSource, depth: int, budget: int = DEFAULT_PATH_BUDGET
) -> dict[Word, Scalar]:
    """Measure of every depth-`depth` word by raw path enumeration."""
    n = len(src.states)
    _check_budget(n, depth, budget)
    out: dict[Word, Scalar] = {}
    for path in itertools.product(range(n), repeat=depth):
        p = src.init[path[0]]
        for i in range(1, depth):
            if p == 0:
                break
            p = p * src.trans[path[i - 1]][path[i]]
        if p == 0:
            continue
        word = tuple(src.labels[s] for s in path)
        out[word] = out.get(word, 0) + p
    return out


def brute_force_event_prob(
    src: FsmSource, e: CylinderEvent, budget: int = DEFAULT_PATH_BUDGET
) -> Scalar:
    """Event measure by raw path enumeration; exact in rational mode."""
    table = brute_force_word_probs(src, e.depth, budget)
    return sum(table.get(w, 0) for w in e.words)


def brute_force_channel_prob(
    ch: FsmChannel, w: Word, v: Word, budget: int = DEFAULT_PATH_BUDGET
) -> Scalar:
    """nu([w], [v]) by enumerating channel state paths (|w| >= |v|)."""
    n = len(ch.states)
    _check_budget(n, len(v) + 1, budget)
    total: Scalar = 0
    for path in itertools.product(range(n), repeat=len(v) + 1):
        p: Scalar = ch.init[path[0]]
        for t in range(len(v)):
            if p == 0:
                break
            step = 0
            for b, q2, pr in ch.kernel[(path[t], w[t])]:
                if b == v[t] and q2 == path[t + 1]:
                    step = step + pr
            p = p * step
        total = total + p
    return total


def brute_force_rect_prob(
    src: FsmSource,
    ch: FsmChannel,
    input_words: list[Word],
    output_words: list[Word],
    budget: int = DEFAULT_PATH_BUDGET,
) -> Scalar:
    """Hookup mass of a rectangle, composed from the two path oracles.

    The defining integral on rectangles reduces on cylinders to
    sum over w in F of mu([w]) * nu([w], G).
    """
    depth = len(input_words[0])
    word_probs = brute_force_word_probs(src, depth, budget)
    total: Scalar = 0
    for w in input_words:
        mass = word_probs.get(w, 0)
        if mass == 0:
            continue
        for v in output_words:
            total = total + mass * brute_force_channel_prob(ch, w, v, budget)
    return total


def cesaro_partial(src: FsmSource, e: CylinderEvent, n: int) -> Scalar:
    """(1/n) * sum_{k<n} of the k-shifted event measure, by definition.

    The shifted initial vectors are accumulated incrementally, which computes
    exactly the defining sum of event_prob over shifted sources.
    """
    if n < 1:
        raise ValueError("partial mean needs n >= 1")
    total: Scalar = 0
    init = src.init
    for k in range(n):
        probe = with_init(src, init) if k else src
        total = total + event_prob(probe, e)
        if k < n - 1:
            init = dense_vec_mat(init, src.trans)
    return total / n


def dense_vec_mat(v, m):
    """Row vector times matrix, as the literal dense sum over every entry."""
    return tuple(sum(v[i] * m[i][j] for i in range(len(v))) for j in range(len(m[0])))


def bfs_equivalence_witness(
    s1: FsmSource, s2: FsmSource, max_len: int | None = None
) -> Word | None:
    """First word in canonical order, of length <= max_len (default
    |S1|+|S2|), on which the two measures differ, or None.

    Every word with positive measure under either source is extended, breadth
    first, with the literal dense product; only words null under both are cut.
    """
    if s1.alphabet != s2.alphabet:
        raise AlphabetMismatchError("sources live over different alphabets")
    bound = max_len if max_len is not None else len(s1.states) + len(s2.states)

    def extend(src, vec, sym, first):
        base = vec if first else dense_vec_mat(vec, src.trans)
        return tuple(x if lab == sym else 0 for x, lab in zip(base, src.labels))

    queue = deque([((), s1.init, s2.init)])
    while queue:
        word, v1, v2 = queue.popleft()
        if len(word) == bound:
            continue
        for sym in s1.alphabet:
            m1, m2 = extend(s1, v1, sym, not word), extend(s2, v2, sym, not word)
            p1, p2 = sum(m1), sum(m2)
            if not scalar_eq(p1, p2):
                return word + (sym,)
            if is_positive(p1) or is_positive(p2):
                queue.append((word + (sym,), m1, m2))
    return None


@dataclass(frozen=True)
class EmpiricalTable:
    """Sampled word frequencies with binomial confidence half-widths."""

    horizon: int
    samples: int
    seed: int
    freq: dict

    def ci_half_width(self, word: Word) -> float:
        p = to_float(self.freq.get(tuple(word), 0))
        return 3.0 * math.sqrt(p * (1.0 - p) / self.samples)


#: refuse runs drawing more than this many symbols
DEFAULT_SAMPLE_BUDGET = 50_000_000


def monte_carlo(
    src: FsmSource,
    horizon: int,
    samples: int,
    seed: int,
    budget: int = DEFAULT_SAMPLE_BUDGET,
) -> EmpiricalTable:
    """Sample `samples` independent length-`horizon` trajectories.

    Trajectory i draws from SplitMix64(derive_seed(seed, i)), so any blocking
    of the work merges to the same table.  Frequencies are exact rationals
    count/samples.
    """
    if horizon < 1 or samples < 1:
        raise ValueError("horizon and sample count must be >= 1")
    if horizon * samples > budget:
        raise BudgetExceededError(
            f"{samples} x {horizon} symbols exceed the sampling budget {budget}"
        )
    n = len(src.states)
    init_cdf = _cumulative(src.init)
    row_cdf = [_cumulative(src.trans[i]) for i in range(n)]
    counts: dict[Word, int] = {}
    for i in range(samples):
        gen = SplitMix64(derive_seed(seed, i))
        s = _draw(init_cdf, gen.uniform())
        word = [src.labels[s]]
        for _ in range(horizon - 1):
            s = _draw(row_cdf[s], gen.uniform())
            word.append(src.labels[s])
        key = tuple(word)
        counts[key] = counts.get(key, 0) + 1
    freq = {w: Fraction(c, samples) for w, c in counts.items()}
    return EmpiricalTable(horizon, samples, seed, freq)


def _cumulative(vec) -> list[float]:
    acc = 0.0
    out = []
    for x in vec:
        acc += to_float(x)
        out.append(acc)
    return out


def _draw(cdf: list[float], u: float) -> int:
    for i, threshold in enumerate(cdf):
        if u < threshold:
            return i
    return len(cdf) - 1
