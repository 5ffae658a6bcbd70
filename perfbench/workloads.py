"""The benchmark's four workloads: instance pools, ops and output digests.

A workload is a tuple of strata.  One round runs one op of every stratum, so
each complete round is the same mix of op kinds, whatever the seed.

Instance j of a stratum is generated from the fixed POOL_SEED, the stratum's
name and j alone, and `reference.json` commits the digest of its exact
output.  A run's --seed only chooses which pool instances it uses (a seeded
sample without replacement, per stratum) and in which order, so every op of
every run is checked against a committed digest.  Pools are only a little
larger than a run's plan: instance costs differ a lot, and with large pools
the seed-to-seed spread of the latency metrics grew past 0.1 of the median.

Ops call amschan through module attributes at call time (`sources.x(...)`,
never a name bound at import), so the tracer's rebinding reaches them.
"""

from __future__ import annotations

import hashlib
import json
import random
import zlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from amschan import battery, classify, gallery, models, seqcore, sources
from amschan.rng import SplitMix64, derive_seed
from amschan.scalars import format_scalar

POOL_SEED = 20140325

AB = seqcore.Alphabet(("a", "b"))
ABC = seqcore.Alphabet(("a", "b", "c"))


@dataclass(frozen=True)
class Workload:
    name: str
    strata: tuple[str, ...]
    #: committed instances per stratum
    pool: int
    #: rounds one run executes, unless --seconds run out first; sized to
    #: fit in 25 s even when the machine runs 1.4 times slower than usual
    plan: int
    #: rounds of the traced run, whose models the set-up probe also builds
    trace_rounds: int
    #: (stratum, instance seed, index) -> zero-argument op; builds the models
    build: Callable[[str, int, int], Callable[[], object]]
    #: op result -> JSON-serialisable exact output
    canon: Callable[[object], object]
    #: op result -> key of the output histogram a run prints, if any
    describe: Callable[[object], object] | None = None

    def instance_seed(self, stratum: str, j: int) -> int:
        key = zlib.crc32(f"{self.name}/{stratum}".encode())
        return derive_seed(POOL_SEED ^ key, j)

    def plan_indices(self, seed: int) -> list[list[int]]:
        """Pool index per round and stratum: rounds[r][k]."""
        rng = random.Random(seed)
        columns = [rng.sample(range(self.pool), self.plan) for _ in self.strata]
        return [list(row) for row in zip(*columns)]

    def round_ops(self, row: list[int]) -> list[tuple[int, int, Callable[[], object]]]:
        """Build one round's models: (stratum index, pool index, op) per stratum."""
        return [
            (k, j, self.build(s, self.instance_seed(s, j), j))
            for k, (s, j) in enumerate(zip(self.strata, row))
        ]


def digest(output: object) -> str:
    text = json.dumps(output, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _roundtrip(model, float_mode: bool = False):
    """Serialise a model and parse it back, as the CLI reads model files."""
    if isinstance(model, sources.FsmSource):
        obj = models.source_to_json(model)
    else:
        obj = models.channel_to_json(model)
    return models.parse_model(json.loads(json.dumps(obj)), float_mode)


# ---------------------------------------------------------------------------
# claims: one trial of a bundled claim suite, as `amschan check` runs it
# ---------------------------------------------------------------------------

CLAIMS = (
    "prop1", "prop2", "prop3", "prop5", "prop6", "prop7", "prop8", "prop9",
    "prop10", "prop11", "prop12", "prop13", "prop14", "prop15", "prop16",
    "lemma7", "lemma8", "stationary_hookup",
)
CLAIM_DEPTH = 3


def _build_claim(stratum: str, seed: int, j: int):
    # a trial draws its own models from (master seed, trial index)
    return lambda: classify.run_theorem_trial(stratum, POOL_SEED, j, CLAIM_DEPTH)


def _canon_claim(result) -> object:
    passed, detail, counterexample = result
    return [passed, detail, counterexample]


# ---------------------------------------------------------------------------
# classify-deep: classify_channel / classify_source at depths 4-5
# ---------------------------------------------------------------------------

# <kind><source states>-d<depth>, cheapest first.  An odd count keeps the
# median op inside one stratum's cluster instead of in the gap between two.
CLASSIFY_STRATA = (
    "float-source3-d5",
    "source3-d5",
    "float-bsc2-d4",
    "transient-copy2-d5",
    "transient-copy3-d5",
    "copy3-d5",
    "coin-flip-once2-d4",
    "random-channel2-d4",
    "bsc2-d4",
)


def _covering_source(rng: SplitMix64, n: int, dense: bool, stationary: bool = True):
    """A seeded n-state source whose labels use both symbols; a one-symbol
    source would make its instance far cheaper than the rest of its stratum."""
    if dense:
        src = battery.rand_dense_source(rng, AB, n_states=n, cover=True)
    else:
        src = battery.rand_source(rng, AB, n_states=n, zero_prob=0.2, cover=True)
    return sources.stationary_mean(src) if stationary else src


def _build_classify(stratum: str, seed: int, j: int):
    """Each stratum fixes the model family and sizes, so that the seeded
    instances of one stratum cost about the same."""
    rng = SplitMix64(seed)
    kind, depth = stratum.rsplit("-d", 1)
    kind, n, depth = kind[:-1], int(kind[-1]), int(depth)
    float_mode = kind.startswith("float-")
    kind = kind.removeprefix("float-")
    if kind == "source":
        src = _covering_source(rng, n, dense=False, stationary=not float_mode)
        src = _roundtrip(src, float_mode)
        return lambda: sources.classify_source(src, depth)
    channel = {
        "bsc": lambda: gallery.bsc(Fraction(1 + rng.randint(5), 12)),
        "transient-copy": gallery.transient_copy_channel,
        "copy": gallery.copy_channel,
        "coin-flip-once": gallery.coin_flip_once_channel,
        "random-channel": lambda: battery.rand_dense_channel(rng, n_states=1),
    }[kind]()
    src = _covering_source(rng, n, dense=kind != "copy", stationary=kind != "random-channel")
    ch, src = _roundtrip(channel, float_mode), _roundtrip(src, float_mode)
    return lambda: classify.classify_channel(ch, [src], depth)


def _canon_classify(v) -> object:
    if isinstance(v, sources.SourceVerdict):
        return {
            "stationary": v.stationary,
            "recurrent": [v.recurrent.recurrent, v.recurrent.depth, v.recurrent.witness],
            "ams": [v.ams.n_small, v.ams.n_big, v.ams.dev_small, v.ams.dev_big],
            "ergodic": [v.ergodic.ergodic, v.ergodic.positive_classes],
            "dominated_by_mean": [v.dominated_by_mean.holds, v.dominated_by_mean.witness],
            "asymptotically_dominated": [
                v.asymptotically_dominated.holds,
                v.asymptotically_dominated.witness,
            ],
        }
    rows = []
    for row in v.per_source:
        ams = row.ams
        rows.append(
            {
                "label": row.label,
                "quasi_stationary": None
                if row.quasi_stationary is None
                else [row.quasi_stationary.holds, row.quasi_stationary.witness],
                "recurrent": None
                if row.recurrent is None
                else [row.recurrent.holds, row.recurrent.witness],
                "ams": [
                    ams.holds,
                    ams.evidence.dev_small,
                    ams.evidence.dev_big,
                    ams.dominated.holds,
                    ams.dominated.witness,
                ],
                "r_ams": row.r_ams,
                "ergodic": None
                if row.ergodic is None
                else [row.ergodic.ergodic, row.ergodic.positive_classes],
                "rejections": row.rejections,
            }
        )
    s = v.stationary
    return {"stationary": [s.holds, s.depth, s.witness], "depth": v.depth, "rows": rows}


# ---------------------------------------------------------------------------
# equality: sources.equivalence_witness on differing and equal pairs
# ---------------------------------------------------------------------------

# <kind>-<alphabet><states>; an odd count keeps the median op inside one
# stratum's cluster.  The equal pairs use dense sources, so every word is
# positive and each search walks the whole tree up to the bound.
EQUALITY_STRATA = (
    "differ-ab4",
    "differ-ab5",
    "differ-ab6",
    "differ-abc3",
    "differ-abc4",
    "differ-split-ab5",
    "equal-shift-ab5",
    "equal-shift-abc3",
    "equal-split-ab4",
)


def _fsm(alphabet, init, trans, labels):
    states = tuple(f"s{i}" for i in range(len(labels)))
    return sources.FsmSource(alphabet, states, tuple(init), tuple(map(tuple, trans)), tuple(labels))


def _reachable(init, trans) -> list[int]:
    seen = [i for i, x in enumerate(init) if x]
    for i in seen:
        seen += [j for j, x in enumerate(trans[i]) if x and j not in seen]
    return seen


def _delayed_pair(rng: SplitMix64, alphabet, n: int):
    """Two n-state sources that differ in one reachable row of a recurrent
    part entered after a deterministic transient path of seeded length, so
    the first witness comes late when the path is long.  The changed row
    moves mass between labels, so the measures differ."""
    syms = tuple(alphabet)
    path = rng.randint(n - len(syms) + 1)
    m = n - path
    labels = [rng.choice(syms) for _ in range(path)] + list(
        battery.rand_labels(rng, alphabet, m, cover=True)
    )
    zero = Fraction(0)
    trans = [[zero] * n for _ in range(n)]
    for i in range(path):
        trans[i][i + 1] = Fraction(1)
    for i in range(path, n):
        trans[i][path:] = rng.rational_row(m, 12, 0.3)
    if path:
        init = [Fraction(int(i == 0)) for i in range(n)]
    else:
        init = list(rng.rational_row(n, 12, 0.3))
    changed = [i for i in _reachable(init, trans) if i >= path]
    i = changed[rng.randint(len(changed))]

    def label_law(row):
        return [sum(p for p, lab in zip(row, labels) if lab == sym) for sym in syms]

    other = [row[:] for row in trans]
    while label_law(other[i]) == label_law(trans[i]):
        other[i][path:] = rng.rational_row(m, 12, 0.3)
    return _fsm(alphabet, init, trans, labels), _fsm(alphabet, init, other, labels)


def _split_state(src, j: int, alpha: Fraction):
    """Another presentation of the same measure: state j is split into two
    copies with the same label and row, entered in proportion alpha : 1-alpha."""
    n = len(src.states)

    def split_row(row):
        return list(row[:j]) + [alpha * row[j]] + list(row[j + 1 :]) + [(1 - alpha) * row[j]]

    trans = [split_row(row) for row in src.trans]
    trans.append(trans[j])
    return _fsm(src.alphabet, split_row(src.init), trans, list(src.labels) + [src.labels[j]])


def _build_equality(stratum: str, seed: int, j: int):
    rng = SplitMix64(seed)
    kind, _, size = stratum.rpartition("-")
    alphabet = ABC if size.startswith("abc") else AB
    n = int(size.lstrip("abc"))
    if kind == "differ":
        s1, s2 = _delayed_pair(rng, alphabet, n)
    elif kind == "differ-split":
        s1, s2 = _delayed_pair(rng, alphabet, n)
        s2 = _split_state(s2, rng.randint(n), Fraction(1 + rng.randint(11), 12))
    elif kind == "equal-shift":
        s1 = battery.rand_dense_source(rng, alphabet, n_states=n, cover=True)
        s1 = sources.stationary_mean(s1)
        s2 = sources.shifted_source(s1, 1)
    else:
        s1 = battery.rand_dense_source(rng, alphabet, n_states=n, cover=True)
        s2 = _split_state(s1, rng.randint(n), Fraction(1 + rng.randint(11), 12))
    s1, s2 = _roundtrip(s1), _roundtrip(s2)
    return lambda: sources.equivalence_witness(s1, s2)


# ---------------------------------------------------------------------------
# means: stationary means and recurrence defects of fresh reducible chains
# ---------------------------------------------------------------------------

# chain-<states>-<closed classes>; an odd count keeps the median op inside
# one stratum's cluster
MEANS_STRATA = ("chain-20-3", "chain-30-4", "chain-40-3", "chain-50-4", "chain-60-3")

MEANS_EVENTS = (
    (("a",),),
    (("a", "b"),),
    (("a", "a"), ("b", "b")),
)


def _reducible_chain(rng: SplitMix64, n: int, k: int):
    """n states: k irreducible closed classes holding about a quarter of
    them, and sparse transient rows (up to 7 entries) that lead into the
    classes.  The large transient part makes the exact solves dominate."""
    sizes = [max(2, n // (4 * k))] * k
    n_transient = n - sum(sizes)
    zero = Fraction(0)
    trans = [[zero] * n for _ in range(n)]
    start = n_transient
    for size in sizes:
        for i in range(size):
            row = list(rng.rational_row(size, 24, 0.5))
            cycle_next = (i + 1) % size
            if row[cycle_next] == 0:  # the cycle edge keeps the class irreducible
                row = [x / 2 for x in row]
                row[cycle_next] = Fraction(1, 2)
            trans[start + i][start : start + size] = row
        start += size
    for i in range(n_transient):
        targets = [n_transient + rng.randint(n - n_transient)]
        targets += [rng.randint(n) for _ in range(6)]
        weights = [1 + rng.randint(120) for _ in targets]
        total = sum(weights)
        for t, w in zip(targets, weights):
            trans[i][t] += Fraction(w, total)
    init = [Fraction(1, 3)] * 3 + [zero] * (n - 3)
    labels = [rng.choice(("a", "b")) for _ in range(n)]
    return _fsm(AB, init, trans, labels)


def _build_means(stratum: str, seed: int, j: int):
    rng = SplitMix64(seed)
    _, n, k = stratum.split("-")
    src = _roundtrip(_reducible_chain(rng, int(n), int(k)))
    events = [seqcore.event(AB, words) for words in MEANS_EVENTS]

    def op():
        mean = sources.stationary_mean(src)
        return mean, [sources.recurrence_defect(src, e) for e in events]

    return op


def _canon_means(result) -> object:
    mean, defects = result
    return [models.source_to_json(mean), [format_scalar(d) for d in defects]]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "claims",
            CLAIMS, pool=12, plan=11, trace_rounds=2,
            build=_build_claim, canon=_canon_claim,
        ),
        Workload(
            "classify-deep",
            CLASSIFY_STRATA, pool=20, plan=11, trace_rounds=2,
            build=_build_classify, canon=_canon_classify,
        ),
        Workload(
            "equality",
            EQUALITY_STRATA, pool=34, plan=29, trace_rounds=4,
            build=_build_equality, canon=lambda word: word,
            describe=lambda word: "equal" if word is None else f"witness length {len(word)}",
        ),
        Workload(
            "means",
            MEANS_STRATA, pool=32, plan=19, trace_rounds=3,
            build=_build_means, canon=_canon_means,
        ),
    )
}
