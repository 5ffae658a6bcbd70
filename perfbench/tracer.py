"""Spans around amschan's public functions, recorded from outside the program.

`Tracer.install` wraps each listed function and rebinds every loaded
`amschan` module's binding of that same function object: `sources`,
`channels`, `classify` and `oracle` all do `from .linalg import vec_mat`, so
patching `linalg` alone would miss most calls.  Spans (name, start, end,
parent, op id) stay in memory in flat arrays and are written once, at the
end.  A span's self time is its duration minus the intervals of its child
spans; a child's interval runs on to its `tail`, the end of the tracer's
bookkeeping for it, so that cost is charged to neither span.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from fractions import Fraction

#: functions to wrap, by layer (module)
TARGETS = (
    ("linalg", ("vec_mat", "solve")),
    (
        "sources",
        (
            "cyl_prob", "forward_vector", "positive_words", "equivalence_witness",
            "cesaro_limit", "class_decomposition", "is_recurrent", "recurrence_defect",
            "asymptotic_support", "dominates", "asymptotically_dominates", "ams_evidence",
        ),
    ),
    (
        "channels",
        (
            "hookup", "cascade", "rect_prob", "channel_cyl_prob", "conditional_table",
            "channel_output_measure",
        ),
    ),
    (
        "classify",
        (
            "is_channel_stationary", "is_quasi_stationary_wrt", "is_channel_recurrent_wrt",
            "is_channel_ams_wrt", "classify_channel", "run_theorem_trial",
        ),
    ),
    ("seqcore", ("check_word", "sort_words")),
    ("models", ("parse_model",)),
    (
        "battery",
        (
            "rand_labels", "rand_source", "rand_dense_source", "rand_stationary_source",
            "rand_ergodic_stationary_source", "rand_channel", "rand_dense_channel",
            "rand_stationary_channel", "rand_markov_channel", "rand_recurrent_channel",
            "rand_lassos",
        ),
    ),
)

#: layers whose functions also report `.errors`; seqcore checks and the
#: battery generators are left out to keep the metric count in bounds
ERROR_LAYERS = ("linalg", "sources", "channels", "classify", "models")

#: extra figures: name -> (unit, better)
EXTRAS = {
    "linalg.vec_mat.useful_product_ratio": ("ratio", "higher"),
    "linalg.solve.dim_max": ("count", "lower"),
    "linalg.solve.den_bits_max": ("bits", "lower"),
    "sources.positive_words.words_out": ("count", "lower"),
    "sources.equivalence_witness.vec_mat_calls": ("count", "lower"),
    "sources.cesaro_limit.miss_ratio": ("ratio", "lower"),
    "channels.hookup.states_max": ("count", "lower"),
}


def metric_specs() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    specs = []
    for module, fns in TARGETS:
        for fn in fns:
            name = f"{module}.{fn}"
            specs.append((f"{name}.calls", "count", "lower"))
            specs.append((f"{name}.self_s", "s", "lower"))
            if module in ERROR_LAYERS:
                specs.append((f"{name}.errors", "count", "lower"))
    specs += [(name, unit, better) for name, (unit, better) in EXTRAS.items()]
    specs += [(f"{module}.self_share", "ratio", "lower") for module, _ in TARGETS]
    specs += [("trace.overhead_s", "s", "lower"), ("trace.overhead_ratio", "ratio", "lower")]
    return specs


def self_times(starts, ends, tails, parents) -> list[float]:
    """Self time per span; a parent's index is below its children's."""
    own = [end - start for start, end in zip(starts, ends)]
    for start, tail, parent in zip(starts, tails, parents):
        if parent >= 0:
            own[parent] -= tail - start
    return own


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.tail = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.error = array("b")
        self.stack: list[int] = []
        self.op_id = -1
        self.figures = {
            "useful_products": 0,
            "all_products": 0,
            "solve_dim_max": 0,
            "solve_den_bits_max": 0,
            "words_out": 0,
            "hookup_states_max": 0,
        }
        self._nonzeros: dict[int, tuple] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn, after=None):
        """`fn`, recorded as spans called `name`; `after(args, result)` runs
        after the span has ended, to collect extra figures."""
        nid = self.name_id(name)
        perf = time.perf_counter
        stack = self.stack
        names, starts, ends, tails = self.name, self.start, self.end, self.tail
        parents, ops, errors = self.parent, self.op, self.error

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            errors.append(0)
            starts.append(0.0)
            ends.append(0.0)
            tails.append(0.0)
            stack.append(idx)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ends[idx] = perf()
                errors[idx] = 1
                raise
            else:
                ends[idx] = perf()
                if after is not None:
                    after(args, result)
                return result
            finally:
                stack.pop()
                starts[idx] = t0
                tails[idx] = perf()

        return traced

    def span(self, name: str, fn):
        """Run fn() as one span (an op or a set-up step) and return its result."""
        return self.wrap(name, fn)()

    # -- extra figures -------------------------------------------------------

    def _after_vec_mat(self, args, result) -> None:
        v, m = args[0], args[1]
        entry = self._nonzeros.get(id(m))
        if entry is None or entry[0] is not m:
            if len(self._nonzeros) > 4096:
                self._nonzeros.clear()
            # keeping m alive keeps its id from being reused
            entry = (m, [sum(1 for x in row if x != 0) for row in m])
            self._nonzeros[id(m)] = entry
        nonzeros = entry[1]
        fig = self.figures
        fig["useful_products"] += sum(nonzeros[i] for i, x in enumerate(v) if x != 0)
        fig["all_products"] += len(v) * len(m[0])

    def _after_solve(self, args, result) -> None:
        fig = self.figures
        fig["solve_dim_max"] = max(fig["solve_dim_max"], len(args[0]))
        bits = max(
            (x.denominator.bit_length() for x in result if isinstance(x, Fraction)),
            default=0,
        )
        fig["solve_den_bits_max"] = max(fig["solve_den_bits_max"], bits)

    def _after_positive_words(self, args, result) -> None:
        self.figures["words_out"] += len(result)

    def _after_hookup(self, args, result) -> None:
        fig = self.figures
        fig["hookup_states_max"] = max(fig["hookup_states_max"], len(result.source.states))

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every target and rebind each amschan module's binding of it."""
        afters = {
            "linalg.vec_mat": self._after_vec_mat,
            "linalg.solve": self._after_solve,
            "sources.positive_words": self._after_positive_words,
            "channels.hookup": self._after_hookup,
        }
        loaded = [
            m for name, m in sys.modules.items()
            if m is not None and (name == "amschan" or name.startswith("amschan."))
        ]
        for module, fns in TARGETS:
            home = importlib.import_module(f"amschan.{module}")
            for fn in fns:
                original = getattr(home, fn)
                wrapped = self.wrap(f"{module}.{fn}", original, afters.get(f"{module}.{fn}"))
                for m in loaded:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapped)
                            self._restore.append((m, attr, original))

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._restore):
            setattr(m, attr, original)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer figures; `wall_s` is the traced wall time."""
        own = self_times(self.start, self.end, self.tail, self.parent)
        n_names = len(self.names)
        calls = [0] * n_names
        self_s = [0.0] * n_names
        errors = [0] * n_names
        for nid, t, err in zip(self.name, own, self.error):
            calls[nid] += 1
            self_s[nid] += t
            errors[nid] += err
        index = {name: i for i, name in enumerate(self.names)}

        def get(table, name):
            return table[index[name]] if name in index else 0

        out: dict[str, float] = {}
        for module, fns in TARGETS:
            for fn in fns:
                name = f"{module}.{fn}"
                out[f"{name}.calls"] = get(calls, name)
                out[f"{name}.self_s"] = get(self_s, name)
                if module in ERROR_LAYERS:
                    out[f"{name}.errors"] = get(errors, name)
        fig = self.figures
        out["linalg.vec_mat.useful_product_ratio"] = (
            fig["useful_products"] / fig["all_products"] if fig["all_products"] else 0.0
        )
        out["linalg.solve.dim_max"] = fig["solve_dim_max"]
        out["linalg.solve.den_bits_max"] = fig["solve_den_bits_max"]
        out["sources.positive_words.words_out"] = fig["words_out"]
        out["sources.equivalence_witness.vec_mat_calls"] = self._vec_mat_under(
            "sources.equivalence_witness"
        )
        cesaro = get(calls, "sources.cesaro_limit")
        out["sources.cesaro_limit.miss_ratio"] = (
            get(calls, "sources.class_decomposition") / cesaro if cesaro else 0.0
        )
        out["channels.hookup.states_max"] = fig["hookup_states_max"]
        for module, fns in TARGETS:
            out[f"{module}.self_share"] = (
                sum(get(self_s, f"{module}.{fn}") for fn in fns) / wall_s
            )
        return out

    def _vec_mat_under(self, ancestor: str) -> int:
        """vec_mat spans with `ancestor` among their enclosing spans."""
        if ancestor not in self.names or "linalg.vec_mat" not in self.names:
            return 0
        target = self.names.index(ancestor)
        vec_mat = self.names.index("linalg.vec_mat")
        inside = array("b")
        count = 0
        for nid, parent in zip(self.name, self.parent):
            under = parent >= 0 and (inside[parent] or self.name[parent] == target)
            inside.append(under)
            count += under and nid == vec_mat
        return count

    def write(self, path) -> None:
        """One JSON header line (names, span count), then the raw arrays."""
        header = {
            "names": self.names,
            "spans": len(self.name),
            "fields": [["name", "i"], ["start", "d"], ["end", "d"], ["tail", "d"],
                       ["parent", "i"], ["op", "i"], ["error", "b"]],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for field in (self.name, self.start, self.end, self.tail,
                          self.parent, self.op, self.error):
                field.tofile(fh)
