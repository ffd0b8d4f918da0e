"""Per-layer tracing from outside the program.

``Tracer`` wraps public functions of the sumrank modules for the length
of a ``with`` block.  A wrapped function is replaced in every sumrank
namespace that holds it (``from .matrix import det`` copies the name into
``superregular``, ``conv_codes`` and ``block_codes``; ``cli`` imports the
checkers; ``metrics`` reads ``core.conv_column_distance`` as an
attribute), and every replacement is undone on exit.  A function that no
longer exists under its traced name raises instead of reading zero.

Timed wrappers keep a span stack, so each span knows how much of its
duration its wrapped children cover; the rest is its self time.
Counting wrappers (``Field.mul`` and ``Field.inv``, around two million
tiny calls per pass) only count, because timing them would distort more
than it shows.
"""

from __future__ import annotations

import sys
from time import perf_counter

from sumrank.report import INFEASIBLE


class Span:
    __slots__ = ("calls", "total", "self")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0


class Tracer:
    # (module, attribute path, metric prefix); the module is looked up in
    # sys.modules because the package attribute sumrank.field is the
    # field() function, not the module.
    TIMED = (
        ("sumrank.cli", "main", "cli.main"),
        ("sumrank.conv_codes", "check_mMSR", "conv_codes.check_mMSR"),
        ("sumrank.conv_codes", "check_mMSR_oracle", "conv_codes.check_mMSR_oracle"),
        ("sumrank.conv_codes", "recheck_mMSR_witness", "conv_codes.recheck_mMSR_witness"),
        ("sumrank.conv_codes", "recheck_oracle_witness", "conv_codes.recheck_oracle_witness"),
        # check_mrd_systematic / check_mrd_transforms call these two through
        # the module namespace, so the MRD wrappers are included.
        ("sumrank.block_codes", "check_msrd_systematic", "block_codes.check_msrd_systematic"),
        ("sumrank.block_codes", "check_msrd_transforms", "block_codes.check_msrd_transforms"),
        ("sumrank.block_codes", "recheck_witness", "block_codes.recheck_witness"),
        ("sumrank.block_codes", "recheck_transform_witness", "block_codes.recheck_transform_witness"),
        ("sumrank.superregular", "is_superregular_constrained",
         "superregular.is_superregular_constrained"),
        ("sumrank.superregular", "is_full_superregular", "superregular.is_full_superregular"),
        ("sumrank.superregular", "count_nontrivial_minors",
         "superregular.count_nontrivial_minors"),
        ("sumrank.matrix", "det", "matrix.det"),
        ("sumrank.matrix", "Matrix.matmul", "matrix.Matrix.matmul"),
        ("sumrank.metrics", "column_sum_rank_distance", "metrics.column_sum_rank_distance"),
        ("sumrank.metrics", "min_sum_rank_distance", "metrics.min_sum_rank_distance"),
        ("sumrank.core", "conv_column_distance", "core.conv_column_distance"),
        ("sumrank.core", "block_min_sum_rank", "core.block_min_sum_rank"),
    )
    COUNTED = (
        ("sumrank.field", "Field.mul", "field.Field.mul"),
        ("sumrank.field", "Field.inv", "field.Field.inv"),
    )

    def __init__(self):
        self.spans = {name: Span() for _, _, name in self.TIMED}
        self.calls = {name: [0] for _, _, name in self.COUNTED}
        self.counts = dict.fromkeys(
            ("conv_codes.t_matrices", "conv_codes.pairs", "conv_codes.filtered_pairs",
             "conv_codes.a_star", "block_codes.t_matrices", "block_codes.transforms",
             "superregular.minors", "core.conv_column_distance.nodes",
             "core.block_min_sum_rank.messages"), 0)
        self._stack: list[float] = []
        self._patches: list[tuple] = []
        self._on_return = {
            "conv_codes.check_mMSR": self._conv_report,
            "conv_codes.check_mMSR_oracle": self._counter("conv_codes.a_star"),
            "block_codes.check_msrd_systematic": self._counter("block_codes.t_matrices"),
            "block_codes.check_msrd_transforms": self._counter("block_codes.transforms"),
            "superregular.is_superregular_constrained": self._counter("superregular.minors"),
            "superregular.is_full_superregular": self._counter("superregular.minors"),
            "core.conv_column_distance": self._enumerated("core.conv_column_distance.nodes"),
            "core.block_min_sum_rank": self._enumerated("core.block_min_sum_rank.messages"),
        }

    # -- return-value counters --------------------------------------------

    def _counter(self, key):
        def add(rep):
            self.counts[key] += rep.checked_count
        return add

    def _enumerated(self, key):
        # the kernels return (result, enumerated); metrics.py keeps only
        # the result
        def add(out):
            self.counts[key] += out[1]
        return add

    def _conv_report(self, rep):
        self.counts["conv_codes.t_matrices"] += rep.checked_count
        for level in rep.detail["levels"]:
            if level["verdict"] == INFEASIBLE:
                continue
            self.counts["conv_codes.pairs"] += level["b_count"] * level["a_count"]
            # a level that found a witness does not report its filter passes
            self.counts["conv_codes.filtered_pairs"] += level.get("filtered_pairs", 0)

    # -- wrappers -----------------------------------------------------------

    def _timed(self, orig, name):
        span = self.spans[name]
        stack = self._stack
        on_return = self._on_return.get(name)

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                out = orig(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                covered = stack.pop()
                span.calls += 1
                span.total += dt
                span.self += dt - covered
                if stack:
                    stack[-1] += dt
            if on_return is not None:
                on_return(out)
            return out

        return wrapper

    def _counted(self, orig, name):
        cell = self.calls[name]

        def wrapper(*args):
            cell[0] += 1
            return orig(*args)

        return wrapper

    # -- install / restore --------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _install(self, module_name, path, wrapper_for):
        module = sys.modules[module_name]
        if "." in path:
            cls_name, attr = path.split(".")
            owner = getattr(module, cls_name)
            self._set(owner, attr, wrapper_for(owner.__dict__[attr]))
            return
        orig = getattr(module, path)
        wrapper = wrapper_for(orig)
        for _, mod in _sumrank_modules():
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._set(mod, attr, wrapper)

    def __enter__(self):
        self._before = _namespace_snapshot()
        try:
            for module_name, path, name in self.TIMED:
                self._install(module_name, path, lambda f, n=name: self._timed(f, n))
            for module_name, path, name in self.COUNTED:
                self._install(module_name, path, lambda f, n=name: self._counted(f, n))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        if _namespace_snapshot() != self._before:
            raise RuntimeError("tracer left a sumrank namespace changed")
        return False

    def _restore(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict:
        """Every per-layer metric of one traced pass, by name."""
        s = self.spans
        c = self.counts
        pairs = c["conv_codes.pairs"]
        conv = s["core.conv_column_distance"]
        block = s["core.block_min_sum_rank"]
        nodes = c["core.conv_column_distance.nodes"]
        messages = c["core.block_min_sum_rank.messages"]
        return {
            "cli.main.calls": s["cli.main"].calls,
            "cli.self_s": s["cli.main"].self,
            "conv_codes.check_mMSR.s": s["conv_codes.check_mMSR"].total,
            "conv_codes.t_matrices": c["conv_codes.t_matrices"],
            "conv_codes.pairs": pairs,
            "conv_codes.filter_pass_ratio":
                c["conv_codes.filtered_pairs"] / pairs if pairs else 0.0,
            "conv_codes.check_mMSR_oracle.s": s["conv_codes.check_mMSR_oracle"].total,
            "conv_codes.a_star": c["conv_codes.a_star"],
            "block_codes.check_msrd_systematic.s":
                s["block_codes.check_msrd_systematic"].total,
            "block_codes.check_msrd_transforms.s":
                s["block_codes.check_msrd_transforms"].total,
            "block_codes.t_matrices": c["block_codes.t_matrices"],
            "block_codes.transforms": c["block_codes.transforms"],
            "superregular.is_superregular_constrained.calls":
                s["superregular.is_superregular_constrained"].calls,
            "superregular.is_superregular_constrained.s":
                s["superregular.is_superregular_constrained"].total,
            "superregular.is_full_superregular.calls":
                s["superregular.is_full_superregular"].calls,
            "superregular.is_full_superregular.s":
                s["superregular.is_full_superregular"].total,
            "superregular.minors": c["superregular.minors"],
            "superregular.self_s": s["superregular.is_superregular_constrained"].self
                + s["superregular.is_full_superregular"].self,
            "superregular.count_nontrivial_minors.s":
                s["superregular.count_nontrivial_minors"].total,
            "matrix.det.calls": s["matrix.det"].calls,
            "matrix.det.s": s["matrix.det"].total,
            "matrix.Matrix.matmul.calls": s["matrix.Matrix.matmul"].calls,
            "matrix.Matrix.matmul.s": s["matrix.Matrix.matmul"].total,
            "field.Field.mul.calls": self.calls["field.Field.mul"][0],
            "field.Field.inv.calls": self.calls["field.Field.inv"][0],
            "metrics.column_sum_rank_distance.s":
                s["metrics.column_sum_rank_distance"].total,
            "metrics.min_sum_rank_distance.s": s["metrics.min_sum_rank_distance"].total,
            "core.conv_column_distance.s": conv.total,
            "core.conv_column_distance.nodes": nodes,
            "core.conv_column_distance.nodes_per_s": nodes / conv.total if conv.total else 0.0,
            "core.block_min_sum_rank.s": block.total,
            "core.block_min_sum_rank.messages": messages,
            "core.block_min_sum_rank.messages_per_s":
                messages / block.total if block.total else 0.0,
        }


def _sumrank_modules():
    return [(name, mod) for name, mod in list(sys.modules.items())
            if mod is not None and (name == "sumrank" or name.startswith("sumrank."))]


def _namespace_snapshot() -> dict:
    """Every name bound in a sumrank module or in a class defined there."""
    snap = {}
    for name, mod in _sumrank_modules():
        for attr, value in vars(mod).items():
            snap[name, attr] = value
            if isinstance(value, type) and value.__module__ == name:
                for cattr, cvalue in vars(value).items():
                    snap[name, f"{attr}.{cattr}"] = cvalue
    return snap
