"""Outside-in span recorder for the fibercpd layers.

Each traced function is wrapped by rebinding every name under which a
fibercpd module looks it up, not only the name in its defining module:
`solvers` binds `gather_fiber_rows`/`kr_rows`/`mttkrp` with `from .tensor
import`, and `experiments` binds the `*_iteration` functions, `als_sweep` and
`metric` the same way, so patching the defining module alone would miss every
call.  Methods (`FiberSampler.draw`, `Constraint.prox`) are patched on their
class.  Nothing under `src/` is edited; `instrument` restores every binding on
exit.

A span is (name, start, end, parent); spans stay in memory until `dump`.
Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
import math
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# bytes a gather moves per tensor entry, as computed (not measured): one
# float64 read from the tensor plus one float64 written to the output block
GATHER_BYTES_PER_ENTRY = 16


class Recorder:
    """Spans and counters of one traced trial (single thread, single owner).

    `blocks` are the trial's per-mode blocksizes, against which a draw that
    returns fewer rows counts as clamped.
    """

    def __init__(self, blocks: tuple[int, ...] = ()):
        self.blocks = blocks
        self.missing: list[str] = []
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.depth: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def wrap(self, name: str, fn, hook=None):
        """`fn` recorded as span `name`; `hook(recorder, args, result)` runs after it."""

        def traced(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.ends.append(math.nan)
            self._stack.append(idx)
            self.depth[name] += 1
            self.starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[idx] = time.perf_counter()
                self._stack.pop()
                self.depth[name] -= 1
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def totals(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, summed self seconds)."""
        child = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for i, name in enumerate(self.names):
            entry = out[name]
            entry[0] += 1
            entry[1] += (self.ends[i] - self.starts[i]) - child[i]
        return {name: (calls, self_s) for name, (calls, self_s) in out.items()}

    def dump(self) -> dict:
        """Spans as columns: name ids, start/end seconds relative to the first span, parents."""
        names = sorted(set(self.names))
        ids = {n: i for i, n in enumerate(names)}
        t0 = self.starts[0] if self.starts else 0.0
        return {
            "names": names,
            "name": [ids[n] for n in self.names],
            "start": [round(s - t0, 9) for s in self.starts],
            "end": [round(e - t0, 9) for e in self.ends],
            "parent": self.parents,
            "counts": dict(self.counts),
        }


# --- counters taken at the layer boundaries ---------------------------------

def _count_draw(rec, _args, sample):
    rec.counts["sampling.draw.rows"] += sample.size
    if rec.blocks[sample.mode] > sample.size:
        rec.counts["sampling.clamped_draws"] += 1


def _count_gather(rec, args, _):
    t, mode, rows = args[0], args[1], args[2]
    entries = len(rows) * t.dims[mode]
    rec.counts["tensor.gather_fiber_rows.entries"] += entries
    rec.counts["tensor.gather_fiber_rows.bytes_computed"] += GATHER_BYTES_PER_ENTRY * entries


def _count_sampled_gradient(rec, args, _):
    t, model, sample = args[0], args[1], args[2]
    b, i, r = sample.size, t.dims[sample.mode], model.rank
    # K_F^T K_F, X_F^T K_F and at @ gram
    rec.counts["solvers.sampled_gradient.flops_computed"] += 2 * r * (b * r + b * i + i * r)


def _count_mttkrp(rec, args, _):
    t, model = args[0], args[1]
    # leading term: contracting the tensor with the first surviving factor
    rec.counts["tensor.mttkrp.flops_computed"] += 2 * model.rank * math.prod(t.dims)


def _count_skipped(rec, _, estimate):
    if estimate is None:
        rec.counts["solvers.skipped_updates"] += 1


def _count_prox(rec, _args, _result):
    if rec.depth["solvers.als_sweep"] > 0:
        rec.counts["solvers.als_inner_iters"] += 1


def targets(fibercpd) -> list[tuple[object, str, str, object]]:
    """(owner, attribute, span name, counter hook) for every traced function."""
    sampling, tensor, solvers, constraints, experiments = (
        fibercpd.sampling, fibercpd.tensor, fibercpd.solvers,
        fibercpd.constraints, fibercpd.experiments)
    return [
        (sampling.FiberSampler, "draw", "sampling.draw", _count_draw),
        (tensor, "gather_fiber_rows", "tensor.gather_fiber_rows", _count_gather),
        (tensor, "kr_rows", "tensor.kr_rows", None),
        (tensor, "mttkrp", "tensor.mttkrp", _count_mttkrp),
        (solvers, "sampled_gradient", "solvers.sampled_gradient", _count_sampled_gradient),
        (solvers, "eigen_extremes", "solvers.eigen_extremes", None),
        (solvers, "ascpd_iteration", "solvers.ascpd_iteration", _count_skipped),
        (solvers, "spg_iteration", "solvers.spg_iteration", _count_skipped),
        (solvers, "brascpd_iteration", "solvers.brascpd_iteration", None),
        (solvers, "adacpd_iteration", "solvers.adacpd_iteration", None),
        (solvers, "als_sweep", "solvers.als_sweep", None),
        (constraints.Constraint, "prox", "constraints.prox", _count_prox),
        (experiments, "metric", "experiments.metric", None),
        (experiments, "run", "experiments.run", None),
    ]


@contextmanager
def instrument(recorder: Recorder, fibercpd):
    """Rebind every lookup site of the traced functions to recording wrappers.

    A function the package no longer has is listed in `recorder.missing` and
    its metrics read 0.
    """
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == fibercpd.__name__
                                     or name.startswith(fibercpd.__name__ + "."))]
    saved = []
    try:
        for owner, attr, name, hook in targets(fibercpd):
            original = getattr(owner, attr, None)
            if original is None:
                recorder.missing.append(name)
                continue
            traced = recorder.wrap(name, original, hook)
            if isinstance(owner, type):
                saved.append((owner, attr, original))
                setattr(owner, attr, traced)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        saved.append((module, key, original))
                        setattr(module, key, traced)
        yield
    finally:
        for owner, key, original in reversed(saved):
            setattr(owner, key, original)


def write_spans(path, dumps: dict[str, dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(dumps, separators=(",", ":")) + "\n", encoding="utf-8")
