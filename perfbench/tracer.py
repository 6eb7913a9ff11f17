"""Outside-in tracer for cgraforge's layers.

Each layer entry point that the run loop calls is wrapped in a span (name,
start, end, parent, and the root span of the run it belongs to). The
wrappers are installed where cgraforge.orchestrate looks the names up:
orchestrate binds them with `from .mapper import map_kernel` and the like,
so patching cgraforge.mapper itself would catch nothing. Spans stay in
memory and are written out once the traced pass ends; the originals are
restored on exit, and the wrappers return exactly what the originals
return, so a traced run writes the same history bytes as an untraced one.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path


class Span:
    __slots__ = ("name", "start", "end", "parent", "root", "child_s", "attrs")

    def __init__(self, name: str, start: float, parent: int | None, root: int, attrs: dict):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.root = root
        self.child_s = 0.0
        self.attrs = attrs

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        """Span time minus the time its direct children cover (spans nest
        strictly: the loop is single-threaded)."""
        return self.dur - self.child_s


# (attribute of cgraforge.orchestrate, span name). The span name is
# "<layer module>.<function>"; a few entry points have orchestrate-local
# names (llm_select is the fine judge's pick, llm_update its lesson).
ENTRY_POINTS = (
    ("map_kernel", "mapper.map_kernel"),
    ("compute_speedup", "mapper.speedup"),
    ("apply_sw_params", "kernel.apply_sw_params"),
    ("load_kernel", "kernel.load_kernel"),
    ("summarize", "kernel.summarize"),
    ("validate_design", "arch.validate_design"),
    ("load_cost_coeffs", "costs.load_cost_coeffs"),
    ("tool_evaluate", "costs.tool_evaluate"),
    ("tool_select", "costs.tool_select"),
    ("select_step", "selection.select_step"),
    ("propose", "agents.propose"),
    ("fix_design", "agents.fix_design"),
    ("coarse_judge", "agents.coarse_judge"),
    ("make_fine_judge", "agents.make_fine_judge"),
    ("llm_select", "agents.judge_select"),
    ("llm_update", "agents.judge_update"),
    ("read_history", "orchestrate.read_history"),
)

# (class in cgraforge.orchestrate, method, span name).
METHODS = (
    ("History", "append", "orchestrate.history_append"),
    ("_Runner", "replay", "orchestrate.replay"),
)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        # Every (transformed kernel, fabric, budget, result) map_kernel saw,
        # with the root span of its run; re-checked with check_mapping later.
        self.mappings: list[tuple[object, object, object, object, int]] = []
        # id(transformed kernel) -> (kernel name, unroll, vectorize, kernel).
        # The kernel object is kept so its id is not reused.
        self.transforms: dict[int, tuple[str, int, int, object]] = {}

    def open(self, name: str, **attrs) -> Span:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        root = idx if parent is None else self.spans[parent].root
        s = Span(name, time.perf_counter(), parent, root, attrs)
        self.spans.append(s)
        self._stack.append(idx)
        return s

    def close(self, s: Span) -> None:
        s.end = time.perf_counter()
        self._stack.pop()
        if s.parent is not None:
            self.spans[s.parent].child_s += s.end - s.start

    @contextmanager
    def span(self, name: str, **attrs):
        s = self.open(name, **attrs)
        try:
            yield s
        finally:
            self.close(s)

    def _wrap(self, owner, attr: str, name: str) -> None:
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            s = self.open(name)
            try:
                result = orig(*args, **kwargs)
            except Exception as e:
                s.attrs["raised"] = type(e).__name__
                raise
            finally:
                self.close(s)
            if observe is not None:
                observe(s, args, result)
            return result

        wrapper.__wrapped__ = orig
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    @contextmanager
    def installed(self, orchestrate):
        """Patch orchestrate's entry points for the duration of the block."""
        try:
            for attr, name in ENTRY_POINTS:
                self._wrap(orchestrate, attr, name)
            for cls, attr, name in METHODS:
                self._wrap(getattr(orchestrate, cls), attr, name)
            yield self
        finally:
            for owner, attr, orig in reversed(self._patches):
                setattr(owner, attr, orig)
            self._patches.clear()

    # Observers run after the span closes, so their cost is not charged to it.

    def _observe_mapper_map_kernel(self, s: Span, args: tuple, result) -> None:
        k, f, budget = args[0], args[1], args[2] if len(args) > 2 else None
        code = getattr(result, "code", None)
        s.attrs["code"] = code or "OK"
        if code is None:
            s.attrs["ii"] = result.ii
        self.mappings.append((k, f, budget, result, s.root))
        if id(k) in self.transforms:
            name, u, v, _ = self.transforms[id(k)]
            s.attrs.update(kernel=name, unroll=u, vectorize=v)

    def _observe_kernel_apply_sw_params(self, s: Span, args: tuple, result) -> None:
        self.transforms[id(result)] = (args[0].name, args[1], args[2], result)

    def _observe_arch_validate_design(self, s: Span, args: tuple, result) -> None:
        s.attrs["violations"] = len(result)

    def _observe_agents_fix_design(self, s: Span, args: tuple, result) -> None:
        s.attrs["ok"] = type(result).__name__ != "FixFailure"

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "parent": s.parent,
                            "root": s.root,
                            **s.attrs,
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )
