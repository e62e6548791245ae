"""Outside-in tracing of tauhunt's public functions.

`install()` replaces every public function of the traced modules, in
every tauhunt namespace that holds a reference to it, with a wrapper
that records a span.  A span has an id, the id of the span that was
open when it started, the request id current at the time, the
function's home name (``arith.factor``), the namespace the call went
through (``curves`` for curves' copy of ``is_perfect_square``), and
start and end times.  Spans stay in memory; `Tracer.write` puts them
out as JSON lines and `Tracer.summary` aggregates calls and self time
(span time minus the time of nested wrapped spans).

Nothing in tauhunt is edited: the wrappers live in the benchmark
process only.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

MODULES = ("arith", "newform", "thue", "curves", "lehmer", "cli")
# public in the sense of the layer boundary, though not listed in __all__
EXTRA = {"arith": ("sign_at",), "thue": ("real_roots",), "cli": ("main", "build_parser")}
# every namespace that may hold a copy of a traced function
NAMESPACES = ("", "arith", "bounds", "cli", "curves", "lehmer", "lucas", "newform", "thue")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.request = ""
        self._stack: list[list] = []  # [span_id, child_time]
        self._next_id = 1
        self.calls: dict[str, int] = {}
        self.site_calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counters: dict[str, int] = {}
        self.lru: dict[str, object] = {}

    def wrap(self, name: str, site: str, fn):
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        site_key = f"{name}@{site}"
        hook = _RESULT_HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else 0
            frame = [span_id, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                spans.append((span_id, parent, self.request, name, site, t0, t1))
                self.calls[name] = self.calls.get(name, 0) + 1
                self.site_calls[site_key] = self.site_calls.get(site_key, 0) + 1
                self.self_s[name] = self.self_s.get(name, 0.0) + dur - frame[1]
            if hook is not None:
                hook(self.counters, result)
            return result

        # functools.wraps does not carry the lru_cache methods over
        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def install(self) -> None:
        """Wrap every traced function in every namespace that holds it."""
        spaces = {ns: importlib.import_module(f"tauhunt.{ns}" if ns else "tauhunt")
                  for ns in NAMESPACES}
        targets = {}
        for mod_name in MODULES:
            mod = spaces[mod_name]
            names = list(getattr(mod, "__all__", ())) + list(EXTRA.get(mod_name, ()))
            for attr in names:
                fn = getattr(mod, attr, None)
                if inspect.isclass(fn) or not callable(fn):
                    continue
                targets[id(fn)] = f"{mod_name}.{attr}"
                if hasattr(fn, "cache_info"):
                    self.lru[f"{mod_name}.{attr}"] = fn
        for site, space in spaces.items():
            for attr, value in list(vars(space).items()):
                name = targets.get(id(value))
                if name is not None:
                    setattr(space, attr, self.wrap(name, site or "tauhunt", value))

    def summary(self) -> dict:
        lru = {}
        for name, fn in self.lru.items():
            info = fn.cache_info()
            lru[name] = {"hits": info.hits, "misses": info.misses}
        return {
            "calls": self.calls,
            "site_calls": self.site_calls,
            "self_s": self.self_s,
            "counters": self.counters,
            "lru": lru,
            "spans": len(self.spans),
        }

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for span_id, parent, req, name, site, t0, t1 in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "request": req,
                                     "name": name, "site": site,
                                     "start": t0, "end": t1}) + "\n")


def _count_convergents(counters: dict, result) -> None:
    counters["thue.solutions"] = counters.get("thue.solutions", 0) + len(result.solutions)
    midsize = result.certificate.get("midsize")
    if isinstance(midsize, dict):
        counters["thue.convergents"] = (counters.get("thue.convergents", 0)
                                        + midsize.get("convergents", 0))


def _count_points(counters: dict, result) -> None:
    counters["curves.points"] = counters.get("curves.points", 0) + len(result.points)


_RESULT_HOOKS = {
    "thue.solve_bounded": _count_convergents,
    "curves.search_points": _count_points,
}
