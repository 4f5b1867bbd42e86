"""REPRO002: no builtin ``hash()`` or wall-clock reads in hot paths.

Two cross-process determinism hazards, both enforced in the modules
that make routing decisions or accumulate routing metrics:

* builtin ``hash()`` is salted per interpreter by PYTHONHASHSEED, so
  two worker processes disagree about every string key's hash -- the
  exact failure the seeded Murmur/splitmix64 functions in
  :mod:`repro.hashing` exist to prevent;
* ``time.time()`` / ``datetime.now()`` (and friends) read the wall
  clock, so replays of the same stream produce different values run to
  run and process to process.  Simulated time must come from message
  timestamps or the event loop's clock.

"Hot path" is determined by directory name: any file under a
``partitioning``, ``core``, ``hashing``, ``sketches``, ``queueing``,
or ``runtime`` directory.  Timing *harnesses*
(``repro.reports.bench``, experiment CLIs) live outside those trees
and may measure wall-clock freely.  The sharded runtime
(``repro.runtime``) does stamp enqueue times with ``perf_counter`` --
those reads carry explicit ``# repro: noqa[REPRO002]`` suppressions
with a justification, so every *new* clock read there still needs a
deliberate sign-off.
"""

from __future__ import annotations

import ast
from typing import Iterator, Tuple

from repro.lint.findings import Finding
from repro.lint.rules.base import ModuleContext, Rule, call_name

#: directory names whose files are routing/metrics hot paths.
HOT_PATH_PARTS: Tuple[str, ...] = (
    "partitioning",
    "core",
    "hashing",
    "sketches",
    "queueing",
    "runtime",
)

#: wall-clock reads (resolved dotted names).
_WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


class HotPathPurity(Rule):
    id = "REPRO002"
    name = "hot-path-purity"
    description = (
        "routing/metrics hot paths must not call builtin hash() "
        "(PYTHONHASHSEED-salted) or read the wall clock"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.has_part(*HOT_PATH_PARTS):
            return
        hash_shadowed = "hash" in ctx.imports.aliases or any(
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name == "hash"
            for node in ast.walk(ctx.tree)
        )
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if (
                not hash_shadowed
                and isinstance(node.func, ast.Name)
                and node.func.id == "hash"
            ):
                yield ctx.finding(
                    node,
                    self.id,
                    "builtin hash() is salted per process by "
                    "PYTHONHASHSEED; use the seeded functions in "
                    "repro.hashing so workers agree on every key",
                )
                continue
            resolved = call_name(node, ctx.imports)
            if resolved in _WALL_CLOCK:
                yield ctx.finding(
                    node,
                    self.id,
                    f"{resolved}() reads the wall clock inside a hot "
                    "path; derive time from message timestamps or the "
                    "EventLoop clock instead",
                )
