"""``repro.api``: the one public surface for assembling and running
experiments.

Three pieces, mirroring how the paper talks about PKG as a drop-in
operator:

* the **partitioner registry** (:func:`make_partitioner`,
  :func:`register`, :func:`available_schemes`) -- every scheme by name
  or compact spec string (``"pkg"``, ``"pkg:d=3"``, ``"kg"``, ...);
* the **fluent topology builder** (:class:`Topology`) -- arbitrary
  spout/worker/aggregator clusters, including stragglers and
  heterogeneous workers, without touching dataclasses;
* the **run facade** (:func:`run`) -- one entry point returning a
  unified :class:`RunResult` for both the DSPE discrete-event
  simulation and the frequency-only stream replay.

plus the **experiment report entry points** re-exported from
:mod:`repro.reports` (:func:`run_experiments`, :func:`render_markdown`,
:func:`diff_artifacts`, :func:`load_artifacts`) -- persisted JSON
artifacts, the generated EXPERIMENTS.md, and BENCH_*.json snapshots.

Quickstart::

    from repro.api import Topology, run

    # Frequency-only: imbalance of PKG vs hashing on a skewed stream.
    pkg = run("pkg", dataset="WP", num_workers=10, num_messages=100_000)
    kg = run("kg", dataset="WP", num_workers=10, num_messages=100_000)
    print(pkg.average_imbalance, "<<", kg.average_imbalance)

    # Full DSPE simulation: throughput/latency of a word-count cluster.
    topo = (Topology().source("WP").spouts(1)
            .partition_by("pkg:d=2").workers(9, cpu_delay=0.4e-3))
    print(run(topo).throughput)

Spec-string grammar
-------------------

Everywhere a scheme is named -- :func:`make_partitioner`, :func:`run`,
``Topology.partition_by``, experiment configs, the report CLI -- a
compact **spec string** is accepted::

    spec      ::= name [":" param ("," param)*]
    name      ::= canonical scheme name | alias     (case-insensitive)
    param     ::= key "=" value
    key       ::= constructor kwarg | per-scheme shorthand
    value     ::= int | float | bool ("true"/"yes"/"on" etc.) | str

Examples: ``"pkg"``, ``"pkg:d=3"`` (shorthand ``d`` ->
``num_choices``), ``"kg-rebalance:interval=5000"``,
``"ch-pkg:d=2,vnodes=128"``.  Resolution rules:

* names and aliases resolve through the registry
  (:func:`available_schemes` lists canonical names,
  :func:`scheme_info` shows aliases and accepted parameters);
* spec parameters map onto constructor keyword arguments, through the
  per-scheme shorthand table registered with :func:`register`;
* explicit keyword arguments passed to :func:`make_partitioner`
  override spec-string values;
* unknown names, malformed params, and kwargs the constructor does not
  accept all raise :class:`ValueError` listing the valid options.
"""

from __future__ import annotations

import importlib
from typing import Any, Dict, List

from repro.api.registry import (
    SchemeInfo,
    available_schemes,
    make_partitioner,
    parse_spec,
    register,
    resolve_scheme_name,
    scheme_info,
)

#: attribute -> defining module, resolved lazily (PEP 562) so that the
#: partitioner modules can import ``repro.api.registry`` during their own
#: definition without dragging the cluster and replay stack into the cycle.
_LAZY_EXPORTS: Dict[str, str] = {
    "Topology": "repro.api.topology",
    "TopologyError": "repro.api.topology",
    "run": "repro.api.facade",
    "RunResult": "repro.api.facade",
    # Experiment report pipeline (artifacts, EXPERIMENTS.md, BENCH_*.json).
    "run_experiments": "repro.reports",
    "render_markdown": "repro.reports",
    "diff_artifacts": "repro.reports",
    "load_artifacts": "repro.reports",
    "ExperimentArtifact": "repro.reports",
}

__all__ = [
    "SchemeInfo",
    "register",
    "make_partitioner",
    "parse_spec",
    "available_schemes",
    "scheme_info",
    "resolve_scheme_name",
    "Topology",
    "TopologyError",
    "run",
    "RunResult",
    "run_experiments",
    "render_markdown",
    "diff_artifacts",
    "load_artifacts",
    "ExperimentArtifact",
]


def __getattr__(name: str) -> Any:
    module = _LAZY_EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value  # cache for subsequent lookups
    return value


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(_LAZY_EXPORTS))
