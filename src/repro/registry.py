"""Central algorithm registry with declared capabilities.

Every miner, classifier, clusterer and sequence miner registers itself
here (from its family package's ``__init__``) with a name, family,
factory and a :class:`Capabilities` record.  The CLI derives its
subcommand choices, usage errors, budget wiring and supervisor resume
policy entirely from this table, so adding an algorithm never touches
``cli.py`` — register it in its family package and every surface
(``repro algorithms``, ``--supervise`` gating, conformance tests) picks
it up.

The dependency direction is strictly one-way: algorithm modules and
this registry never import :mod:`repro.cli` (enforced by a CI lint
step).
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Optional, Tuple

from .core.exceptions import ValidationError

#: the four algorithm families
FAMILIES = ("associations", "classification", "clustering", "sequences")


@dataclass(frozen=True)
class Capabilities:
    """What runtime plumbing an algorithm can honour.

    Attributes
    ----------
    checkpointable:
        Accepts a checkpointer through its context and resumes from
        snapshots (``--checkpoint-dir`` / ``--resume``).
    supervisable:
        Safe to run under :class:`~repro.runtime.Supervisor` with
        automatic relaunch — either checkpoint-resumable or a
        deterministic fit that restarts from scratch.
    budget_resource:
        Which budget axis bounds its dominant work — ``"candidates"``,
        ``"nodes"``, ``"expansions"`` — or ``None`` when the algorithm
        takes no budget.
    degradation_policies:
        Values its ``on_exhausted`` parameter accepts; empty for
        estimators that degrade internally (truncated trees, best-so-far
        clusterings) without such a parameter.
    parallelizable:
        Accepts ``n_jobs`` and shards work across a fork-based
        :class:`~repro.runtime.WorkerPool` with results byte-identical
        to serial execution (``--jobs`` in the CLI).
    vectorizable:
        Offers a vectorized hot-loop backend over the shared columnar
        data plane (:mod:`repro.core.columnar`) — bitsets,
        presorted columns or cached dense matrices — selected with a
        ``backend`` parameter (``--backend`` in the CLI) and
        byte-identical to the scalar path.
    """

    checkpointable: bool = False
    supervisable: bool = False
    budget_resource: Optional[str] = None
    degradation_policies: Tuple[str, ...] = ()
    parallelizable: bool = False
    vectorizable: bool = False

    def describe(self) -> str:
        """Compact one-cell rendering for the ``repro algorithms`` table."""
        parts = []
        if self.checkpointable:
            parts.append("checkpoint")
        if self.supervisable:
            parts.append("supervise")
        if self.parallelizable:
            parts.append("parallel")
        if self.vectorizable:
            parts.append("vectorize")
        if self.budget_resource is not None:
            parts.append(f"budget={self.budget_resource}")
        if self.degradation_policies:
            parts.append("degrade=" + "/".join(self.degradation_policies))
        return ", ".join(parts) if parts else "-"

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form, consumed by ``repro algorithms --json`` and
        the job server's admission layer."""
        return {
            "checkpointable": self.checkpointable,
            "supervisable": self.supervisable,
            "budget_resource": self.budget_resource,
            "degradation_policies": list(self.degradation_policies),
            "parallelizable": self.parallelizable,
            "vectorizable": self.vectorizable,
        }


@dataclass(frozen=True)
class AlgorithmSpec:
    """One registered algorithm.

    ``factory`` is the public callable (miner function or estimator
    class).  ``make`` is an optional CLI adapter ``make(ctx, **params)``
    returning a ready-to-fit estimator for families whose constructors
    take per-algorithm hyper-parameters; families with a uniform call
    shape (the miners) are invoked through ``factory`` directly.
    """

    name: str
    family: str
    factory: Callable
    capabilities: Capabilities = field(default_factory=Capabilities)
    summary: str = ""
    make: Optional[Callable] = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValidationError(
                f"family must be one of {FAMILIES}, got {self.family!r}"
            )

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form (factories stay out — they are not data)."""
        return {
            "name": self.name,
            "family": self.family,
            "summary": self.summary,
            "capabilities": self.capabilities.to_dict(),
        }


_REGISTRY: Dict[Tuple[str, str], AlgorithmSpec] = {}


def register(spec: AlgorithmSpec) -> AlgorithmSpec:
    """Add a spec to the table; re-registration must be idempotent.

    Family packages register on import, and imports can run more than
    once in exotic embedding setups — identical re-registration is a
    no-op, conflicting re-registration is an error.
    """
    slot = (spec.family, spec.name)
    existing = _REGISTRY.get(slot)
    if existing is not None and existing.factory is not spec.factory:
        raise ValidationError(
            f"algorithm {spec.name!r} already registered in {spec.family} "
            "with a different factory"
        )
    _REGISTRY[slot] = spec
    return spec


def ensure_populated(family: Optional[str] = None) -> None:
    """Import one family package, or every one when ``family`` is None,
    so its registrations run.

    Scoping the import to one family keeps a command from paying for
    algorithm packages it never runs.
    """
    for package in FAMILIES:
        if family is None or package == family:
            importlib.import_module(f".{package}", __package__)


def get(family: str, name: str) -> AlgorithmSpec:
    """Look up one algorithm; raises with the valid choices on a miss."""
    ensure_populated(family)
    spec = _REGISTRY.get((family, name))
    if spec is None:
        raise ValidationError(
            f"unknown {family} algorithm {name!r}; "
            f"choices: {', '.join(names(family))}"
        )
    return spec


def names(family: str) -> Tuple[str, ...]:
    """Registered algorithm names of one family, registration order."""
    ensure_populated(family)
    return tuple(n for (f, n) in _REGISTRY if f == family)


def specs(family: Optional[str] = None) -> Tuple[AlgorithmSpec, ...]:
    """All registered specs, optionally filtered to one family.

    Families come in :data:`FAMILIES` order whichever was imported
    first; within a family, in registration order.
    """
    ensure_populated(family)
    return tuple(sorted(
        (spec for (f, _n), spec in _REGISTRY.items()
         if family is None or f == family),
        key=lambda spec: FAMILIES.index(spec.family),
    ))


def capability_table(family: Optional[str] = None) -> list:
    """The machine-readable capability table: one dict per algorithm.

    The JSON twin of :func:`render_table` — ``repro algorithms --json``
    prints it and the job server's admission layer returns it alongside
    every capability-violation rejection, so clients can self-correct
    without scraping the human-rendered table.
    """
    return [spec.to_dict() for spec in specs(family)]


def render_table(rows: Optional[Iterable[AlgorithmSpec]] = None) -> str:
    """The ``repro algorithms`` listing: name, family, capabilities."""
    entries = list(specs() if rows is None else rows)
    headers = ("name", "family", "capabilities")
    table = [
        (spec.name, spec.family, spec.capabilities.describe())
        for spec in entries
    ]
    widths = [
        max(len(headers[col]), *(len(row[col]) for row in table))
        if table else len(headers[col])
        for col in range(3)
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    for row in table:
        lines.append(
            "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        )
    return "\n".join(lines)


__all__ = [
    "FAMILIES",
    "AlgorithmSpec",
    "Capabilities",
    "capability_table",
    "ensure_populated",
    "get",
    "names",
    "register",
    "render_table",
    "specs",
]
