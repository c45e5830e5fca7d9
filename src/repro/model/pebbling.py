"""Red-blue pebbling primitives of the MBSP model.

A schedule is ultimately a sequence of the four transition rules of
Section 3.1 on each processor:

* ``LOAD(p, v)``    — copy ``v`` from slow memory into the cache of ``p``
  (requires a blue pebble on ``v``), cost ``mu(v) * g``;
* ``SAVE(p, v)``    — copy ``v`` from the cache of ``p`` to slow memory
  (requires a red pebble of ``p`` on ``v``), cost ``mu(v) * g``;
* ``COMPUTE(p, v)`` — execute a non-source node ``v`` on ``p`` (requires red
  pebbles of ``p`` on all parents of ``v``), cost ``omega(v)``;
* ``DELETE(p, v)``  — evict ``v`` from the cache of ``p``, cost 0.

This module defines the operation objects and a :class:`PebblingState` that
replays them while enforcing the rules and the per-processor memory bound.
The validator and the cost evaluators are built on top of it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Optional, Set, Tuple

from repro.dag.graph import ComputationalDag, NodeId
from repro.exceptions import InvalidScheduleError


class OpType(enum.Enum):
    """The four transition rules of the MBSP pebbling game."""

    LOAD = "load"
    SAVE = "save"
    COMPUTE = "compute"
    DELETE = "delete"


@dataclass(frozen=True)
class Operation:
    """A single transition rule applied to one node."""

    op_type: OpType
    node: NodeId

    def cost(self, dag: ComputationalDag, g: float) -> float:
        """Cost of the operation under the paper's cost model."""
        if self.op_type is OpType.COMPUTE:
            return dag.omega(self.node)
        if self.op_type in (OpType.LOAD, OpType.SAVE):
            return dag.mu(self.node) * g
        return 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.op_type.name}({self.node})"


def compute_op(node: NodeId) -> Operation:
    """Shorthand constructor for a COMPUTE operation."""
    return Operation(OpType.COMPUTE, node)


def delete_op(node: NodeId) -> Operation:
    """Shorthand constructor for a DELETE operation."""
    return Operation(OpType.DELETE, node)


def save_op(node: NodeId) -> Operation:
    """Shorthand constructor for a SAVE operation."""
    return Operation(OpType.SAVE, node)


def load_op(node: NodeId) -> Operation:
    """Shorthand constructor for a LOAD operation."""
    return Operation(OpType.LOAD, node)


class PebblingState:
    """Current pebbling configuration of a schedule under replay.

    Tracks the red-pebble set (cache contents) of every processor, the used
    cache capacity, and the shared blue-pebble set (slow memory contents).
    The DAG's memory weights and parent lists are read into lookup tables
    once at construction; copies share them, so a replay pays one dict
    lookup per operation instead of a checked :class:`ComputationalDag`
    query.

    Parameters
    ----------
    dag:
        The computational DAG (provides memory weights and parent sets).
    num_processors:
        Number of processors ``P``.
    cache_size:
        Fast memory capacity ``r`` per processor.
    """

    def __init__(self, dag: ComputationalDag, num_processors: int, cache_size: float) -> None:
        self.dag = dag
        self.num_processors = num_processors
        self.cache_size = cache_size
        self.red: List[Set[NodeId]] = [set() for _ in range(num_processors)]
        self.red_usage: List[float] = [0.0 for _ in range(num_processors)]
        self.blue: Set[NodeId] = set(dag.sources())
        self._mu: Dict[NodeId, float] = {v: dag.mu(v) for v in dag}
        self._parents: Dict[NodeId, Tuple[NodeId, ...]] = {
            v: tuple(dag.parents(v)) for v in dag
        }
        self._sinks: List[NodeId] = dag.sinks()

    # ------------------------------------------------------------------
    def _check_proc(self, proc: int) -> None:
        if not 0 <= proc < self.num_processors:
            raise InvalidScheduleError(f"processor index {proc} out of range")

    def has_red(self, proc: int, node: NodeId) -> bool:
        self._check_proc(proc)
        return node in self.red[proc]

    def has_blue(self, node: NodeId) -> bool:
        return node in self.blue

    def cache_used(self, proc: int) -> float:
        self._check_proc(proc)
        return self.red_usage[proc]

    # ------------------------------------------------------------------
    def _add_red(self, proc: int, node: NodeId, rule: str) -> None:
        red = self.red[proc]
        if node in red:
            return
        red.add(node)
        usage = self.red_usage[proc] = self.red_usage[proc] + self._mu[node]
        if usage > self.cache_size + 1e-9:
            raise InvalidScheduleError(
                f"{rule}({proc}, {node!r}): cache of processor {proc} exceeds capacity "
                f"({usage:.6g} > {self.cache_size:.6g})"
            )

    # ------------------------------------------------------------------
    def apply_load(self, proc: int, node: NodeId) -> None:
        """Apply ``LOAD(proc, node)``; requires a blue pebble on ``node``."""
        self._check_proc(proc)
        if node not in self.blue:
            raise InvalidScheduleError(
                f"LOAD({proc}, {node!r}): node has no blue pebble (not in slow memory)"
            )
        self._add_red(proc, node, "LOAD")

    def apply_save(self, proc: int, node: NodeId, blue_target: Optional[Set[NodeId]] = None) -> None:
        """Apply ``SAVE(proc, node)``; requires a red pebble of ``proc``.

        If ``blue_target`` is given, the blue pebble is placed into that set
        instead of the live blue set; this implements the superstep semantics
        where the shared slow memory is only updated at the end of the save
        phase (Appendix A).
        """
        self._check_proc(proc)
        if node not in self.red[proc]:
            raise InvalidScheduleError(
                f"SAVE({proc}, {node!r}): node has no red pebble of processor {proc}"
            )
        (blue_target if blue_target is not None else self.blue).add(node)

    def apply_compute(self, proc: int, node: NodeId) -> None:
        """Apply ``COMPUTE(proc, node)``; requires all parents in cache."""
        self._check_proc(proc)
        parents = self._parents.get(node)
        if parents is None:
            parents = self.dag.parents(node)  # raises GraphError: unknown node
        if not parents:
            raise InvalidScheduleError(
                f"COMPUTE({proc}, {node!r}): source nodes are never computed"
            )
        red = self.red[proc]
        if not red.issuperset(parents):
            missing = [u for u in parents if u not in red]
            raise InvalidScheduleError(
                f"COMPUTE({proc}, {node!r}): parents {missing!r} not in cache of "
                f"processor {proc}"
            )
        self._add_red(proc, node, "COMPUTE")

    def apply_delete(self, proc: int, node: NodeId) -> None:
        """Apply ``DELETE(proc, node)``; requires a red pebble of ``proc``."""
        self._check_proc(proc)
        red = self.red[proc]
        if node not in red:
            raise InvalidScheduleError(
                f"DELETE({proc}, {node!r}): node has no red pebble of processor {proc}"
            )
        red.remove(node)
        self.red_usage[proc] -= self._mu[node]

    def apply(self, proc: int, op: Operation, blue_target: Optional[Set[NodeId]] = None) -> None:
        """Apply an arbitrary operation."""
        if op.op_type is OpType.LOAD:
            self.apply_load(proc, op.node)
        elif op.op_type is OpType.SAVE:
            self.apply_save(proc, op.node, blue_target=blue_target)
        elif op.op_type is OpType.COMPUTE:
            self.apply_compute(proc, op.node)
        elif op.op_type is OpType.DELETE:
            self.apply_delete(proc, op.node)
        else:  # pragma: no cover - enum is exhaustive
            raise InvalidScheduleError(f"unknown operation type {op.op_type!r}")

    # ------------------------------------------------------------------
    def _clone(self) -> "PebblingState":
        new = PebblingState.__new__(PebblingState)
        new.dag = self.dag
        new.num_processors = self.num_processors
        new.cache_size = self.cache_size
        new._mu = self._mu
        new._parents = self._parents
        new._sinks = self._sinks
        return new

    def copy(self) -> "PebblingState":
        """An independent snapshot of this configuration (same DAG object).

        Used by the refinement engine to checkpoint the replay state before
        every superstep so that a local schedule edit only needs a suffix
        replay instead of a full revalidation.
        """
        new = self._clone()
        new.red = [set(pebbles) for pebbles in self.red]
        new.red_usage = list(self.red_usage)
        new.blue = set(self.blue)
        return new

    def fork(self, procs: Iterable[int]) -> "PebblingState":
        """A partial copy for replaying the compute phases of ``procs``.

        The caches of ``procs`` (pebbles and usage) are copied; every other
        cache and the slow memory are *shared* with ``self`` and must not be
        mutated through the fork.  A compute phase reads and writes only its
        own processor's cache, so this is all it needs — at a fraction of the
        cost of :meth:`copy`.
        """
        new = self._clone()
        new.red = list(self.red)
        for proc in procs:
            new.red[proc] = set(self.red[proc])
        new.red_usage = list(self.red_usage)
        new.blue = self.blue
        return new

    def same_configuration(self, other: "PebblingState") -> bool:
        """Whether two states hold exactly the same red and blue pebbles."""
        return (
            self.num_processors == other.num_processors
            and self.blue == other.blue
            and self.red == other.red
        )

    # ------------------------------------------------------------------
    def is_terminal(self) -> bool:
        """Whether all sink nodes carry a blue pebble (terminal configuration)."""
        return all(v in self.blue for v in self._sinks)

    def missing_sinks(self) -> List[NodeId]:
        """Sink nodes that do not yet carry a blue pebble."""
        return [v for v in self._sinks if v not in self.blue]
