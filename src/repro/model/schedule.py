"""MBSP schedule representation.

A schedule is a sequence of *supersteps*.  On every processor a superstep
consists of four sub-phases executed in order (Section 3.2):

1. a *compute phase* — an ordered mix of COMPUTE and DELETE operations,
2. a *save phase* — SAVE operations (writing values to slow memory),
3. a *delete phase* — DELETE operations (cache evictions),
4. a *load phase* — LOAD operations (reading values from slow memory).

The shared slow memory is only updated at the end of the save phase, so a
value saved by one processor in superstep ``s`` can be loaded by any
processor in the load phase of superstep ``s`` or later.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.dag.graph import ComputationalDag, NodeId
from repro.exceptions import ScheduleError
from repro.model.instance import MbspInstance
from repro.model.pebbling import Operation, OpType, compute_op, delete_op

#: The operation types a compute phase may hold.
_COMPUTE_PHASE_TYPES = (OpType.COMPUTE, OpType.DELETE)


@dataclass
class ProcessorSuperstep:
    """The four sub-phases of one superstep on one processor.

    Attributes
    ----------
    compute_phase:
        Ordered COMPUTE / DELETE operations.
    save_phase:
        Nodes saved to slow memory (order is irrelevant for validity).
    delete_phase:
        Nodes evicted from cache after the save phase.
    load_phase:
        Nodes loaded from slow memory.
    """

    compute_phase: List[Operation] = field(default_factory=list)
    save_phase: List[NodeId] = field(default_factory=list)
    delete_phase: List[NodeId] = field(default_factory=list)
    load_phase: List[NodeId] = field(default_factory=list)

    # ------------------------------------------------------------------
    def computed_nodes(self) -> List[NodeId]:
        """Nodes computed in this superstep, in order."""
        return [op.node for op in self.compute_phase if op.op_type is OpType.COMPUTE]

    def is_empty(self) -> bool:
        return not (
            self.compute_phase or self.save_phase or self.delete_phase or self.load_phase
        )

    def compute_cost(self, dag: ComputationalDag) -> float:
        """Total compute weight executed in the compute phase."""
        return sum(dag.omega(v) for v in self.computed_nodes())

    def save_cost(self, dag: ComputationalDag, g: float) -> float:
        """Total I/O cost of the save phase."""
        return g * sum(dag.mu(v) for v in self.save_phase)

    def load_cost(self, dag: ComputationalDag, g: float) -> float:
        """Total I/O cost of the load phase."""
        return g * sum(dag.mu(v) for v in self.load_phase)

    def io_cost(self, dag: ComputationalDag, g: float) -> float:
        return self.save_cost(dag, g) + self.load_cost(dag, g)

    def validate_phase_types(self) -> None:
        """Check that the compute phase only contains COMPUTE/DELETE ops."""
        for op in self.compute_phase:
            if op.op_type not in _COMPUTE_PHASE_TYPES:
                raise ScheduleError(
                    f"compute phase may only contain COMPUTE/DELETE operations, "
                    f"found {op!r}"
                )

    def copy(self) -> "ProcessorSuperstep":
        return ProcessorSuperstep(
            compute_phase=list(self.compute_phase),
            save_phase=list(self.save_phase),
            delete_phase=list(self.delete_phase),
            load_phase=list(self.load_phase),
        )


class Superstep:
    """One superstep of an MBSP schedule: a per-processor tuple of phases."""

    def __init__(self, num_processors: int) -> None:
        if num_processors < 1:
            raise ScheduleError("a superstep needs at least one processor")
        self.processor_steps: List[ProcessorSuperstep] = [
            ProcessorSuperstep() for _ in range(num_processors)
        ]

    @property
    def num_processors(self) -> int:
        return len(self.processor_steps)

    def __getitem__(self, proc: int) -> ProcessorSuperstep:
        return self.processor_steps[proc]

    def __iter__(self) -> Iterator[ProcessorSuperstep]:
        return iter(self.processor_steps)

    def is_empty(self) -> bool:
        return all(ps.is_empty() for ps in self.processor_steps)

    def computed_nodes(self) -> Set[NodeId]:
        out: Set[NodeId] = set()
        for ps in self.processor_steps:
            out.update(ps.computed_nodes())
        return out

    def copy(self) -> "Superstep":
        step = Superstep(self.num_processors)
        step.processor_steps = [ps.copy() for ps in self.processor_steps]
        return step


class MbspSchedule:
    """A full MBSP schedule: an ordered sequence of supersteps for an instance."""

    def __init__(self, instance: MbspInstance, supersteps: Optional[Sequence[Superstep]] = None) -> None:
        self.instance = instance
        self.supersteps: List[Superstep] = list(supersteps or [])
        for step in self.supersteps:
            self._check_superstep(step)

    # ------------------------------------------------------------------
    def _check_superstep(self, step: Superstep) -> None:
        if step.num_processors != self.instance.num_processors:
            raise ScheduleError(
                f"superstep has {step.num_processors} processors, instance has "
                f"{self.instance.num_processors}"
            )

    def new_superstep(self) -> Superstep:
        """Append and return a fresh empty superstep."""
        step = Superstep(self.instance.num_processors)
        self.supersteps.append(step)
        return step

    def append(self, step: Superstep) -> None:
        self._check_superstep(step)
        self.supersteps.append(step)

    def extend(self, steps: Iterable[Superstep]) -> None:
        for step in steps:
            self.append(step)

    # ------------------------------------------------------------------
    @property
    def num_supersteps(self) -> int:
        return len(self.supersteps)

    @property
    def dag(self) -> ComputationalDag:
        return self.instance.dag

    def __iter__(self) -> Iterator[Superstep]:
        return iter(self.supersteps)

    def __len__(self) -> int:
        return len(self.supersteps)

    def computed_nodes(self) -> Set[NodeId]:
        """All nodes computed at least once across the schedule."""
        out: Set[NodeId] = set()
        for step in self.supersteps:
            out.update(step.computed_nodes())
        return out

    def compute_assignment(self) -> Dict[NodeId, List[Tuple[int, int]]]:
        """Map node -> list of ``(superstep index, processor)`` compute events."""
        out: Dict[NodeId, List[Tuple[int, int]]] = {}
        for s, step in enumerate(self.supersteps):
            for p, ps in enumerate(step.processor_steps):
                for v in ps.computed_nodes():
                    out.setdefault(v, []).append((s, p))
        return out

    def recomputation_count(self) -> int:
        """Number of extra compute events beyond one per computed node."""
        assignment = self.compute_assignment()
        return sum(len(events) - 1 for events in assignment.values())

    def total_io_volume(self) -> float:
        """Total memory weight moved between fast and slow memory."""
        dag = self.dag
        total = 0.0
        for step in self.supersteps:
            for ps in step.processor_steps:
                total += sum(dag.mu(v) for v in ps.save_phase)
                total += sum(dag.mu(v) for v in ps.load_phase)
        return total

    def operation_counts(self) -> Dict[str, int]:
        """Counts of compute/save/load/delete operations (diagnostics)."""
        counts = {"compute": 0, "save": 0, "load": 0, "delete": 0}
        for step in self.supersteps:
            for ps in step.processor_steps:
                for op in ps.compute_phase:
                    if op.op_type is OpType.COMPUTE:
                        counts["compute"] += 1
                    else:
                        counts["delete"] += 1
                counts["save"] += len(ps.save_phase)
                counts["delete"] += len(ps.delete_phase)
                counts["load"] += len(ps.load_phase)
        return counts

    def drop_empty_supersteps(self) -> "MbspSchedule":
        """Return a copy without completely empty supersteps."""
        kept = [s.copy() for s in self.supersteps if not s.is_empty()]
        return MbspSchedule(self.instance, kept)

    def copy(self) -> "MbspSchedule":
        return MbspSchedule(self.instance, [s.copy() for s in self.supersteps])

    # ------------------------------------------------------------------
    def describe(self, max_supersteps: Optional[int] = None) -> str:
        """Human-readable multi-line description (used by the examples)."""
        lines = [
            f"MBSP schedule for {self.instance.name!r}: "
            f"{self.num_supersteps} supersteps, P={self.instance.num_processors}"
        ]
        steps = self.supersteps if max_supersteps is None else self.supersteps[:max_supersteps]
        for s, step in enumerate(steps):
            lines.append(f"  superstep {s}:")
            for p, ps in enumerate(step.processor_steps):
                if ps.is_empty():
                    continue
                comp = ",".join(str(v) for v in ps.computed_nodes())
                save = ",".join(str(v) for v in ps.save_phase)
                load = ",".join(str(v) for v in ps.load_phase)
                lines.append(
                    f"    p{p}: compute[{comp}] save[{save}] load[{load}]"
                )
        if max_supersteps is not None and self.num_supersteps > max_supersteps:
            lines.append(f"  ... ({self.num_supersteps - max_supersteps} more supersteps)")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MbspSchedule(instance={self.instance.name!r}, "
            f"supersteps={self.num_supersteps})"
        )
