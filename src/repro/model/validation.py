"""Validation of MBSP schedules.

The validator replays a schedule through :class:`~repro.model.pebbling.PebblingState`
and enforces every rule of the model definition (Section 3 and Appendix A):

* every operation's precondition (parents in cache, blue pebble present, ...),
* the per-processor memory bound after every cache insertion,
* the superstep semantics (slow memory is only updated at the end of each
  save phase and queried in the load phase),
* the initial configuration (only sources in slow memory, empty caches) and
  the terminal configuration (all sinks in slow memory).

The rules live in two replay primitives: :func:`replay_compute_phase` (one
processor's compute phase, which depends only on that processor's cache) and
:func:`replay_superstep` (all four phases of one superstep, built on the
former).  The full validator, :func:`replay_final_state` and the refinement
engine's incremental revalidation all replay through them, so there is one
copy of the pebbling rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set

from repro.dag.graph import NodeId
from repro.exceptions import InvalidScheduleError
from repro.model.pebbling import OpType, PebblingState
from repro.model.schedule import MbspSchedule, ProcessorSuperstep, Superstep


@dataclass
class ValidationReport:
    """Summary statistics gathered while replaying a valid schedule."""

    num_supersteps: int = 0
    num_computes: int = 0
    num_loads: int = 0
    num_saves: int = 0
    num_deletes: int = 0
    recomputed_nodes: int = 0
    max_cache_used: float = 0.0
    computed_nodes: Set[NodeId] = field(default_factory=set)
    #: per-node compute event counts (recomputation diagnostics)
    compute_events: Dict[NodeId, int] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, float]:
        return {
            "num_supersteps": self.num_supersteps,
            "num_computes": self.num_computes,
            "num_loads": self.num_loads,
            "num_saves": self.num_saves,
            "num_deletes": self.num_deletes,
            "recomputed_nodes": self.recomputed_nodes,
            "max_cache_used": self.max_cache_used,
        }


def replay_compute_phase(
    state: PebblingState,
    proc: int,
    ps: ProcessorSuperstep,
    superstep_index: int = 0,
    report: Optional[ValidationReport] = None,
) -> None:
    """Replay the compute phase of processor ``proc`` on ``state``.

    The single home of the compute-phase rules: :func:`replay_superstep`
    calls it for every processor, and the refinement engine's edited-cell
    precheck (:mod:`repro.refine.validation`) calls it for the processors a
    move touched.  A compute phase reads and writes only ``proc``'s own cache,
    so it can be replayed on its own.  Raises :class:`InvalidScheduleError`
    on any violation (a :class:`~repro.exceptions.ScheduleError` for a
    non-COMPUTE/DELETE operation); when a ``report`` is given, operation
    counts and peak cache usage are recorded on it.
    """
    ps.validate_phase_types()  # so every op below is a COMPUTE or a DELETE
    compute, apply_compute, apply_delete = OpType.COMPUTE, state.apply_compute, state.apply_delete
    try:
        for op in ps.compute_phase:
            if op.op_type is compute:
                apply_compute(proc, op.node)
            else:
                apply_delete(proc, op.node)
            if report is not None:
                if op.op_type is compute:
                    report.num_computes += 1
                    report.compute_events[op.node] = report.compute_events.get(op.node, 0) + 1
                    report.computed_nodes.add(op.node)
                else:
                    report.num_deletes += 1
                report.max_cache_used = max(report.max_cache_used, state.cache_used(proc))
    except InvalidScheduleError as exc:
        raise InvalidScheduleError(f"superstep {superstep_index}: {exc}") from None


def replay_superstep(
    state: PebblingState,
    step: Superstep,
    superstep_index: int = 0,
    report: Optional[ValidationReport] = None,
) -> None:
    """Replay one superstep on ``state``, enforcing every model rule.

    This is the single replay primitive shared by :func:`validate_schedule`,
    :func:`replay_final_state` and the incremental revalidation of the
    refinement engine (:mod:`repro.refine`): the four phases are applied in
    order (compute, save, delete, load) with the superstep semantics of the
    save phase (blue pebbles become visible only after *all* saves of the
    step).  Raises :class:`InvalidScheduleError` on any violation; when a
    ``report`` is given, operation counts and peak cache usage are recorded
    on it.
    """
    s = superstep_index
    # 1. compute phases (COMPUTE / DELETE only)
    for p, ps in enumerate(step.processor_steps):
        replay_compute_phase(state, p, ps, s, report)
    # 2. save phases: blue pebbles become visible only after all saves
    new_blue: Set[NodeId] = set()
    for p, ps in enumerate(step.processor_steps):
        for v in ps.save_phase:
            try:
                state.apply_save(p, v, blue_target=new_blue)
            except InvalidScheduleError as exc:
                raise InvalidScheduleError(f"superstep {s}: {exc}") from None
            if report is not None:
                report.num_saves += 1
    state.blue.update(new_blue)
    # 3. delete phases
    for p, ps in enumerate(step.processor_steps):
        for v in ps.delete_phase:
            try:
                state.apply_delete(p, v)
            except InvalidScheduleError as exc:
                raise InvalidScheduleError(f"superstep {s}: {exc}") from None
            if report is not None:
                report.num_deletes += 1
    # 4. load phases
    for p, ps in enumerate(step.processor_steps):
        for v in ps.load_phase:
            try:
                state.apply_load(p, v)
            except InvalidScheduleError as exc:
                raise InvalidScheduleError(f"superstep {s}: {exc}") from None
            if report is not None:
                report.num_loads += 1
                report.max_cache_used = max(report.max_cache_used, state.cache_used(p))


def validate_schedule(schedule: MbspSchedule, require_all_computed: bool = True) -> ValidationReport:
    """Replay ``schedule`` and raise :class:`InvalidScheduleError` on any violation.

    Parameters
    ----------
    schedule:
        The MBSP schedule to check.
    require_all_computed:
        When true (default), additionally require that every non-source node
        is computed at least once.  The bare model only requires the sinks to
        end up in slow memory, but all schedules produced by this library
        compute every node, and requiring it catches converter bugs early.

    Returns
    -------
    ValidationReport
        Operation counts and peak cache usage of the (valid) schedule.
    """
    instance = schedule.instance
    dag = instance.dag
    state = PebblingState(dag, instance.num_processors, instance.cache_size)
    report = ValidationReport(num_supersteps=schedule.num_supersteps)

    for s, step in enumerate(schedule.supersteps):
        if step.num_processors != instance.num_processors:
            raise InvalidScheduleError(
                f"superstep {s} has {step.num_processors} processor entries, "
                f"expected {instance.num_processors}"
            )
        replay_superstep(state, step, s, report=report)

    missing = state.missing_sinks()
    if missing:
        raise InvalidScheduleError(
            f"terminal configuration violated: sink nodes {missing!r} never "
            f"saved to slow memory"
        )
    if require_all_computed:
        not_computed = [
            v for v in dag.nodes if not dag.is_source(v) and v not in report.computed_nodes
        ]
        if not_computed:
            raise InvalidScheduleError(
                f"nodes never computed anywhere in the schedule: {not_computed!r}"
            )
    report.recomputed_nodes = sum(1 for c in report.compute_events.values() if c > 1)
    return report


def replay_final_state(schedule: MbspSchedule) -> PebblingState:
    """Replay a schedule (assumed valid) and return the final pebbling state.

    Used by the divide-and-conquer scheduler to find which values are left in
    each processor's cache at the end of a sub-schedule (they must be evicted
    before the next sub-problem starts so the memory bound keeps holding).
    """
    instance = schedule.instance
    state = PebblingState(instance.dag, instance.num_processors, instance.cache_size)
    for s, step in enumerate(schedule.supersteps):
        replay_superstep(state, step, s)
    return state


def is_valid_schedule(schedule: MbspSchedule, require_all_computed: bool = True) -> bool:
    """Boolean convenience wrapper around :func:`validate_schedule`."""
    try:
        validate_schedule(schedule, require_all_computed=require_all_computed)
        return True
    except InvalidScheduleError:
        return False
