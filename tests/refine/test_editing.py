"""Unit tests for the incremental cost state and the undoable editor."""

import pytest

from repro.core.two_stage import baseline_schedule
from repro.dag.analysis import assign_random_memory_weights
from repro.dag.generators import spmv
from repro.model.cost import synchronous_cost
from repro.model.instance import make_instance
from repro.model.pebbling import compute_op
from repro.model.schedule import MbspSchedule
from repro.model.serialization import schedule_to_dict
from repro.refine.editing import IncrementalCost, ScheduleEditor


@pytest.fixture
def schedule():
    dag = spmv(4, seed=1)
    assign_random_memory_weights(dag, seed=7)
    instance = make_instance(dag, num_processors=2, cache_factor=3.0, g=1.0, L=10.0)
    return baseline_schedule(instance, synchronous=True, seed=0).mbsp_schedule


def assert_cost_consistent(editor):
    """The incremental total always matches the exact evaluator."""
    assert editor.cost.total == pytest.approx(
        synchronous_cost(editor.schedule), abs=1e-9
    )


class TestIncrementalCost:
    def test_initial_total_matches_schedule_cost(self, schedule):
        assert IncrementalCost(schedule).total == pytest.approx(
            synchronous_cost(schedule)
        )

    def test_empty_steps_do_not_contribute(self, schedule):
        cost = IncrementalCost(schedule)
        before = cost.total
        cost.insert_step(0)
        assert cost.total == pytest.approx(before)
        cost.remove_step(0)
        assert cost.total == pytest.approx(before)

    def test_exact_on_integer_weights_only(self, schedule):
        assert IncrementalCost(schedule).exact
        instance = schedule.instance
        halved_g = make_instance(
            instance.dag, num_processors=instance.num_processors,
            cache_factor=3.0, g=0.5, L=instance.L,
        )
        steps = [step.copy() for step in schedule.supersteps]
        assert not IncrementalCost(MbspSchedule(halved_g, steps)).exact

    def test_peek_prices_a_footprint_without_mutating(self, schedule):
        cost = IncrementalCost(schedule)
        rows = (
            [r[:] for r in cost.comp], [r[:] for r in cost.save],
            [r[:] for r in cost.load], [r[:] for r in cost.ops],
            cost.contrib[:], cost.total,
        )
        assert cost.peek({}) == 0.0
        s = max(range(len(cost.comp)), key=lambda t: max(cost.comp[t]))
        p = cost.comp[s].index(max(cost.comp[s]))
        # one unit of work less on the busiest cell of the busiest step
        assert cost.peek({(s, p): (-1.0, 0.0, 0.0, 0)}) <= 0.0
        # emptying a step prices it at zero, exactly as removing it
        emptied = {
            (s, q): (-cost.comp[s][q], -cost.save[s][q], -cost.load[s][q], -cost.ops[s][q])
            for q in range(cost.num_processors)
        }
        assert cost.peek(emptied) == -cost.contrib[s]
        after = (
            cost.comp, cost.save, cost.load, cost.ops, cost.contrib, cost.total,
        )
        assert after == rows


class TestScheduleEditor:
    def test_primitives_keep_cost_in_sync(self, schedule):
        editor = ScheduleEditor(schedule)
        # find a step/processor with a compute op and remove + reinsert it
        for s, step in enumerate(schedule.supersteps):
            for p, ps in enumerate(step.processor_steps):
                if ps.compute_phase:
                    editor.begin()
                    op = editor.pop_compute_op(s, p, 0)
                    assert_cost_consistent(editor)
                    editor.insert_compute_op(s, p, 0, op)
                    assert_cost_consistent(editor)
                    return
        pytest.fail("no compute op found")

    def test_rollback_restores_schedule_and_cost_exactly(self, schedule):
        editor = ScheduleEditor(schedule)
        reference = schedule_to_dict(schedule)
        total = editor.cost.total

        editor.begin()
        # a messy compound edit across several primitives
        for s, step in enumerate(schedule.supersteps):
            for p, ps in enumerate(step.processor_steps):
                if ps.load_phase:
                    editor.remove_phase_node(s, p, "load", 0)
                if ps.compute_phase:
                    editor.pop_compute_op(s, p, 0)
        editor.insert_empty_step(1)
        editor.insert_compute_op(1, 0, 0, compute_op(next(iter(schedule.dag.nodes))))
        assert schedule_to_dict(schedule) != reference
        editor.rollback()

        assert schedule_to_dict(schedule) == reference
        assert editor.cost.total == pytest.approx(total, abs=1e-9)
        assert_cost_consistent(editor)

    def test_phase_edits_touch_affected_range(self, schedule):
        editor = ScheduleEditor(schedule)
        editor.begin()
        assert editor.first_affected is None
        s = schedule.num_supersteps - 1
        editor.insert_phase_node(s, 0, "save", 0, next(iter(schedule.dag.nodes)))
        assert editor.first_affected == s
        assert editor.last_affected == s
        assert not editor.structural
        editor.insert_empty_step(0)
        assert editor.first_affected == 0
        assert editor.structural
        editor.rollback()

    def test_edited_cells_follow_compute_edits_and_structure(self, schedule):
        editor = ScheduleEditor(schedule)
        editor.begin()
        assert editor.edited_cells == set()
        s = schedule.num_supersteps - 1
        editor.insert_phase_node(s, 0, "save", 0, next(iter(schedule.dag.nodes)))
        assert editor.edited_cells == set()  # not a compute-phase edit
        editor.insert_compute_op(s, 1, 0, compute_op(next(iter(schedule.dag.nodes))))
        assert editor.edited_cells == {(s, 1)}
        editor.insert_empty_step(0)  # shifts the recorded cell
        assert editor.edited_cells == {(s + 1, 1)}
        editor.remove_empty_step(0)
        assert editor.edited_cells == {(s, 1)}
        editor.rollback()
        editor.begin()
        assert editor.edited_cells == set()

    def test_remove_empty_step_rejects_nonempty(self, schedule):
        editor = ScheduleEditor(schedule)
        editor.begin()
        nonempty = next(
            s for s, step in enumerate(schedule.supersteps) if not step.is_empty()
        )
        with pytest.raises(ValueError):
            editor.remove_empty_step(nonempty)

    def test_unknown_phase_rejected(self, schedule):
        editor = ScheduleEditor(schedule)
        with pytest.raises(ValueError):
            editor.insert_phase_node(0, 0, "compute", 0, "x")
