"""Unit tests for the pebbling transition rules."""

import pytest

from repro.exceptions import GraphError, InvalidScheduleError
from repro.model.pebbling import (
    Operation,
    OpType,
    PebblingState,
    compute_op,
    delete_op,
    load_op,
    save_op,
)


class TestOperations:
    def test_costs(self, diamond_dag):
        g = 2.0
        assert compute_op("c").cost(diamond_dag, g) == 3
        assert load_op("c").cost(diamond_dag, g) == diamond_dag.mu("c") * g
        assert save_op("c").cost(diamond_dag, g) == diamond_dag.mu("c") * g
        assert delete_op("c").cost(diamond_dag, g) == 0

    def test_shorthand_constructors(self):
        assert compute_op("x").op_type is OpType.COMPUTE
        assert delete_op("x").op_type is OpType.DELETE
        assert save_op("x").op_type is OpType.SAVE
        assert load_op("x").op_type is OpType.LOAD


class TestPebblingState:
    def test_initial_configuration(self, diamond_dag):
        state = PebblingState(diamond_dag, 2, cache_size=10)
        assert state.has_blue("a")          # source in slow memory
        assert not state.has_blue("d")
        assert not state.has_red(0, "a")
        assert state.cache_used(0) == 0

    def test_load_requires_blue(self, diamond_dag):
        state = PebblingState(diamond_dag, 1, 10)
        state.apply_load(0, "a")
        assert state.has_red(0, "a")
        with pytest.raises(InvalidScheduleError):
            state.apply_load(0, "b")  # b has no blue pebble yet

    def test_compute_requires_parents_in_cache(self, diamond_dag):
        state = PebblingState(diamond_dag, 1, 10)
        with pytest.raises(InvalidScheduleError):
            state.apply_compute(0, "b")
        state.apply_load(0, "a")
        state.apply_compute(0, "b")
        assert state.has_red(0, "b")

    def test_source_nodes_cannot_be_computed(self, diamond_dag):
        state = PebblingState(diamond_dag, 1, 10)
        with pytest.raises(InvalidScheduleError):
            state.apply_compute(0, "a")

    def test_save_requires_red(self, diamond_dag):
        state = PebblingState(diamond_dag, 1, 10)
        with pytest.raises(InvalidScheduleError):
            state.apply_save(0, "a")
        state.apply_load(0, "a")
        state.apply_save(0, "a")
        assert state.has_blue("a")

    def test_save_into_deferred_target(self, diamond_dag):
        state = PebblingState(diamond_dag, 1, 10)
        state.apply_load(0, "a")
        state.apply_compute(0, "b")
        deferred = set()
        state.apply_save(0, "b", blue_target=deferred)
        assert not state.has_blue("b")
        state.blue.update(deferred)
        assert state.has_blue("b")

    def test_delete_requires_red(self, diamond_dag):
        state = PebblingState(diamond_dag, 1, 10)
        with pytest.raises(InvalidScheduleError):
            state.apply_delete(0, "a")
        state.apply_load(0, "a")
        state.apply_delete(0, "a")
        assert not state.has_red(0, "a")
        assert state.cache_used(0) == 0

    def test_memory_bound_enforced(self, diamond_dag):
        # cache of size 1 can hold 'a' but computing 'b' exceeds it
        state = PebblingState(diamond_dag, 1, cache_size=1)
        state.apply_load(0, "a")
        with pytest.raises(InvalidScheduleError):
            state.apply_compute(0, "b")

    def test_cache_accounting(self, diamond_dag):
        state = PebblingState(diamond_dag, 1, 10)
        state.apply_load(0, "a")
        state.apply_compute(0, "c")
        assert state.cache_used(0) == diamond_dag.mu("a") + diamond_dag.mu("c")

    def test_processor_isolation(self, diamond_dag):
        state = PebblingState(diamond_dag, 2, 10)
        state.apply_load(0, "a")
        assert not state.has_red(1, "a")
        with pytest.raises(InvalidScheduleError):
            state.apply_compute(1, "b")

    def test_terminal_detection(self, diamond_dag):
        state = PebblingState(diamond_dag, 1, 10)
        assert not state.is_terminal()
        assert state.missing_sinks() == ["d"]
        state.apply_load(0, "a")
        state.apply_compute(0, "b")
        state.apply_compute(0, "c")
        state.apply_compute(0, "d")
        state.apply_save(0, "d")
        assert state.is_terminal()
        assert state.missing_sinks() == []

    def test_apply_dispatch(self, diamond_dag):
        state = PebblingState(diamond_dag, 1, 10)
        state.apply(0, load_op("a"))
        state.apply(0, compute_op("b"))
        state.apply(0, save_op("b"))
        state.apply(0, delete_op("b"))
        assert state.has_blue("b")
        assert not state.has_red(0, "b")

    def test_invalid_processor_index(self, diamond_dag):
        state = PebblingState(diamond_dag, 2, 10)
        with pytest.raises(InvalidScheduleError):
            state.apply_load(5, "a")

    def test_rule_violation_messages(self, diamond_dag):
        state = PebblingState(diamond_dag, 1, cache_size=1)
        with pytest.raises(InvalidScheduleError) as exc:
            state.apply_compute(0, "b")
        assert str(exc.value) == (
            "COMPUTE(0, 'b'): parents ['a'] not in cache of processor 0"
        )
        with pytest.raises(InvalidScheduleError) as exc:
            state.apply_compute(0, "a")
        assert str(exc.value) == "COMPUTE(0, 'a'): source nodes are never computed"
        state.apply_load(0, "a")
        with pytest.raises(InvalidScheduleError) as exc:
            state.apply_compute(0, "c")
        assert str(exc.value) == (
            "COMPUTE(0, 'c'): cache of processor 0 exceeds capacity (3 > 1)"
        )

    def test_unknown_node_still_raises_graph_error(self, diamond_dag):
        state = PebblingState(diamond_dag, 1, 10)
        with pytest.raises(GraphError, match="unknown node"):
            state.apply_compute(0, "zz")

    def test_fork_copies_only_the_named_caches(self, diamond_dag):
        state = PebblingState(diamond_dag, 2, 10)
        state.apply_load(0, "a")
        state.apply_load(1, "a")
        fork = state.fork([0])
        fork.apply_compute(0, "b")
        fork.apply_delete(0, "a")
        assert fork.has_red(0, "b") and not fork.has_red(0, "a")
        # the original is untouched ...
        assert state.has_red(0, "a") and not state.has_red(0, "b")
        assert state.cache_used(0) == diamond_dag.mu("a")
        # ... and the other caches and slow memory are shared, not copied
        assert fork.red[1] is state.red[1]
        assert fork.blue is state.blue

    def test_copies_share_the_weight_tables(self, diamond_dag):
        state = PebblingState(diamond_dag, 1, 10)
        assert state.copy()._mu is state._mu
        assert state.fork([0])._parents is state._parents
