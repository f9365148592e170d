"""Shared simulation sessions across the planning stack.

The acceptance demonstration for the session refactor: planning the same
network twice against one warm :class:`SimulationContext` must (a) produce
exactly the same plan at exactly the same cost — the cache may never change
an answer — and (b) time strictly fewer kernels the second time, with a
non-zero cache hit rate.
"""

import pytest

from repro import build_network, plan_optimal, plan_with_heuristic
from repro.gpusim import SimulationContext


@pytest.fixture(scope="module")
def alexnet():
    return build_network("alexnet")


def _steps(plan):
    return [
        (n.name, str(n.layout), n.implementation, n.coarsening)
        for n in plan.graph
    ]


class TestColdVsWarm:
    def test_optimal_plan_invariant_under_caching(self, alexnet, device):
        ctx = SimulationContext(device)
        cold = plan_optimal(device, alexnet, context=ctx)
        timed_cold = ctx.stats.kernels_timed
        assert timed_cold > 0

        warm = plan_optimal(device, alexnet, context=ctx)
        timed_warm = ctx.stats.kernels_timed - timed_cold
        assert timed_warm < timed_cold
        assert timed_warm == 0  # every kernel shape already cached
        assert ctx.stats.hits > 0
        assert ctx.stats.hit_rate > 0.0
        assert _steps(warm) == _steps(cold)
        assert warm.total_ms == pytest.approx(cold.total_ms)

    def test_heuristic_plan_invariant_under_caching(self, alexnet, device):
        ctx = SimulationContext(device)
        cold = plan_with_heuristic(device, alexnet, context=ctx)
        timed_cold = ctx.stats.kernels_timed

        warm = plan_with_heuristic(device, alexnet, context=ctx)
        assert ctx.stats.kernels_timed - timed_cold < timed_cold
        assert _steps(warm) == _steps(cold)
        assert warm.total_ms == pytest.approx(cold.total_ms)

    def test_fresh_contexts_agree_with_each_other(self, alexnet, device):
        """Two independent sessions must reach the same plan — the cache is
        an accelerator, never an input."""
        a = SimulationContext(device)
        b = SimulationContext(device)
        plan_a = plan_optimal(device, alexnet, context=a)
        plan_b = plan_optimal(device, alexnet, context=b)
        assert _steps(plan_a) == _steps(plan_b)
        assert plan_a.total_ms == pytest.approx(plan_b.total_ms)


class TestPersistedSessions:
    def test_disk_cache_warms_a_new_process_stand_in(
        self, alexnet, device, tmp_path
    ):
        path = tmp_path / "alexnet-cache.json"
        first = SimulationContext(device, cache_path=path)
        cold = plan_optimal(device, alexnet, context=first)
        first.save_cache()

        second = SimulationContext(device, cache_path=path)
        assert second.stats.loaded_from_disk == first.cache_size
        warm = plan_optimal(device, alexnet, context=second)
        assert second.stats.kernels_timed == 0
        assert _steps(warm) == _steps(cold)
        assert warm.total_ms == pytest.approx(cold.total_ms)
