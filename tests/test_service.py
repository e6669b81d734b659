"""Unit tests of the service protocol and the batching scheduler.

The HTTP layer has its own integration suite (``test_service_http.py``);
here the protocol validator and the scheduler are exercised directly, so
every structured error code and every scheduling mechanism (coalescing,
batching, backpressure, deadlines) is pinned without sockets in the loop.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.queueing import UnreliableQueueModel
from repro.scenarios import ScenarioModel
from repro.service import (
    BadJSONError,
    BadRequestError,
    BatchScheduler,
    DeadlineExceededError,
    QueueFullError,
    ServiceClosedError,
    UnknownPresetError,
    UnknownSolverError,
    UnstableModelError,
    parse_body,
    parse_solve_request,
)
from repro.solvers import SolutionCache, solve_many, solve_many_async
from repro.solvers import facade as facade_module


def _request(**overrides) -> dict:
    """A minimal valid steady-state payload, with overrides merged in."""
    payload = {"model": {"servers": 4, "arrival_rate": 2.0}}
    payload.update(overrides)
    return payload


class TestParseBody:
    def test_valid_object(self):
        assert parse_body(b'{"a": 1}') == {"a": 1}

    def test_malformed_json_is_bad_json(self):
        with pytest.raises(BadJSONError, match="not valid JSON"):
            parse_body(b"{nope")

    def test_non_object_is_bad_json(self):
        with pytest.raises(BadJSONError, match="must be a JSON object"):
            parse_body(b"[1, 2]")

    def test_non_utf8_is_bad_json(self):
        with pytest.raises(BadJSONError):
            parse_body(b"\xff\xfe")


class TestParseSolveRequest:
    def test_minimal_steady_state(self):
        request = parse_solve_request(_request())
        assert request.query == "steady-state"
        assert isinstance(request.model, UnreliableQueueModel)
        assert request.model.num_servers == 4
        assert request.policy.order == ("spectral", "geometric", "ctmc", "simulate")
        assert request.deadline is None

    def test_model_defaults_match_the_paper_fit(self):
        request = parse_solve_request(_request())
        assert request.model.operative.mean == pytest.approx(34.62)
        assert request.model.inoperative.mean == pytest.approx(0.04)

    def test_scenario_preset(self):
        request = parse_solve_request({"query": "scenario", "preset": "single-repairman"})
        assert isinstance(request.model, ScenarioModel)
        assert request.policy.order == ("ctmc", "simulate")

    def test_scenario_overrides(self):
        request = parse_solve_request(
            {
                "query": "scenario",
                "preset": "single-repairman",
                "arrival_rate": 0.5,
                "repair_capacity": 2,
            }
        )
        assert request.model.arrival_rate == 0.5
        assert request.model.effective_repair_capacity == 2

    def test_transient_times_fold_into_the_policy(self):
        request = parse_solve_request(_request(query="transient", times=[1, 5.0, 25]))
        assert request.policy.order == ("transient",)
        assert request.policy.transient_times == (1.0, 5.0, 25.0)

    def test_transient_preset(self):
        request = parse_solve_request(
            {"query": "transient", "preset": "single-repairman", "times": [2.0]}
        )
        assert isinstance(request.model, ScenarioModel)

    def test_solvers_override_and_deadline(self):
        request = parse_solve_request(_request(solvers=["ctmc"], deadline=1.5))
        assert request.policy.order == ("ctmc",)
        assert request.deadline == 1.5

    def test_solvers_accepts_a_single_name(self):
        request = parse_solve_request(_request(solvers="spectral"))
        assert request.policy.order == ("spectral",)

    def test_simulate_options(self):
        request = parse_solve_request(
            _request(simulate={"horizon": 1000.0, "seed": 7, "num_batches": 5})
        )
        assert request.policy.simulate_horizon == 1000.0
        assert request.policy.simulate_seed == 7
        assert request.policy.simulate_num_batches == 5

    # -- every structured rejection, by code -------------------------------

    def test_unknown_top_level_field(self):
        with pytest.raises(BadRequestError, match="unknown request field"):
            parse_solve_request(_request(modell={}))

    def test_unknown_query_kind(self):
        with pytest.raises(BadRequestError, match="unknown query kind"):
            parse_solve_request(_request(query="sideways"))

    def test_missing_model(self):
        with pytest.raises(BadRequestError, match="require a 'model' object"):
            parse_solve_request({})

    def test_missing_required_model_field(self):
        with pytest.raises(BadRequestError, match="'servers' is required"):
            parse_solve_request({"model": {"arrival_rate": 1.0}})

    def test_ill_typed_model_field(self):
        with pytest.raises(BadRequestError, match="must be an integer"):
            parse_solve_request({"model": {"servers": "ten", "arrival_rate": 1.0}})

    def test_boolean_is_not_a_number(self):
        with pytest.raises(BadRequestError, match="must be a number"):
            parse_solve_request({"model": {"servers": 2, "arrival_rate": True}})

    def test_operative_scv_below_one(self):
        with pytest.raises(BadRequestError, match="operative_scv"):
            parse_solve_request(
                {"model": {"servers": 2, "arrival_rate": 1.0, "operative_scv": 0.5}}
            )

    def test_unknown_solver(self):
        with pytest.raises(UnknownSolverError, match="registered solvers"):
            parse_solve_request(_request(solvers=["zap"]))

    def test_unknown_preset(self):
        with pytest.raises(UnknownPresetError, match="available"):
            parse_solve_request({"query": "scenario", "preset": "nope"})

    def test_scenario_requires_a_preset(self):
        with pytest.raises(BadRequestError, match="require a 'preset'"):
            parse_solve_request({"query": "scenario"})

    def test_preset_rejected_for_steady_state(self):
        with pytest.raises(BadRequestError, match="steady-state queries take a 'model'"):
            parse_solve_request({"preset": "single-repairman"})

    def test_preset_and_model_together_rejected(self):
        """Nothing is silently dropped: the ambiguous pair is an error."""
        with pytest.raises(BadRequestError, match="mutually exclusive"):
            parse_solve_request(
                {
                    "query": "transient",
                    "preset": "single-repairman",
                    "model": {"servers": 2, "arrival_rate": 1.0},
                    "times": [1.0],
                }
            )

    def test_times_rejected_outside_transient(self):
        with pytest.raises(BadRequestError, match="transient queries only"):
            parse_solve_request(_request(times=[1.0]))

    def test_negative_deadline(self):
        with pytest.raises(BadRequestError, match="deadline"):
            parse_solve_request(_request(deadline=-1.0))

    def test_unstable_model_is_structurally_rejected(self):
        with pytest.raises(UnstableModelError, match="unstable"):
            parse_solve_request({"model": {"servers": 2, "arrival_rate": 50.0}})


def _model(arrival_rate: float = 2.0) -> dict:
    return parse_solve_request(_request(model={"servers": 4, "arrival_rate": arrival_rate}))


class TestBatchScheduler:
    """Scheduler mechanics, each awaited on a private event loop."""

    def _scheduler(self, **options) -> BatchScheduler:
        options.setdefault("batch_window", 0.005)
        return BatchScheduler(**options)

    def test_validates_construction(self):
        with pytest.raises(ValueError, match="batch_window"):
            BatchScheduler(batch_window=-1.0)
        with pytest.raises(ValueError, match="max_queue"):
            BatchScheduler(max_queue=0)
        with pytest.raises(ValueError, match="max_batch"):
            BatchScheduler(max_batch=0)

    def test_solves_and_caches(self):
        scheduler = self._scheduler()
        request = _model()

        async def run():
            first = await scheduler.submit(request.model, request.policy)
            second = await scheduler.submit(request.model, request.policy)
            await scheduler.close()
            return first, second

        first, second = asyncio.run(run())
        assert first.outcome.solver == "spectral"
        assert not first.cached and not first.coalesced
        assert second.cached and not second.coalesced
        stats = scheduler.cache.stats()
        assert stats["solves"] == 1
        # Exact accounting: the scheduler's pre-scheduling probe must not
        # double-count the miss that solve_many registers for the same key.
        assert stats["misses"] == 1
        assert stats["hits"] == 1
        assert stats["hit_rate"] == 0.5

    def test_identical_concurrent_requests_are_single_flight(self):
        scheduler = self._scheduler(batch_window=0.05)
        request = _model()

        async def run():
            results = await asyncio.gather(
                *(scheduler.submit(request.model, request.policy) for _ in range(25))
            )
            await scheduler.close()
            return results

        results = asyncio.run(run())
        assert all(result.outcome.solver == "spectral" for result in results)
        stats = scheduler.stats()
        assert stats["scheduled_total"] == 1
        assert stats["coalesced_total"] == 24
        assert stats["cache"]["solves"] == 1
        assert sum(result.coalesced for result in results) == 24

    def test_distinct_requests_batch_into_one_solve_many_call(self):
        scheduler = self._scheduler(batch_window=0.1)
        requests = [_model(1.0 + 0.25 * i) for i in range(5)]

        async def run():
            results = await asyncio.gather(
                *(scheduler.submit(item.model, item.policy) for item in requests)
            )
            await scheduler.close()
            return results

        results = asyncio.run(run())
        assert len(results) == 5
        stats = scheduler.stats()
        assert stats["batches_total"] == 1
        assert stats["largest_batch"] == 5
        assert stats["cache"]["solves"] == 5

    def test_full_buffer_flushes_before_the_window(self):
        scheduler = self._scheduler(batch_window=30.0, max_batch=2)
        requests = [_model(1.0 + 0.25 * i) for i in range(4)]

        async def run():
            results = await asyncio.wait_for(
                asyncio.gather(*(scheduler.submit(r.model, r.policy) for r in requests)),
                timeout=20.0,
            )
            await scheduler.close()
            return results

        # With a 30s window, only the full-buffer flush can answer in time.
        results = asyncio.run(run())
        assert len(results) == 4
        assert scheduler.stats()["batches_total"] == 2

    def test_queue_full_rejection_carries_retry_after(self):
        scheduler = self._scheduler(batch_window=5.0, max_queue=2)
        requests = [_model(1.0 + 0.25 * i) for i in range(3)]

        async def run():
            waiters = [
                asyncio.ensure_future(scheduler.submit(r.model, r.policy))
                for r in requests[:2]
            ]
            await asyncio.sleep(0)  # let both enqueue
            with pytest.raises(QueueFullError) as excinfo:
                await scheduler.submit(requests[2].model, requests[2].policy)
            for waiter in waiters:
                waiter.cancel()
            await asyncio.gather(*waiters, return_exceptions=True)
            await scheduler.close()
            return excinfo.value

        error = asyncio.run(run())
        assert error.retry_after is not None and error.retry_after > 0
        assert scheduler.stats()["rejected_total"] == 1

    def test_coalesced_joins_are_never_rejected(self):
        scheduler = self._scheduler(batch_window=5.0, max_queue=1)
        request = _model()

        async def run():
            first = asyncio.ensure_future(scheduler.submit(request.model, request.policy))
            await asyncio.sleep(0)
            # The queue is at capacity, but an identical request coalesces.
            second = asyncio.ensure_future(scheduler.submit(request.model, request.policy))
            await asyncio.sleep(0)
            first.cancel()
            second.cancel()
            await asyncio.gather(first, second, return_exceptions=True)
            await scheduler.close()

        asyncio.run(run())
        stats = scheduler.stats()
        assert stats["rejected_total"] == 0
        assert stats["coalesced_total"] == 1

    def test_deadline_exceeded(self):
        scheduler = self._scheduler(batch_window=0.0)
        request = parse_solve_request(
            _request(
                solvers=["simulate"],
                simulate={"horizon": 30_000.0},
                deadline=0.01,
            )
        )

        async def run():
            with pytest.raises(DeadlineExceededError, match="deadline"):
                await scheduler.submit(request.model, request.policy, deadline=request.deadline)
            # The computation was not cancelled: it finishes and lands in the
            # cache for the retry.
            await scheduler.close()
            retry = await asyncio.wait_for(
                scheduler_reopened.submit(request.model, request.policy), timeout=60.0
            )
            return retry

        # close() drains the in-flight batch, so a second scheduler sharing
        # the cache sees the completed solution instantly.
        scheduler_reopened = BatchScheduler(batch_window=0.0, cache=scheduler.cache)
        retry = asyncio.run(run())
        assert retry.cached
        assert scheduler.stats()["deadline_exceeded_total"] == 1

    def test_closed_scheduler_rejects_submissions(self):
        scheduler = self._scheduler()
        request = _model()

        async def run():
            await scheduler.close()
            with pytest.raises(ServiceClosedError):
                await scheduler.submit(request.model, request.policy)

        asyncio.run(run())

    def test_close_fails_unflushed_waiters(self):
        scheduler = self._scheduler(batch_window=60.0)
        request = _model()

        async def run():
            waiter = asyncio.ensure_future(scheduler.submit(request.model, request.policy))
            await asyncio.sleep(0)
            await scheduler.close()
            with pytest.raises(ServiceClosedError):
                await waiter

        asyncio.run(run())


class TestSolveManyAsync:
    def test_matches_the_synchronous_facade(self, small_model):
        cache = SolutionCache()

        async def run():
            return await solve_many_async([small_model, small_model], "spectral", cache=cache)

        outcomes = asyncio.run(run())
        reference = solve_many([small_model], "spectral", cache=False)
        assert outcomes[0] == outcomes[1]
        assert outcomes[0].metrics == reference[0].metrics
        assert cache.stats()["solves"] == 1

    def test_requires_a_running_loop(self, small_model):
        with pytest.raises(RuntimeError):
            # Not awaited from a loop: the coroutine refuses at creation time.
            coroutine = solve_many_async([small_model])
            try:
                coroutine.send(None)
            finally:
                coroutine.close()


class _InterruptedExecutor:
    """A ProcessPoolExecutor stand-in whose map() hits a KeyboardInterrupt."""

    instances: list["_InterruptedExecutor"] = []

    def __init__(self, max_workers: int) -> None:
        self.shutdown_calls: list[dict] = []
        type(self).instances.append(self)

    def submit(self, fn, *args):
        class _Probe:
            @staticmethod
            def result():
                return True

        return _Probe()

    def map(self, fn, tasks, chunksize=1):
        raise KeyboardInterrupt

    def shutdown(self, wait: bool = True, cancel_futures: bool = False) -> None:
        self.shutdown_calls.append({"wait": wait, "cancel_futures": cancel_futures})


class TestInterruptShutsPoolDownPromptly:
    def test_keyboard_interrupt_cancels_queued_futures(self, small_model, monkeypatch):
        """Ctrl-C during a parallel batch must not wait for in-flight items."""
        _InterruptedExecutor.instances.clear()
        monkeypatch.setattr(facade_module, "ProcessPoolExecutor", _InterruptedExecutor)
        models = [
            small_model.with_arrival_rate(0.5 + 0.1 * index) for index in range(4)
        ]
        with pytest.raises(KeyboardInterrupt):
            solve_many(models, "spectral", parallel=True, max_workers=2, cache=False)
        (executor,) = _InterruptedExecutor.instances
        assert executor.shutdown_calls == [{"wait": False, "cancel_futures": True}]
