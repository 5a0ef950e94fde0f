"""The deterministic fault-injection harness (``REPRO_FAULTS``)."""

import json
import time

import pytest

from repro.api import OptimizationRequest, OptimizerSession
from repro.api.resilience import reset_resilience
from repro.ir import parse_scop
from repro.testing.faults import (FaultClause, FaultInjected, FaultPlan,
                                  FaultTimeout, MalformedReply,
                                  active_plan, install_plan, maybe_fault,
                                  register_fault_backends)

KERNEL = """
scop axpyish(N) {
  array X[N] output;
  array Y[N];
  for (i = 0; i < N; i++)
    X[i] = X[i] + 2.0 * Y[i];
}
"""


@pytest.fixture(autouse=True)
def _clean_plan():
    install_plan(None)
    reset_resilience()
    yield
    install_plan(None)
    reset_resilience()


class TestSpecParsing:
    def test_defaults_to_once(self):
        plan = FaultPlan.parse("llm.generate:raise")
        [clause] = plan.clauses
        assert clause == FaultClause("llm.generate", "raise")
        assert clause.times == 1

    def test_full_grammar(self):
        plan = FaultPlan.parse(
            "llm.generate:delay:seconds=0.2:always;"
            "worker.execute:malformed:every=3:after=2")
        first, second = plan.clauses
        assert first.kind == "delay"
        assert first.seconds == 0.2
        assert first.times is None  # always
        assert second.every == 3
        assert second.after == 2

    def test_describe_round_trips_the_clauses(self):
        plan = FaultPlan.parse("a:raise:times=2;b:timeout")
        assert plan.describe() == [
            {"site": "a", "kind": "raise", "times": 2, "every": None,
             "after": 0, "seconds": 0.05},
            {"site": "b", "kind": "timeout", "times": 1, "every": None,
             "after": 0, "seconds": 0.05},
        ]

    def test_process_kinds_and_their_options(self):
        plan = FaultPlan.parse(
            "worker.execute:kill;"
            "worker.execute:exit:code=7;"
            "worker.execute:oom:mb=64;"
            "worker.execute:hang")
        kill, exit_, oom, hang = plan.clauses
        assert kill.kind == "kill"
        assert exit_.code == 7
        assert oom.megabytes == 64
        # a hang must outlive any watchdog timeout, not default to the
        # 50ms delay sleep
        assert hang.seconds == 3600.0
        assert FaultPlan.parse(
            "w:hang:seconds=2").clauses[0].seconds == 2.0
        assert FaultPlan.parse(
            "w:oom:megabytes=128").clauses[0].megabytes == 128

    def test_describe_includes_process_options(self):
        plan = FaultPlan.parse("w:exit:code=9;w:oom:mb=32")
        exit_doc, oom_doc = plan.describe()
        assert exit_doc["code"] == 9
        assert "megabytes" not in exit_doc
        assert oom_doc["megabytes"] == 32
        assert "code" not in oom_doc

    @pytest.mark.parametrize("spec", [
        "llm.generate",                 # no kind
        "llm.generate:explode",         # unknown kind
        "llm.generate:raise:bogus",     # bare option that isn't always
        "llm.generate:raise:count=2",   # unknown option
    ])
    def test_bad_specs_raise(self, spec):
        with pytest.raises(ValueError):
            FaultPlan.parse(spec)


class TestSchedule:
    def fired(self, spec, site, calls):
        plan = FaultPlan.parse(spec)
        outcomes = []
        for _ in range(calls):
            try:
                plan.check(site)
            except Exception:
                outcomes.append(True)
            else:
                outcomes.append(False)
        return outcomes

    def test_times_budget(self):
        assert self.fired("s:raise:times=2", "s", 5) == \
            [True, True, False, False, False]

    def test_always(self):
        assert self.fired("s:raise:always", "s", 3) == [True] * 3

    def test_every_kth_call(self):
        assert self.fired("s:raise:every=3", "s", 7) == \
            [False, False, True, False, False, True, False]

    def test_after_skips_warmup(self):
        assert self.fired("s:raise:after=2:times=1", "s", 5) == \
            [False, False, True, False, False]

    def test_sites_are_independent(self):
        plan = FaultPlan.parse("a:raise:times=1")
        plan.check("b")  # different site: no fault, no budget consumed
        with pytest.raises(FaultInjected):
            plan.check("a")
        assert plan.counts() == (("a:raise", 1, 1),)

    def test_schedule_is_deterministic(self):
        spec = "s:raise:every=2:after=1"
        runs = [self.fired(spec, "s", 9) for _ in range(2)]
        assert runs[0] == runs[1]

    def test_due_consumes_the_schedule_without_executing(self):
        # the worker supervisor's entry point: parent-side accounting,
        # clause execution shipped elsewhere
        plan = FaultPlan.parse("w:kill:times=1;w:exit:after=1")
        first = plan.due("w")
        assert [c.kind for c in first] == ["kill"]  # nothing executed
        second = plan.due("w")
        assert [c.kind for c in second] == ["exit"]
        assert plan.due("w") == []
        assert plan.counts() == (("w:kill", 3, 1), ("w:exit", 3, 1))

    def test_check_never_executes_process_kinds_in_process(self):
        # a process clause reaching an in-process site must be a no-op:
        # it may only fire inside a supervised worker.  If this test
        # survives, the daemon (and this test runner) cannot be killed
        # by a mis-sited kill/exit/oom/hang clause.
        plan = FaultPlan.parse(
            "s:kill:always;s:exit:always;s:oom:always;s:hang:always")
        plan.check("s")  # still alive, did not hang
        # ... but the schedule accounting advanced all the same
        assert all(calls == 1 and injected == 1
                   for _, calls, injected in plan.counts())


class TestFaultKinds:
    def test_raise_is_transient_connection_error(self):
        install_plan(FaultPlan.parse("s:raise"))
        with pytest.raises(FaultInjected) as excinfo:
            maybe_fault("s")
        assert isinstance(excinfo.value, ConnectionError)
        assert excinfo.value.transient is True

    def test_timeout(self):
        install_plan(FaultPlan.parse("s:timeout"))
        with pytest.raises(FaultTimeout) as excinfo:
            maybe_fault("s")
        assert isinstance(excinfo.value, TimeoutError)
        assert excinfo.value.transient is True

    def test_malformed(self):
        install_plan(FaultPlan.parse("s:malformed"))
        with pytest.raises(MalformedReply) as excinfo:
            maybe_fault("s")
        assert excinfo.value.transient is True
        assert "garbage" in excinfo.value.payload

    def test_delay_sleeps_and_falls_through(self):
        install_plan(FaultPlan.parse("s:delay:seconds=0.05"))
        start = time.monotonic()
        maybe_fault("s")  # must not raise
        assert time.monotonic() - start >= 0.05

    def test_injected_oom_raises_memory_error_even_under_no_limit(self):
        # deterministic: allocates ~8MB then raises instead of gambling
        # on the host actually running out of memory
        from repro.testing.faults import apply_process_fault
        clause = FaultPlan.parse("s:oom:mb=8").clauses[0]
        with pytest.raises(MemoryError):
            apply_process_fault(clause)

    def test_apply_process_fault_rejects_in_process_kinds(self):
        from repro.testing.faults import apply_process_fault
        with pytest.raises(ValueError):
            apply_process_fault(FaultClause("s", "raise"))


class TestActivePlan:
    def test_no_plan_is_a_noop(self):
        assert active_plan() is None
        maybe_fault("anything")

    def test_installed_plan_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "s:raise:always")
        pinned = FaultPlan.parse("other:raise")
        install_plan(pinned)
        assert active_plan() is pinned

    def test_env_plan_is_cached_so_counters_persist(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "s:raise:times=1")
        assert active_plan() is active_plan()
        with pytest.raises(FaultInjected):
            maybe_fault("s")
        maybe_fault("s")  # budget of 1 already spent
        assert active_plan().counts() == (("s:raise", 2, 1),)

    def test_env_plan_refreshes_on_spec_change(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "s:raise:times=1")
        first = active_plan()
        monkeypatch.setenv("REPRO_FAULTS", "s:timeout:times=1")
        second = active_plan()
        assert second is not first
        assert second.clauses[0].kind == "timeout"


class TestInjectedBackends:
    def test_register_is_idempotent(self):
        from repro.llm import LLM_BACKENDS

        register_fault_backends()
        register_fault_backends()
        assert "faulty" in LLM_BACKENDS

    def test_injected_faults_never_change_results(self, monkeypatch):
        """The headline determinism contract.

        A run whose ``llm.generate`` calls fail twice and get retried
        by the session's own LLM call path must produce the
        byte-identical result document of a fault-free run: faults fire
        before the inner model consumes randomness.
        """
        monkeypatch.setenv("REPRO_RETRY_BASE", "0.0001")
        register_fault_backends()
        session = OptimizerSession(dataset_size=40, llm_backend="faulty")
        request = OptimizationRequest.make(
            parse_scop(KERNEL), {"N": 1500}, {"N": 8},
            system="looprag", persona="deepseek")

        clean = session.optimize(request, use_store=False)
        plan = FaultPlan.parse("llm.generate:raise:times=2")
        install_plan(plan)
        faulted = session.optimize(request, use_store=False)

        site, calls, injected = plan.counts()[0]
        assert site == "llm.generate:raise"
        assert injected == 2
        assert calls > injected  # the retried calls went through
        assert json.dumps(faulted.to_json_dict(), sort_keys=True) == \
            json.dumps(clean.to_json_dict(), sort_keys=True)
