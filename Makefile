# Convenience targets (see README.md).  Everything runs from the repo
# root with PYTHONPATH=src; no build step.

PYTHON ?= python
JOBS ?= 4

export PYTHONPATH := src

.PHONY: test test-quick test-reference test-store test-serve test-chaos bench perf clean-cache

test:
	$(PYTHON) -m pytest -x -q

test-quick:
	REPRO_SUITE_LIMIT=3 $(PYTHON) -m pytest -x -q

# artifact-store contract: backend conformance + spec-equivalence
# properties + concurrency/crash-recovery stress, with enough workers
# to make append races real, then checksums/scrub/repair and the
# bit-rot property, then the subprocess smoke that corrupts a live
# store and proves verify/--repair restore byte-identical warm hits.
# REPRO_STORE_BACKEND selects the backend the harness-level tests and
# the smoke exercise (conformance always runs them all).
test-store:
	REPRO_JOBS=$(JOBS) $(PYTHON) -m pytest -x -q \
	    tests/test_artifact_store_conformance.py \
	    tests/test_storage_property.py \
	    tests/test_storage_integrity.py \
	    tests/test_store_parallel.py \
	    tests/test_dataset_cache.py
	$(PYTHON) scripts/store_scrub_smoke.py

# the service daemon and its robustness machinery: cancellation,
# retry/breaker resilience, fault injection, admission, drain — then
# the subprocess smoke that boots the real daemon, overloads it,
# injects faults and SIGTERMs it mid-flight
test-serve:
	$(PYTHON) -m pytest -x -q \
	    tests/test_cancellation.py \
	    tests/test_resilience.py \
	    tests/test_faults.py \
	    tests/test_serve_daemon.py \
	    tests/test_events_concurrency.py
	$(PYTHON) scripts/serve_smoke.py

# process-level chaos: supervised worker isolation (SIGKILL/OOM/hang of
# workers, quarantine) and the durable request journal (crash the
# daemon mid-request, --recover replays byte-identically)
test-chaos:
	$(PYTHON) -m pytest -x -q \
	    tests/test_serve_supervisor.py \
	    tests/test_serve_journal.py
	$(PYTHON) scripts/serve_chaos_smoke.py

# the executable specifications (scalar interpreter + per-instance
# dependence walk) must stay green on their own, not just as oracles
test-reference:
	REPRO_ENGINE=reference REPRO_ANALYSIS=reference \
	    $(PYTHON) -m pytest -x -q

bench:
	$(PYTHON) -m repro bench --suite all --system looprag-deepseek \
	    --system pluto --jobs $(JOBS)

perf:
	$(PYTHON) -m repro perf --json BENCH_interpreter.json
	$(PYTHON) -m repro perf --target analysis --json BENCH_analysis.json

clean-cache:
	rm -rf .repro_cache
