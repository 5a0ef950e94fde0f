"""What each program memo key covers.

Dependence analysis and kernel compilation key their memos on
``Program.analysis_key()`` and ``Program.kernel_key()``, which leave out
the fields those layers never read; every other cache stays on
``fingerprint()``, and ``TransformStep.apply`` adds the name,
provenance and ``reg_accum`` flags it copies.  These tests pin the
sharing both ways: variants that differ only in unread fields share one
memo entry, and a change to a read field shares nothing.  One property
checks every key in ``repro.memo.MEMOS``: with the memos bypassed,
equal keys give equal values.
"""

import importlib
import operator
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.analysis.dependences import (analysis_override, dependences,
                                        parallel_violations,
                                        schedule_violations)
from repro.llm.adapt import Intent, materialize
from repro.machine.analytical import estimate_cached
from repro.memo import MEMOS, LRUCache
from repro.runtime.compile import compile_program
from repro.runtime.data import allocate, clone_storage
from repro.runtime.interpreter import (RuntimeExecutionError,
                                       engine_override, execute)
from repro.runtime.vectorized import _instance_batch
from repro.testing import checker_for
from repro.transforms import (TransformError, TransformStep,
                              interchange, pad_statements)
from repro.transforms.recipe import ALL_KINDS, TRANSFORMS

from recipe_candidates import KERNELS, candidates, target

#: the module (the package re-exports a function of the same name)
dep_module = importlib.import_module("repro.analysis.dependences")
#: imported lazily by the analysis, so its memos register only here
importlib.import_module("repro.analysis.vectorized")


def _variants(program):
    """Copies differing only in fields neither memo reads (padding a
    schedule leaves its aligned form, all analysis reads, unchanged)."""
    return [
        program.with_parallel(frozenset({1})),
        program.with_vector(frozenset({3})),
        program.with_tags("dummy-call"),
        program.renamed(program.name + "_copy"),
        program.with_provenance("gcc-autovec(cols=[3])"),
        program.with_parallel(frozenset({1})).with_vector(frozenset({3}))
        .with_tags("pure-annotated").renamed("other"),
        pad_statements(program),
    ]


@pytest.mark.parametrize("variant", range(7))
def test_unread_fields_share_dependences_and_kernels(gemm, variant):
    other = _variants(gemm)[variant]
    assert other != gemm
    assert dependences(other) is dependences(gemm)
    assert compile_program(other) is compile_program(gemm)


def test_interchange_shares_kernels_not_dependences(gemm):
    swapped = interchange(gemm, 3, 5)
    assert [s.schedule for s in swapped.statements] != \
        [s.schedule for s in gemm.statements]
    assert compile_program(swapped) is compile_program(gemm)
    assert dependences(swapped) is not dependences(gemm)
    assert swapped.analysis_key() != gemm.analysis_key()


def test_changed_body_shares_nothing(gemm):
    stmt = gemm.statements[-1]
    assert stmt.body.op == "+="
    changed = gemm.with_statement(
        stmt.name, stmt.with_body(replace(stmt.body, op="-=")))
    assert dependences(changed) is not dependences(gemm)
    assert compile_program(changed) is not compile_program(gemm)
    assert changed.analysis_key() != gemm.analysis_key()
    assert changed.kernel_key() != gemm.kernel_key()


def test_execution_reuses_instance_batch_across_inputs(gemm):
    params = {"NI": 5, "NJ": 6, "NK": 4}
    marked = gemm.with_parallel(frozenset({1}))
    batch = _instance_batch(gemm, params, 10_000, RuntimeError)
    assert _instance_batch(marked, params, 10_000, RuntimeError) is batch
    assert _instance_batch(interchange(gemm, 3, 5), params, 10_000,
                           RuntimeError) is not batch
    for variant in range(3):
        pristine = allocate(gemm, params, variant)
        outputs = {}
        for engine in ("reference", "vectorized", "vectorized"):
            storage = clone_storage(pristine)
            with engine_override(engine):
                execute(marked, params, storage)
            outputs.setdefault(engine, []).append(storage["C"].tobytes())
        assert len(set(outputs["reference"] + outputs["vectorized"])) == 1


def test_fingerprint_values_unchanged(gemm, jacobi2d):
    # every store key, verdict cache and RNG seed derives from these
    assert gemm.fingerprint() == "00ade252fa18b771"
    assert jacobi2d.fingerprint() == "5e31fc2a26f9fe56"
    assert gemm.with_parallel(frozenset({1})).fingerprint() == \
        "ff0e84f7595f127d"
    assert gemm.with_tags("dummy-call").fingerprint() == "3d2264f599d8aff1"


def _one_step_per_kind(gemm, jacobi2d):
    """``(program, step)`` pairs that apply, one per transform kind."""
    make = TransformStep.make
    return [
        (gemm, make("tiling", columns=[1, 3], sizes=[32, 16])),
        (gemm, make("interchange", col_a=3, col_b=5, stmts=["S2"])),
        (gemm, make("skewing", target_col=3, source_col=1, factor=1)),
        (jacobi2d, make("fusion", col=2)),
        (gemm, make("distribution", col=2)),
        (gemm, make("shifting", stmt="S1", col=3, offset=1)),
        (gemm, make("parallel", col=1)),
        (gemm, make("vectorize", col=5)),
        (interchange(gemm, 3, 5, ["S2"]), make("reg_accum", stmt="S2")),
    ]


def test_memoized_apply_equals_uncached(gemm, jacobi2d):
    cases = _one_step_per_kind(gemm, jacobi2d)
    assert sorted(step.kind for _, step in cases) == sorted(ALL_KINDS)
    for program, step in cases:
        uncached = TRANSFORMS.get(step.kind)(program, step.arg_dict())
        got = step.apply(program)
        assert got == uncached
        assert step.apply(program) is got


def test_failing_step_raises_on_miss_and_hit(gemm):
    program = gemm.renamed("failing_step_probe")
    step = TransformStep.make("reg_accum", stmt="S2")
    messages = []
    for _ in range(2):
        with pytest.raises(TransformError) as caught:
            step.apply(program)
        messages.append(str(caught.value))
    assert messages[0] == messages[1]
    assert "innermost loop" in messages[0]


def test_apply_keys_on_name_provenance_and_reg_accum(gemm):
    step = TransformStep.make("parallel", col=1)
    base = step.apply(gemm)
    renamed = step.apply(gemm.renamed("gemm_alias"))
    assert renamed.name == "gemm_alias" and base.name == gemm.name
    noted = step.apply(gemm.with_provenance("pluto"))
    assert noted.provenance == ("pluto", "parallel(col=1)")
    assert base.provenance == ("parallel(col=1)",)
    # the fingerprint's statement text omits reg_accum: the flag must
    # still reach the key, or a register-accumulating input would get
    # its plain twin's result
    inner = interchange(gemm, 3, 5, ["S2"])
    accum = inner.with_statement(
        "S2", inner.statement("S2").with_reg_accum(True))
    assert accum.fingerprint() == inner.fingerprint()
    assert accum.provenance == inner.provenance
    assert step.apply(accum).statement("S2").reg_accum
    assert not step.apply(inner).statement("S2").reg_accum


def test_estimate_cached_keys_on_reg_accum():
    from repro.machine.analytical import estimate, estimate_cached
    from repro.suites import SUITES

    # the fingerprint omits reg_accum, and the estimate prices it.  No
    # TSVC statement's cost moves with the flag; floyd-warshall's
    # accumulation does
    bench = SUITES["polybench"]().get("floyd-warshall")
    plain = bench.program
    stmt = plain.statements[0]
    assert stmt.body.op == "+=" and not stmt.reg_accum
    accum = plain.with_statement(stmt.name, stmt.with_reg_accum(True))
    assert accum.fingerprint() == plain.fingerprint()
    assert estimate(accum, bench.perf).seconds != \
        estimate(plain, bench.perf).seconds
    for program in (plain, accum, plain):
        assert estimate_cached(program, bench.perf).seconds == \
            estimate(program, bench.perf).seconds


@pytest.fixture(scope="module")
def legality_queries():
    """``(query, program, deps, dim, returned ids)`` of every legality
    query a deepseek looprag run makes on the TSVC and LORE kernels
    (``REPRO_SUITE_LIMIT`` honoured); ``dim`` is ``None`` for a schedule
    query."""
    import sys

    from repro.api import OptimizationRequest, OptimizerSession
    from repro.evaluation.harness import suites

    queries = []

    def recording(name, original):
        def query(program, deps, *args):
            got = original(program, deps, *args)
            dim = args[0] if args else None
            queries.append((name, program, deps, dim,
                            [id(dep) for dep in got]))
            return got
        return query

    session = OptimizerSession(dataset_size=60, seed=0, use_store=False)
    with pytest.MonkeyPatch.context() as patch:
        for name in ("schedule_violations", "parallel_violations"):
            original = getattr(dep_module, name)
            wrapper = recording(name, original)
            for mod_name, module in list(sys.modules.items()):
                if mod_name.startswith("repro") and \
                        getattr(module, name, None) is original:
                    patch.setattr(module, name, wrapper)
        for suite in ("tsvc", "lore"):
            for bench in suites()[suite]:
                session.optimize(OptimizationRequest.make(
                    bench.program, bench.perf, bench.test,
                    system="looprag", persona="deepseek"),
                    use_store=False)
    return queries


def test_memoized_legality_equals_unmemoized(legality_queries,
                                            monkeypatch):

    assert {q[0] for q in legality_queries} == {"schedule_violations",
                                               "parallel_violations"}
    monkeypatch.setattr(dep_module._legality.memo, "cache", LRUCache(0))
    for name, program, deps, dim, got in legality_queries:
        fresh = (dep_module.schedule_violations(program, deps)
                 if dim is None else
                 dep_module.parallel_violations(program, deps, dim))
        assert [id(dep) for dep in fresh] == got, (name, program.name, dim)


@pytest.mark.parametrize("dim", [None, 1, 3])
def test_engine_switch_recomputes_verdicts(gemm, monkeypatch, dim):
    """A verdict is kept per analysis engine: under ``reference`` the
    per-instance walk runs even when the vectorized engine already
    answered the same query, and each engine answers it once."""
    from repro.analysis import vectorized

    monkeypatch.setattr(dep_module._legality.memo, "cache", LRUCache(16))
    batch = ("schedule_violations_batch" if dim is None
             else "parallel_violations_batch")
    calls = {"batch": 0, "walk": 0}

    def counting(key, real):
        def spy(*args):
            calls[key] += 1
            return real(*args)
        return spy

    monkeypatch.setattr(vectorized, batch,
                        counting("batch", getattr(vectorized, batch)))
    monkeypatch.setattr(dep_module, "_instance_key",
                        counting("walk", dep_module._instance_key))
    candidate = interchange(gemm, 3, 5, ["S2"]).with_parallel(
        frozenset({1}))
    deps = dependences(gemm)

    def query():
        if dim is None:
            return dep_module.schedule_violations(candidate, deps)
        return dep_module.parallel_violations(candidate, deps, dim)

    seen = []
    for engine in ("vectorized", "vectorized", "reference", "reference",
                   "vectorized"):
        with analysis_override(engine):
            seen.append([id(dep) for dep in query()])
        seen.append(dict(calls))
    assert seen[1] == {"batch": 1, "walk": 0}
    assert seen[3] == {"batch": 1, "walk": 0}
    assert seen[5]["batch"] == 1 and seen[5]["walk"] > 0
    assert seen[7] == seen[5] and seen[9] == seen[5]
    assert seen[0] == seen[2] == seen[4] == seen[6] == seen[8]


def _facts(program):
    import random as random_module

    from repro.ir.validate import check_program
    from repro.llm.adapt import _stride_pair
    from repro.transforms import dynamic_columns, pad_statements

    return (program.aligned_schedules(), dynamic_columns(program),
            check_program(program), pad_statements(program),
            [_stride_pair(program, random_module.Random(seed))
             for seed in range(4)],
            program.fingerprint(), program.analysis_key(),
            program.kernel_key())


def test_instance_facts_equal_fresh_computation(gemm, jacobi2d):
    from repro.ir import align_schedules, check_program
    from repro.llm.adapt import syntax_slip

    broken, _ = syntax_slip(gemm, __import__("random").Random(1))
    programs = [gemm, jacobi2d, broken,
                interchange(gemm, 3, 5, ["S2"]).with_parallel(
                    frozenset({1})),
                TransformStep.make("tiling", columns=[1, 3],
                                   sizes=[32, 16]).apply(gemm)]
    for program in programs:
        memoized = _facts(program)
        assert _facts(program) == memoized
        assert program.aligned_schedules() is memoized[0]
        # a fresh copy has nothing memoized and must agree
        assert _facts(replace(program)) == memoized
        assert memoized[0] == tuple(
            align_schedules([s.schedule for s in program.statements]))
    diagnostics = check_program(broken)
    assert diagnostics
    diagnostics.append("caller scribble")
    assert "caller scribble" not in check_program(broken)


# ----------------------------------------------------------------------
# Every memo key, checked by one property
# ----------------------------------------------------------------------
def _same_batch(a, b):
    return len(a.points) == len(b.points) and all(
        np.array_equal(x, y) for x, y in zip(
            (a.si, a.row, a.keys) + a.points,
            (b.si, b.row, b.keys) + b.points))


def _same_pack(a, b):
    (deps_a, pack_a), (deps_b, pack_b) = a, b
    if pack_a is None or pack_b is None:
        return deps_a == deps_b and pack_a is pack_b
    return (deps_a == deps_b and pack_a.per_dep == pack_b.per_dep
            and len(pack_a.groups) == len(pack_b.groups)
            and all(si_a == si_b and names_a == names_b
                    and np.array_equal(vals_a, vals_b)
                    for (si_a, names_a, vals_a), (si_b, names_b, vals_b)
                    in zip(pack_a.groups, pack_b.groups)))


def _same_compiled(a, b):
    """Equal keys and statements; a generated kernel is compared by what
    it runs: its code and the affine columns it closes over."""
    def view(compiled):
        return [{name: (v.__code__, v.__globals__.get("_AFF"))
                 if callable(v) else v for name, v in vars(stmt).items()}
                for stmt in compiled.statements]
    return a.key == b.key and view(a) == view(b)


def _same_checker(a, b):
    return (a.params == b.params
            and a._inputs == b._inputs
            and np.array_equal(a._checksums, b._checksums, equal_nan=True)
            and len(a._expected) == len(b._expected)
            and all(x.keys() == y.keys()
                    and all(np.array_equal(x[k], y[k], equal_nan=True)
                            for k in x)
                    for x, y in zip(a._expected, b._expected)))


def _same_applied(a, b):
    if isinstance(a, TransformError) or isinstance(b, TransformError):
        return type(a) is type(b) and a.args == b.args
    return a == b


#: how two values of each memo are compared
_SAME = {
    "repro.analysis.dependences._legality":
        lambda a, b: a.schedules == b.schedules,
    "repro.analysis.dependences.dependences": operator.eq,
    "repro.analysis.vectorized._slot_table": np.array_equal,
    "repro.analysis.vectorized._witness_pack": _same_pack,
    "repro.runtime.compile.compile_program": _same_compiled,
    "repro.runtime.vectorized._instance_batch": _same_batch,
    "repro.machine.analytical.estimate_cached": operator.eq,
    "repro.transforms.recipe._applied": _same_applied,
    "repro.testing.equivalence.checker_for": _same_checker,
}


class _Audit:
    """Stands in for a memo's cache: it never hits, keeps the first
    value stored under each key (which pins it) and records each later
    value under that key that is not the same.  It records instead of
    raising, because the layers above catch their callees' errors."""

    def __init__(self, same):
        self.same = same
        self.first = {}
        self.repeats = 0
        self.unequal = []

    def get(self, key, default=None):
        return default

    def put(self, key, value):
        if key not in self.first:
            self.first[key] = value
            return
        self.repeats += 1
        if not self.same(self.first[key], value):
            self.unequal.append(key)


def _exercise(source, recipes, seed):
    """Run every candidate of one target through the memoized layers."""
    program, params = target(source)
    # the cost model prices floyd-warshall's reg_accum only at large sizes
    wide = {name: 300 * value for name, value in params.items()}
    rng = random.Random(seed)
    steps = [step for step in (
        materialize(Intent(kind=kind, size=rng.choice((2, 3, 64))),
                    program, rng) for kind in ALL_KINDS) if step]
    source_deps = dependences(program)
    checker = checker_for(program, params)
    # a fresh copy of the source has no fact memoized on it
    for candidate in candidates(program, recipes, seed) + [replace(program)]:
        dependences(candidate)
        dependences(candidate, params)
        schedule_violations(candidate, source_deps)
        for dim in range(len(candidate.aligned_schedules()[0].dims)):
            parallel_violations(candidate, source_deps, dim)
        compile_program(candidate)
        estimate_cached(candidate, params)
        estimate_cached(candidate, wide)
        for step in steps:
            try:
                step.apply(candidate)
            except TransformError:
                pass
        try:
            checker_for(candidate, params)
        except RuntimeExecutionError:
            pass  # a slip's own run fails: it gets no checker
        checker.check(candidate)


def test_every_memo_key_covers_what_its_function_reads():
    """Equal keys give equal values with every memo bypassed.  Each
    candidate's renamed copy, ``reg_accum`` twin and bindings collide
    on the keys that leave the name, the flags or the binding out; a
    key that leaves out something its function reads gives two values
    under one key.  The vectorized engines are forced: the slot-table
    and witness-pack memos exist only there."""
    assert sorted(memo.name for memo in MEMOS) == sorted(_SAME)
    repeats = dict.fromkeys(_SAME, 0)

    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(source=st.one_of(st.integers(0, 300), st.sampled_from(KERNELS)),
           recipes=st.lists(st.lists(st.sampled_from(ALL_KINDS),
                                     min_size=1, max_size=3),
                            min_size=1, max_size=3),
           seed=st.integers(0, 100))
    @example(source="floyd-warshall", recipes=[["interchange"]], seed=0)
    @example(source=17, recipes=[["tiling", "parallel"]], seed=1)
    def check(source, recipes, seed):
        audits = {memo.name: _Audit(_SAME[memo.name]) for memo in MEMOS}
        with pytest.MonkeyPatch.context() as patch, \
                analysis_override("vectorized"), \
                engine_override("vectorized"):
            for memo in MEMOS:
                patch.setattr(memo, "cache", audits[memo.name])
            _exercise(source, recipes, seed)
        for name, audit in audits.items():
            repeats[name] += audit.repeats
            assert not audit.unequal, (name, audit.unequal[:3])

    check()
    assert all(repeats.values()), repeats
