"""What each program memo key covers.

Dependence analysis and kernel compilation key their memos on
``Program.analysis_key()`` and ``Program.kernel_key()``, which leave out
the fields those layers never read; every other cache stays on
``fingerprint()``, and ``TransformStep.apply`` adds the name,
provenance and ``reg_accum`` flags it copies.  These tests pin the
sharing both ways: variants that differ only in unread fields share one
memo entry, and a change to a read field shares nothing.
"""

from dataclasses import replace

import pytest

from repro.analysis.dependences import dependences
from repro.runtime.compile import compile_program
from repro.runtime.data import allocate, clone_storage
from repro.runtime.interpreter import engine_override, execute
from repro.runtime.vectorized import _instance_batch
from repro.transforms import (TransformError, TransformStep,
                              interchange)
from repro.transforms.recipe import ALL_KINDS, TRANSFORMS


def _variants(program):
    """Copies differing only in fields neither memo reads."""
    return [
        program.with_parallel(frozenset({1})),
        program.with_vector(frozenset({3})),
        program.with_tags("dummy-call"),
        program.renamed(program.name + "_copy"),
        program.with_provenance("gcc-autovec(cols=[3])"),
        program.with_parallel(frozenset({1})).with_vector(frozenset({3}))
        .with_tags("pure-annotated").renamed("other"),
    ]


@pytest.mark.parametrize("variant", range(6))
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
