"""What each program memo key covers.

Dependence analysis and kernel compilation key their memos on
``Program.analysis_key()`` and ``Program.kernel_key()``, which leave out
the fields those layers never read; every other cache stays on
``fingerprint()``.  These tests pin the sharing both ways: variants that
differ only in unread fields share one memo entry, and a change to a read
field shares nothing.
"""

from dataclasses import replace

import pytest

from repro.analysis.dependences import dependences
from repro.runtime.compile import compile_program
from repro.runtime.data import allocate, clone_storage
from repro.runtime.interpreter import engine_override, execute
from repro.runtime.vectorized import _instance_batch
from repro.transforms import interchange


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
