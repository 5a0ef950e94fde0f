"""Simulated-LLM personas.

A persona is the behavioural profile of one model: which transformations
it can produce unprompted, how reliably it adopts demonstrated ones, and
how often it slips (syntax errors → CE, semantic corruption → IA/RE).
Profiles are calibrated against the paper's observed marginals:

* base GPT-4/DeepSeek rarely tile and only sometimes parallelize (Fig 1,
  Table 2's ~1.6× PolyBench speedups; the ``gemm`` case study's scalar-
  temp rewrite in Listing 7);
* with demonstrations they adopt most demonstrated steps (Listing 1);
* compilation feedback repairs most CE cases in round one (Table 7's
  +14-22% pass@k), less in round two;
* ``deepseek-v3-0324`` edges out ``gpt-4o-2024-08-06`` in adoption and
  slip rates (§6.2.2 attributes DeepSeek's wins to recency), while the
  older ``deepseek-v2.5`` trails GPT-4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..registry import UnknownComponentError


@dataclass(frozen=True)
class Persona:
    """Behavioural profile of one simulated LLM."""

    name: str
    model_id: str
    #: transformation kinds the model applies without demonstrations
    repertoire: Tuple[str, ...]
    p_attempt: float          # tries any loop transformation at all
    p_parallel: float         # adds "#pragma omp parallel for" unprompted
    p_vectorize: float        # adds "#pragma omp simd" unprompted
    p_reg_accum: float        # scalar-renames reductions (Listing 7)
    p_adopt_step: float       # adopts each demonstrated step
    p_skip_legality: float    # applies a transform without dependence care
    p_semantic_slip: float    # corrupts the candidate (bounds/guards)
    p_syntax_slip: float      # emits a non-compiling candidate
    p_fix_compile: float      # repairs given compiler diagnostics
    p_fix_compile_round2: float
    p_drop_bad_step: float    # removes suspect step after test failure
    #: probability of systematically misreading a kernel when rewriting it
    #: with demonstrations (scaled by kernel complexity; halved without
    #: demonstrations, where the model rewrites less).  A misread corrupts
    #: *every* candidate the same way — the correlated failure mode that
    #: bounds pass@k in Fig 1 / Tables 1-2.
    p_misread: float = 0.55
    #: probability that testing-results feedback snaps the model out of a
    #: semantic misread (Table 7's test+rank gains)
    p_recover: float = 0.30
    tile_size: int = 32


DEEPSEEK_V3 = Persona(
    name="deepseek",
    model_id="deepseek-v3-0324",
    repertoire=("interchange", "fusion", "reg_accum"),
    p_attempt=0.95,
    p_parallel=0.55,
    p_vectorize=0.35,
    p_reg_accum=0.45,
    p_adopt_step=0.90,
    p_skip_legality=0.35,
    p_semantic_slip=0.16,
    p_syntax_slip=0.10,
    p_fix_compile=0.80,
    p_fix_compile_round2=0.45,
    p_drop_bad_step=0.75,
    p_misread=0.52,
    p_recover=0.32,
)

GPT_4O = Persona(
    name="gpt4",
    model_id="gpt-4o-2024-08-06",
    repertoire=("interchange", "fusion", "reg_accum"),
    p_attempt=0.95,
    p_parallel=0.45,
    p_vectorize=0.30,
    p_reg_accum=0.40,
    p_adopt_step=0.82,
    p_skip_legality=0.40,
    p_semantic_slip=0.18,
    p_syntax_slip=0.12,
    p_fix_compile=0.75,
    p_fix_compile_round2=0.40,
    p_drop_bad_step=0.70,
    p_misread=0.62,
    p_recover=0.26,
)

DEEPSEEK_V25 = Persona(
    name="deepseek-v2.5",
    model_id="deepseek-v2.5",
    repertoire=("interchange", "reg_accum"),
    p_attempt=0.90,
    p_parallel=0.40,
    p_vectorize=0.25,
    p_reg_accum=0.35,
    p_adopt_step=0.72,
    p_skip_legality=0.45,
    p_semantic_slip=0.22,
    p_syntax_slip=0.15,
    p_fix_compile=0.65,
    p_fix_compile_round2=0.35,
    p_drop_bad_step=0.60,
    p_misread=0.75,
    p_recover=0.18,
)

PERSONAS = {p.name: p for p in (DEEPSEEK_V3, GPT_4O, DEEPSEEK_V25)}


def registered_name(persona: object) -> str:
    """The persona name a request or plan carries.

    A name passes as is (it is checked where it is read); a registered
    :class:`Persona` becomes its name.  Anything else, an unregistered
    profile included, raises :class:`UnknownComponentError`: results
    are keyed by persona name, so only registered profiles are served.
    """
    if isinstance(persona, str):
        return persona
    if isinstance(persona, Persona):
        if PERSONAS.get(persona.name) == persona:
            return persona.name
        persona = f"{persona.name} (unregistered profile)"
    raise UnknownComponentError("persona", persona, tuple(PERSONAS))
