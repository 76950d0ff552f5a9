"""Conjunctive queries three ways: formulas, diagram terms, and hypergraphs.

The library parses and evaluates conjunctive-query formulas and their
variable-free diagrammatic counterparts, compiles terms to hypergraphs
with interfaces, and decides query inclusion/equivalence by
interface-preserving homomorphism search, cross-checked by an independent
natural-model evaluation oracle.
"""

from .axioms import AxiomEntry, axiom_catalog, encode_cp, verify_axiom_graphical, verify_axiom_semantic
from .ccq import CcqJudgment, derive, eval_ccq, parse_ccq, print_ccq
from .containment import (
    InclusionVerdict,
    decide_equivalence,
    decide_inclusion,
    hypergraph_as_model,
    natural_model_check,
    span_semantics,
)
from .cospan import (
    Cospan,
    compose_cospans,
    cospan_to_term,
    is_isomorphic_cospan,
    tensor_cospans,
    term_to_cospan,
)
from .errors import BudgetExhausted, CqError, ModelError, ParseError, SignatureError, SortError
from .gcq import GcqTerm, eval_gcq, n_copy, n_discard, n_merge, n_spawn, n_swap, parse_gcq, print_gcq
from .hypergraph import HgMorphism, Hypergraph, find_morphisms, is_isomorphic, validate_morphism
from .sigmodel import (
    Relation,
    RelModel,
    Signature,
    Sort,
    load_model,
    load_signature,
    relation_compose,
    relation_tensor,
)
from .translate import TwoSidedJudgment, lambda_model, lambda_term, theta, theta_model

__version__ = "0.1.0"
