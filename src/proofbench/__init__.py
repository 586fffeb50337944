"""Desk-scale workbench for cutting-planes proofs, protocol refutations,
monotone circuits over CSP truth tables, and random CNF experiments.
"""

from .cnf import (
    Assignment,
    Clause,
    CnfFormula,
    Literal,
    VariablePartition,
    brute_force_sat,
    clause_to_inequality,
    eval_clause,
    formula_to_system,
    parse_dimacs,
    search_violation,
    serialize_dimacs,
)
from .circuit import (
    CcLine,
    MonotoneCircuit,
    cc_lines_from_cp_proof,
    cc_lines_from_resolution,
    compile_cc_refutation,
    eval_circuit,
    extract_cc2_refutation,
    parse_circuit,
    roundtrip,
    serialize_circuit,
    verify_separation,
)
from .cpproof import (
    Addition,
    BooleanAxiom,
    CpProof,
    Division,
    Hypothesis,
    ProofLine,
    check_cp_proof,
    cp_lines_to_protocols,
    parse_cp_lines,
    proof_weight,
    resolution_refutation_from_dpll,
    serialize_cp_lines,
)
from .cspsat import (
    ConstraintGraph,
    CspSatInstance,
    accepting_instance,
    agreement_count,
    build_constraint_graph,
    circuit_size_lower_bound,
    csp_sat_eval,
    rejecting_instance,
)
from .linear import LinearInequality
from .protocol import (
    ProtocolTree,
    Rectangle,
    clause_protocol,
    good_histories,
    inequality_protocol,
    materialize_rectangle,
    real_protocol_eval,
    run_protocol,
)
from .randomcnf import (
    DistributionParams,
    derive_seed,
    expansion_report,
    heavy_partition_search,
    heavy_sat_fraction,
    profile_distinctness,
    sample_f,
    sample_tensor,
    unsat_rate,
)
from .semantics import SemanticLine, check_semantic_step

__version__ = "0.1.0"
