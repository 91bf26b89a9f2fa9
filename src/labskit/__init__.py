"""Merit-factor toolkit for low-autocorrelation binary sequences.

Exact evaluation kernels, the energy-preserving symmetry algebra,
skew-symmetric and pseudo-skew-symmetric sieving classes with O(n)
incremental deltas, integer-partition potentials, a restart local
search, and a verifier for the bundled dataset of published record
sequences.
"""

from .core import (BinarySequence, TernarySequence, autocorrelation, energy,
                   merit_factor, sidelobes)
from .errors import DomainError, LabsError, ParseError
from .partitions import (PotentialReport, best_partition, enumerate_partitions,
                         n_star, potential, project_partition, sample_member,
                         symmetry_class_count)
from .pseudo import PssProbe, is_pseudo_skew_symmetric, probe, pss_sidelobe_check
from .records import (RecordEntry, VerificationReport, classify, decode_hex,
                      encode_hex, load_dataset, verify_all, verify_entry)
from .skew import (SkewHalf, SkewSearchState, exhaustive_best, expand,
                   is_skew_symmetric)
from .solver import (BestTriple, SolverConfig, SolverResult, hash_state,
                     pick_better_neighbor, run)
from .symmetry import (DELTA_GROUP, ClassExpression, DeltaOp, EtaOp, apply_eta,
                       canonical_form, parse_class_expression)

__version__ = "0.1.0"

__all__ = [
    "BinarySequence", "TernarySequence",
    "autocorrelation", "sidelobes", "energy", "merit_factor",
    "LabsError", "DomainError", "ParseError",
    "DeltaOp", "EtaOp", "DELTA_GROUP", "ClassExpression",
    "apply_eta", "canonical_form", "parse_class_expression",
    "SkewHalf", "SkewSearchState", "expand", "is_skew_symmetric", "exhaustive_best",
    "PssProbe", "is_pseudo_skew_symmetric", "probe", "pss_sidelobe_check",
    "PotentialReport", "enumerate_partitions", "symmetry_class_count",
    "project_partition", "potential", "best_partition", "sample_member", "n_star",
    "SolverConfig", "SolverResult", "BestTriple", "run", "pick_better_neighbor",
    "hash_state",
    "RecordEntry", "VerificationReport", "decode_hex", "encode_hex", "classify",
    "load_dataset", "verify_entry", "verify_all",
    "__version__",
]
