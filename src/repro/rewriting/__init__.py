"""The paper's primary contribution: rewriting TSL queries using views."""

from .index import IndexStats, PathIndex, statically_compatible
from .mappings import (Mapping, body_mappings, component_mapping, coverage,
                       find_mappings, map_path_into,
                       most_constrained_order)
from .canon import Canonical, canonicalize, program_key, query_key
from .chase import StructuralConstraints, chase
from .session import DEFAULT_MEMO_SIZE, MemoTable, RewriteSession
from .composition import compose
from .equivalence import (equivalence_obstacle, equivalent, minimize,
                          prepare_program, programs_equivalent)
from .explain import CandidateEvent, Explanation, MappingEvent
from .rewriter import (CandidateAtom, RewriteResult, RewriteStats, Rewriting,
                       is_rewriting, rewrite)
from .contained import (ContainedRewriting, contained_in,
                        maximally_contained_rewritings, programs_contained)
from .constraints import (ChildSpec, Dtd, paper_dtd, parse_dtd,
                          parse_xml_data)
from .dataguide import DataGuide, build_dataguide, dtd_from_dataguide

__all__ = [
    "Mapping", "find_mappings", "body_mappings", "map_path_into",
    "coverage", "component_mapping",
    "most_constrained_order",
    "PathIndex", "IndexStats", "statically_compatible",
    "chase", "StructuralConstraints",
    "compose",
    "equivalent", "programs_equivalent", "minimize", "prepare_program",
    "equivalence_obstacle",
    "Explanation", "MappingEvent", "CandidateEvent",
    "rewrite", "is_rewriting",
    "Rewriting", "RewriteResult", "RewriteStats", "CandidateAtom",
    "Canonical", "canonicalize", "query_key", "program_key",
    "RewriteSession", "MemoTable", "DEFAULT_MEMO_SIZE",
    "maximally_contained_rewritings", "programs_contained", "contained_in",
    "ContainedRewriting",
    "Dtd", "ChildSpec", "parse_dtd", "paper_dtd", "parse_xml_data",
    "DataGuide", "build_dataguide", "dtd_from_dataguide",
]
