"""Synthetic workload generators for examples, tests, and benchmarks."""

from .biblio import (CONFERENCES, conference_query, conference_view,
                     figure3_database, generate_bibliography,
                     sigmod_97_query, year_view)
from .people import (generate_people, people_dtd, query_q3, query_q5,
                     query_q7, view_v1)
from .random_oem import (RandomOemConfig, RandomQueryConfig,
                         exposing_view, generate_random_database,
                         sample_query)
from .querygen import (chain_database, chain_query, chain_view,
                       condition_view, fanout_probe_query, fanout_view,
                       k_conditions_database, k_conditions_query,
                       star_database, star_query, star_view)

__all__ = [
    "figure3_database", "generate_bibliography", "conference_query",
    "conference_view", "year_view", "sigmod_97_query", "CONFERENCES",
    "generate_people", "people_dtd", "view_v1", "query_q3", "query_q5",
    "query_q7",
    "RandomOemConfig", "RandomQueryConfig", "generate_random_database",
    "sample_query", "exposing_view",
    "chain_query", "chain_view", "star_query", "star_view",
    "k_conditions_query", "condition_view", "fanout_view",
    "fanout_probe_query", "chain_database", "star_database",
    "k_conditions_database",
]
