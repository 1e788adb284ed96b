"""Random OEM databases and satisfiable random queries.

Used by the property-based tests (soundness E12, evaluator cross-check
E13): generate a random tree or DAG, then *sample* queries from the data
so their results are non-trivial, and random views likewise.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..oem.builder import DatabaseBuilder
from ..oem.model import OemDatabase, Oid
from ..tsl.ast import Condition, ObjectPattern, Query, SetPattern
from ..logic.terms import Constant, FunctionTerm, Variable


@dataclass(frozen=True)
class RandomOemConfig:
    """Knobs for the random database generator."""

    roots: int = 3
    max_depth: int = 4
    max_fanout: int = 3
    labels: tuple[str, ...] = ("a", "b", "c", "d", "e")
    values: tuple[str, ...] = ("u", "v", "w", "x")
    share_probability: float = 0.0   # >0 produces DAGs
    atomic_probability: float = 0.5


def generate_random_database(config: RandomOemConfig = RandomOemConfig(),
                             seed: int = 0,
                             name: str = "db") -> OemDatabase:
    """A random rooted tree (or DAG when ``share_probability > 0``)."""
    rng = random.Random(seed)
    builder = DatabaseBuilder(name)
    created: list[Oid] = []

    def build(depth: int) -> Oid:
        label = rng.choice(config.labels)
        is_leaf = (depth >= config.max_depth
                   or rng.random() < config.atomic_probability)
        if is_leaf:
            oid = builder.atomic(label, rng.choice(config.values))
            created.append(oid)
            return oid
        oid = builder.set(label)
        for _ in range(rng.randint(1, config.max_fanout)):
            if created and rng.random() < config.share_probability:
                child = rng.choice(created)
            else:
                child = build(depth + 1)
            builder.edge(oid, child)
        created.append(oid)
        return oid

    for _ in range(config.roots):
        builder.root(build(1))
    return builder.finish()


@dataclass(frozen=True)
class RandomQueryConfig:
    """Knobs for sampling queries from a database.

    ``conjunctive`` restricts sampling to *conjunctive TSL*: head values
    copy only atomic leaves, so the answer never hangs source subgraphs
    (no copy semantics) -- the fragment for which the rewriting algorithm
    is complete (Theorem 5.5) and the oracles' primary target.
    """

    conditions: int = 2
    max_depth: int = 3
    constant_probability: float = 0.4
    label_variable_probability: float = 0.2
    conjunctive: bool = False


def _sample_path(db: OemDatabase, rng: random.Random,
                 max_depth: int) -> list[Oid]:
    node = rng.choice(db.roots)
    path = [node]
    while len(path) < max_depth and not db.is_atomic(node):
        children = db.children(node)
        if not children:
            break
        node = rng.choice(children)
        path.append(node)
    return path


def sample_query(db: OemDatabase,
                 config: RandomQueryConfig = RandomQueryConfig(),
                 seed: int = 0) -> Query:
    """Sample a satisfiable query by walking random root-to-node paths.

    Object ids become variables; labels become constants or variables;
    the leaf value becomes the observed constant (with some probability)
    or a variable.  The head copies every sampled leaf into a flat record
    so the query exercises head construction.
    """
    rng = random.Random(seed)
    variable_count = [0]

    def fresh(stem: str) -> Variable:
        variable_count[0] += 1
        return Variable(f"{stem}{variable_count[0]}")

    conditions: list[Condition] = []
    head_children: list[ObjectPattern] = []
    oid_vars: dict[Oid, Variable] = {}
    for _ in range(config.conditions):
        walk = _sample_path(db, rng, config.max_depth)
        pattern: ObjectPattern | None = None
        for position, node in enumerate(reversed(walk)):
            is_leaf = position == 0
            oid_var = oid_vars.setdefault(node, fresh("O"))
            if rng.random() < config.label_variable_probability:
                label = fresh("L")
            else:
                label = Constant(db.label(node))
            if not is_leaf:
                assert pattern is not None
                value: object = SetPattern((pattern,))
            elif (db.is_atomic(node)
                    and rng.random() < config.constant_probability):
                value = Constant(db.atomic_value(node))
            else:
                value = fresh("V")
                if not config.conjunctive or db.is_atomic(node):
                    out_oid = FunctionTerm("out", (oid_var,))
                    if all(child.oid != out_oid for child in head_children):
                        head_children.append(ObjectPattern(
                            out_oid, Constant("item"), value))
            pattern = ObjectPattern(oid_var, label, value)
        assert pattern is not None
        conditions.append(Condition(pattern, db.name))
    root_var = conditions[0].pattern.oid
    head = ObjectPattern(FunctionTerm("ans", (root_var,)),
                         Constant("result"),
                         SetPattern(tuple(head_children)))
    return Query(head, tuple(conditions))


def exposing_view(query: Query, name: str = "V",
                  functor: str = "xrow") -> Query:
    """A view over *query*'s body exposing every body variable.

    Every binding travels in the head oid term ``xrow(V1..Vn)``, so the
    view retains everything the query observes and an equivalent
    rewriting of *query* over the view exists by construction -- the
    completeness property tests (E12) rely on this.
    """
    body_vars = tuple(sorted(query.body_variables(),
                             key=lambda v: v.name))
    head = ObjectPattern(FunctionTerm(functor, body_vars),
                         Constant("row"), Constant("ok"))
    return Query(head, query.body, name=name)
