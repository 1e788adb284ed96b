"""The TSL-to-Datalog translation of [28] (Section 2, Section 6).

"TSL can be translated to Datalog with function symbols and limited
recursion over a fixed schema."  This module realizes that translation and
uses it as an independent evaluation path: an OEM database becomes a set
of EDB facts, a TSL rule becomes Datalog rules deriving ``ans_*`` facts,
and the model decodes back into an OEM answer database.  The test suite
cross-checks it against the direct evaluator
(:mod:`repro.tsl.evaluator`) -- experiment E13 of DESIGN.md.

EDB schema (fixed, per [28])::

    root(src, O)        O is a root of source src
    label(O, L)         object O carries label L
    atomic(O, V)        O is atomic with value V
    isset(O)            O is a set object
    member(O, C)        C is a subobject of O
    value_of(O, W)      W is O's value: the raw atom, or setval(O)
    setvalue(setval(O), O)   destructuring helper for set values
    atomvalue(V)        V occurs as an atomic value

The copy semantics ("hanging subgraphs") become the translation's limited
recursion: once an answer object hangs a source set value, the source
subgraph is copied by a transitive ``ans_copied`` closure over ``member``.

Known, documented difference from the direct evaluator: set values are
named by set-object *oid* here (``setval(O)``), while the evaluator
names them by *member set*.  The answers differ only when a query joins
one variable across two distinct set objects that happen to have
identical member sets, or when a head object id embeds a variable bound
to a set value (the answer's oid then spells ``setval(O)`` here and the
member set there).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import FusionConflictError, TslError
from ..oem.model import OemDatabase
from ..tsl.ast import ObjectPattern, Query, SetPattern
from ..tsl.evaluator import Sources, _as_sources
from ..tsl.normalize import normalize, query_paths
from .datalog import Atom, Literal, Rule, evaluate as datalog_evaluate
from .terms import Constant, FunctionTerm, Term, Variable


def _setval(oid: Term) -> FunctionTerm:
    return FunctionTerm("setval", (oid,))


def encode_database(db: OemDatabase) -> list[Atom]:
    """Encode the reachable portion of *db* as EDB facts."""
    facts: list[Atom] = []
    reachable = db.reachable_oids()
    for oid in sorted(reachable, key=str):
        facts.append(Atom("label", (oid, Constant(db.label(oid)))))
        if db.is_atomic(oid):
            value = Constant(db.atomic_value(oid))
            facts.append(Atom("atomic", (oid, value)))
            facts.append(Atom("value_of", (oid, value)))
            facts.append(Atom("atomvalue", (value,)))
        else:
            facts.append(Atom("isset", (oid,)))
            facts.append(Atom("value_of", (oid, _setval(oid))))
            facts.append(Atom("setvalue", (_setval(oid), oid)))
            for child in db.children(oid):
                facts.append(Atom("member", (oid, child)))
    for root in db.roots:
        facts.append(Atom("root", (Constant(db.name), root)))
    return facts


def _body_atoms(query: Query) -> list[Atom]:
    """Translate the (normalized) body into EDB goal atoms."""
    atoms: list[Atom] = []
    for path in query_paths(query):
        first_oid = path.steps[0][0]
        atoms.append(Atom("root", (Constant(path.source), first_oid)))
        previous: Term | None = None
        for oid, label in path.steps:
            if previous is not None:
                atoms.append(Atom("member", (previous, oid)))
            atoms.append(Atom("label", (oid, label)))
            previous = oid
        leaf_oid = path.steps[-1][0]
        if isinstance(path.leaf, SetPattern):
            atoms.append(Atom("isset", (leaf_oid,)))
        elif isinstance(path.leaf, Constant):
            atoms.append(Atom("atomic", (leaf_oid, path.leaf)))
        else:
            atoms.append(Atom("value_of", (leaf_oid, path.leaf)))
    # Deduplicate while preserving order.
    seen: set[Atom] = set()
    unique = []
    for atom in atoms:
        if atom not in seen:
            seen.add(atom)
            unique.append(atom)
    return unique


@dataclass
class Translation:
    """The Datalog program for one TSL rule (plus shared copy rules)."""

    rules: list[Rule]
    body_predicate: str


def copy_rules() -> list[Rule]:
    """The fixed recursive rules realizing TSL's copy semantics."""
    O, S, C, C2, L, V = (Variable(n) for n in ("O", "S", "C", "C2", "L", "V"))
    return [
        Rule(Atom("ans_member", (O, C)),
             (Literal(Atom("ans_hang", (O, S))),
              Literal(Atom("member", (S, C))))),
        Rule(Atom("ans_copied", (C,)),
             (Literal(Atom("ans_hang", (O, S))),
              Literal(Atom("member", (S, C))))),
        Rule(Atom("ans_copied", (C2,)),
             (Literal(Atom("ans_copied", (C,))),
              Literal(Atom("member", (C, C2))))),
        Rule(Atom("ans_label", (C, L)),
             (Literal(Atom("ans_copied", (C,))),
              Literal(Atom("label", (C, L))))),
        Rule(Atom("ans_atomic", (C, V)),
             (Literal(Atom("ans_copied", (C,))),
              Literal(Atom("atomic", (C, V))))),
        Rule(Atom("ans_isset", (C,)),
             (Literal(Atom("ans_copied", (C,))),
              Literal(Atom("isset", (C,))))),
        Rule(Atom("ans_member", (C, C2)),
             (Literal(Atom("ans_copied", (C,))),
              Literal(Atom("member", (C, C2))))),
    ]


def translate_rule(query: Query, index: int = 0) -> Translation:
    """Translate one TSL rule into Datalog rules deriving ``ans_*`` facts."""
    query = normalize(query)
    goals = tuple(Literal(a) for a in _body_atoms(query))
    body_vars = sorted(query.body_variables(), key=lambda v: v.name)
    predicate = f"q{index}_body"
    rules: list[Rule] = [
        Rule(Atom(predicate, tuple(body_vars)), goals)]
    assignment = Literal(Atom(predicate, tuple(body_vars)))

    def emit(head: Atom, *extra: Literal) -> None:
        rules.append(Rule(head, (assignment,) + tuple(extra)))

    def walk(pattern: ObjectPattern, parent: Term | None) -> None:
        oid = pattern.oid
        emit(Atom("ans_label", (oid, pattern.label)))
        if parent is not None:
            emit(Atom("ans_member", (parent, oid)))
        value = pattern.value
        if isinstance(value, SetPattern):
            emit(Atom("ans_isset", (oid,)))
            for child in value.patterns:
                walk(child, oid)
        elif isinstance(value, Constant):
            emit(Atom("ans_atomic", (oid, value)))
        elif isinstance(value, Variable):
            # Two cases, resolved by the EDB guards: the bound value is a
            # raw atom, or it is a set value to hang.
            emit(Atom("ans_atomic", (oid, value)),
                 Literal(Atom("atomvalue", (value,))))
            hang_target = Variable("S__hang")
            emit(Atom("ans_hang", (oid, hang_target)),
                 Literal(Atom("setvalue", (value, hang_target))))
            emit(Atom("ans_isset", (oid,)),
                 Literal(Atom("setvalue", (value, Variable("S__hang")))))
        else:
            raise TslError(f"cannot translate head value {value}")

    walk(query.head, None)
    rules.append(Rule(Atom("ans_root", (query.head.oid,)), (assignment,)))
    return Translation(rules=rules, body_predicate=predicate)


def evaluate_via_datalog(rules: list[Query] | Query,
                         sources: OemDatabase | Sources,
                         answer_name: str = "answer") -> OemDatabase:
    """Evaluate TSL rule(s) through the Datalog translation (E13)."""
    if isinstance(rules, Query):
        rules = [rules]
    sources = _as_sources(sources)
    edb: list[Atom] = []
    for db in sources.values():
        edb.extend(encode_database(db))
    program: list[Rule] = list(copy_rules())
    for index, tsl_rule in enumerate(rules):
        program.extend(translate_rule(tsl_rule, index).rules)
    model = datalog_evaluate(program, edb)
    return _decode_answer(model, answer_name)


def _decode_answer(model, answer_name: str) -> OemDatabase:
    answer = OemDatabase(answer_name)
    labels: dict[Term, Term] = {}
    for atom in model.facts("ans_label"):
        oid, label = atom.args
        if oid in labels and labels[oid] != label:
            raise FusionConflictError(
                f"object {oid} derived with labels {labels[oid]} and {label}")
        labels[oid] = label
    atomics: dict[Term, Term] = {}
    for atom in model.facts("ans_atomic"):
        oid, value = atom.args
        if oid in atomics and atomics[oid] != value:
            raise FusionConflictError(
                f"object {oid} derived with two atomic values")
        atomics[oid] = value
    sets = {atom.args[0] for atom in model.facts("ans_isset")}
    conflict = sets & set(atomics)
    if conflict:
        raise FusionConflictError(
            f"objects both atomic and set: {sorted(map(str, conflict))}")
    for oid, label in sorted(labels.items(), key=lambda kv: str(kv[0])):
        if not isinstance(label, Constant):
            raise TslError(f"non-constant label derived for {oid}")
        if oid in atomics:
            value = atomics[oid]
            assert isinstance(value, Constant)
            answer.add_atomic(oid, label.value, value.value)
        else:
            answer.add_set(oid, label.value)
    for atom in sorted(model.facts("ans_member"), key=str):
        parent, child = atom.args
        answer.add_child(parent, child)
    for atom in sorted(model.facts("ans_root"), key=str):
        answer.add_root(atom.args[0])
    answer.check_integrity()
    return answer
