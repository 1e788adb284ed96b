"""Seeded inputs for the benchmark workloads and their expected outputs.

Served requests come from *families*: one query template over one view
configuration, with a constant slot.  Filling the slot with distinct
constants gives queries with distinct canonical keys (so the server's
memo cannot answer them) but identical search work, which keeps the
per-request cost steady from seed to seed.  Each family carries its
expected rewriting set as templates over the same slot; a response is
correct when its rewritings are canonically equal to that set.
"""

from __future__ import annotations

import json
import random
from string import Template

from repro.repository import Repository
from repro.rewriting.canon import program_key
from repro.rewriting.constraints import PAPER_DTD
from repro.tsl import parse_query, print_query
from repro.workloads import (conference_query, conference_view,
                             generate_bibliography, view_v1)
from repro.workloads.biblio import CONFERENCES

#: The paper's people queries over (V1) under its DTD, each with the
#: rewriting set the algorithm finds.  Under the DTD, label inference
#: resolves Q5's middle label to ``name``, so Q5 and Q7 share one.
_PEOPLE = {
    # (Q3) a value under any label of a person.
    "q3": ("<f(P) stanford yes> :- <P p {<X Y $c>}>@db",
           ["<f(P) stanford yes> :- <g(P) p {<pp(P,Y) pr Y>}>@V1 AND "
            "<g(P) p {<h(X) v $c>}>@V1"]),
    # (Q5) a last name below any subobject of a person.
    "q5": ("<f(P) stanford yes> :- <P p {<X Y {<Z last $c>}>}>@db",
           ["<f(P) stanford yes> :- <g(P) p {<pp(P,name) pr name>}>@V1 "
            "AND <g(P) p {<h(X) v {<Z last $c>}>}>@V1"]),
    # (Q7) the same below a name.
    "q7": ("<f(P) stanford yes> :- <P p {<X name {<Z last $c>}>}>@db",
           ["<f(P) stanford yes> :- <g(P) p {<pp(P,name) pr name>}>@V1 "
            "AND <g(P) p {<h(X) v {<Z last $c>}>}>@V1"]),
}

#: Rewritings of "publications of $conf in year $c" over the cached
#: per-conference statements: total, and partial ones that keep a base
#: condition on ``db``.
_BIBLIO_EXPECTED = [
    "<hit(P) pub {<c(P,L,W) L W>}> :- "
    "<v(P) pub {<cv(P,year,$c) year $c>}>@V$conf AND "
    "<v(P) pub {<cv(P,L,W) L W>}>@V$conf",
    "<hit(P) pub {<c(P,L,W) L W>}> :- "
    "<v(P) pub {<cv(P,year,$c) year $c>}>@V$conf AND <P pub {<X L W>}>@db",
    "<hit(P) pub {<c(P,L,W) L W>}> :- "
    "<v(P) pub {<cv(P,L,W) L W>}>@V$conf AND <P pub {<Y year $c>}>@db",
    "<hit(P) pub {<c(P,L,W) L W>}> :- "
    "<v(P) pub {<cv(P,booktitle,$conf) booktitle $conf>}>@V$conf AND "
    "<P pub {<Y year $c>}>@db AND <P pub {<X L W>}>@db",
]
_YEAR_SLOT = 4321


class Family:
    """A query template with a constant slot ``$c`` over fixed views,
    and the templates of its expected rewritings."""

    def __init__(self, name: str, query: str, views: dict,
                 dtd: str | None, expected: list[str], warm) -> None:
        self.name = name
        self.query = Template(query)
        self.views = views
        self.dtd = dtd
        self.expected = [Template(text) for text in expected]
        #: A constant no measured request uses, for warm-up requests.
        self.warm = warm
        self._keys: dict = {}

    def query_text(self, constant) -> str:
        return self.query.substitute(c=constant)

    def payload(self, constant) -> bytes:
        body = {"query": self.query_text(constant), "views": self.views}
        if self.dtd is not None:
            body["dtd"] = self.dtd
        return json.dumps(body).encode("utf-8")

    def expected_key(self, constant) -> str:
        """Canonical fingerprint of the expected rewriting set."""
        key = self._keys.get(constant)
        if key is None:
            key = self._keys[constant] = program_key([
                parse_query(text.substitute(c=constant))
                for text in self.expected])
        return key


def families() -> list[Family]:
    """The request families: the paper's people queries under the DTD,
    and per-conference year filters over cached conference statements."""
    v1 = {"V1": print_query(view_v1())}
    out = [Family(name, query, v1, PAPER_DTD, expected, "zwarm")
           for name, (query, expected) in _PEOPLE.items()]
    biblio_views = {f"V{c}": print_query(conference_view(c, f"V{c}"))
                    for c in CONFERENCES}
    for conference in CONFERENCES:
        query = print_query(conference_query(conference, _YEAR_SLOT))
        expected = [Template(text).safe_substitute(conf=conference)
                    for text in _BIBLIO_EXPECTED]
        out.append(Family(f"biblio-{conference}",
                          query.replace(str(_YEAR_SLOT), "$c"),
                          biblio_views, None, expected, _YEAR_SLOT))
    return out


#: The serve-hot working set: the three requests of
#: ``benchmarks/bench_serve.py`` (the paper's Q3, Q5 and Q7 with their
#: own constants), as (family, constant).
HOT = (("q3", "leland"), ("q5", "stanford"), ("q7", "stanford"))


def hot_plan(seed: int, count: int) -> list[tuple[Family, object]]:
    """*count* requests drawn from :data:`HOT` in a seeded order."""
    rng = random.Random(seed)
    by_name = {family.name: family for family in families()}
    working = [(by_name[name], constant) for name, constant in HOT]
    return [rng.choice(working) for _ in range(count)]


#: Family kinds of serve-search in request order; every kind has the
#: same share in every run, so seeds differ only in constants and
#: conferences.  The equal shares are chosen to cover both view
#: configurations, not taken from measured traffic.
ROTATION = ("q3", "biblio", "q5", "q7")
#: The families of a search plan repeat after this many requests; the
#: requests at one position of the period differ only in their constant.
SEARCH_PERIOD = len(ROTATION) * len(CONFERENCES)


def search_plan(seed: int, count: int) -> list[tuple[Family, object]]:
    """*count* distinct request instances ``(family, constant)``.

    Families follow a fixed rotation (conferences in turn within the
    biblio kind) and the seed picks the constants, so every seed asks
    for the same work and no instance repeats.
    """
    rng = random.Random(seed)
    pool = families()
    by_kind = {kind: [f for f in pool if f.name.split("-")[0] == kind]
               for kind in ROTATION}
    hot = set(HOT)
    used: set = set()

    def fresh(index: int) -> tuple[Family, object]:
        kind = ROTATION[index % len(ROTATION)]
        options = by_kind[kind]
        family = options[index // len(ROTATION) % len(options)]
        while True:
            if kind == "biblio":
                constant = rng.randrange(1000, 10000)
            else:
                constant = f"w{rng.randrange(10 ** 6):06d}"
            key = (family.name, constant)
            if constant != family.warm and key not in used \
                    and key not in hot:
                used.add(key)
                return family, constant

    return [fresh(index) for index in range(count)]


# -- the repository workload --------------------------------------------------

#: Base publications in the store: the smallest size of
#: ``benchmarks/bench_cached_queries.py`` (E10), whose warm repository
#: caches every per-conference query as ``build_repository`` does.  The
#: query cache keeps the facade's default capacity (16, above the at
#: most 7 statements cached at once, so nothing is evicted).  The
#: persons added at set-up, their names and the operation mix below
#: have no counterpart in the repository: they are chosen so that every
#: repository layer is exercised, not taken from measured traffic.
PUBLICATIONS = 500
PERSONS = 40
PERSON_NAMES = 20

PERSON_VIEW = ("<v(P) person {<n(P,N) name N>}> :- "
               "<P person {<X name N>}>@db")

#: Operation kinds in order, one conference per cycle.  A conference
#: query caches the conference statement, which later year and title
#: queries are rewritten over.  Any insert invalidates statements with a
#: label variable (the conference queries); a person insert patches the
#: title statement (its labels are all constants and none is touched)
#: and leaves the person view stale until its next use.
REPO_ROTATION = ("conf", "conf_year", "person", "conf_year", "title",
                 "person", "add_person", "person", "conf_year", "add_pub",
                 "title", "person", "add_person", "title", "person")
#: Operations between rebuilds of the repository (one episode): one
#: cycle per conference.  Inserts grow the store, so without rebuilds a
#: faster machine would run later operations over a larger store.
EPISODE_OPS = len(REPO_ROTATION) * len(CONFERENCES)


def person_query(name: str):
    return parse_query(f"<r(P) person {{<m(P) name {name}>}}> :- "
                       f"<P person {{<X name {name}>}}>@db")


def title_query(conference: str):
    return parse_query(f"<t(P) title T> :- "
                       f"<P pub {{<B booktitle {conference}>}}>@db AND "
                       f"<P pub {{<X title T>}}>@db")


def add_person(repo, tag: str, name: str) -> None:
    repo.add_set(f"per{tag}", "person")
    repo.add_atomic(f"pn{tag}", "name", name)
    repo.add_child(f"per{tag}", f"pn{tag}")
    repo.add_root(f"per{tag}")


def add_publication(repo, tag: str, conference: str, year: int) -> None:
    pub = f"np{tag}"
    repo.add_set(pub, "pub")
    for label, value in (("title", f"new paper {tag}"),
                         ("booktitle", conference), ("year", year)):
        child = f"{pub}{label}"
        repo.add_atomic(child, label, value)
        repo.add_child(pub, child)
    repo.add_root(pub)


def build_repository(seed: int):
    """The store, its person view, and a cache warmed per conference."""
    rng = random.Random(seed)
    repo = Repository.from_database(
        generate_bibliography(PUBLICATIONS, seed=seed))
    for index in range(PERSONS):
        add_person(repo, f"s{index}",
                   f"n{rng.randrange(PERSON_NAMES)}")
    repo.define_view("Vperson", PERSON_VIEW)
    for conference in CONFERENCES:
        repo.query(conference_query(conference))
    return repo


class RepositoryPlan:
    """The seeded episode: ``op(position)`` is ``(kind, argument)`` where
    a query's argument is its parsed statement and an insert's is a
    callable applying it to a repository.

    Every episode runs the same operations on the same store, so the
    work at a position is identical from episode to episode.  Kinds,
    conferences and years follow a fixed schedule, so every seed
    exercises the cache the same way; the seed picks the store contents
    and the person names.
    """

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed * 7919 + 1)
        self.ops = [self._op(position, f"n{rng.randrange(PERSON_NAMES)}")
                    for position in range(EPISODE_OPS)]

    def op(self, position: int):
        return self.ops[position]

    @staticmethod
    def _op(position: int, name: str):
        kind = REPO_ROTATION[position % len(REPO_ROTATION)]
        cycle = position // len(REPO_ROTATION)
        conference = CONFERENCES[cycle % len(CONFERENCES)]
        year = 1990 + (3 * cycle + position) % 10
        if kind == "conf_year":
            return kind, conference_query(conference, year)
        if kind == "conf":
            return kind, conference_query(conference)
        if kind == "title":
            return kind, title_query(conference)
        if kind == "person":
            return kind, person_query(name)
        if kind == "add_person":
            return kind, lambda repo: add_person(repo, f"o{position}", name)
        return kind, lambda repo: add_publication(repo, f"{position}",
                                                  conference, year)
