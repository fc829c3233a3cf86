"""Answers computed apart from the program, to check every operation.

Every input family the benchmark uses has solutions of a known shape,
so its peer consistent answers have a closed form that needs no
repairs, no grounding and no search:

* **star / topology roots** (``import_star_system``, ``topology_system``):
  stage 1 inserts every row imported from a more-trusted neighbour; at
  stage 2 each key that a same-trust ``C0`` row contradicts is either
  kept (the ``C0`` row goes) or has all its rows deleted — unless an
  import *pins* it, which leaves only the first choice.  So there are
  ``2^unpinned`` solutions, the smallest holds own ∪ imports minus the
  unpinned keys' rows, the largest holds own ∪ imports;
* **conflict chain** (``conflict_chain_system``): each of the n
  contradicted keys is kept or deleted, 2^n solutions; certain answers
  are the clean rows, possible answers every row;
* **referential** (``referential_system``): each violating ``R1`` row is
  deleted or gets one of its w candidate witnesses, (w+1)^n solutions;
  a row whose witnesses are all gone is deleted in every solution.

The benchmark's queries are monotone, so their certain answers are the
query over the smallest solution and their possible answers the query
over the largest.  Queries are evaluated here by plain Python over
row sets, never by the program's evaluators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

Rows = frozenset


@dataclass(frozen=True)
class QueryForm:
    """A query as the program reads it, and as this module evaluates it
    over one binary relation's rows."""

    text: str
    evaluate: Callable[[Iterable[tuple]], set]


def full(relation: str) -> QueryForm:
    return QueryForm(f"q(X, Y) := {relation}(X, Y)",
                     lambda rows: {tuple(r) for r in rows})


def by_key(relation: str, key: str) -> QueryForm:
    return QueryForm(f"q(Y) := {relation}({key}, Y)",
                     lambda rows: {(v,) for k, v in rows if k == key})


def by_value(relation: str, value: str) -> QueryForm:
    return QueryForm(f"q(X) := {relation}(X, {value})",
                     lambda rows: {(k,) for k, v in rows if v == value})


def keys(relation: str) -> QueryForm:
    return QueryForm(f"q(X) := exists Y {relation}(X, Y)",
                     lambda rows: {(k,) for k, _v in rows})


@dataclass(frozen=True)
class Expected:
    """The smallest and largest solution of the queried relation, and
    the number of solutions."""

    smallest: Rows
    largest: Rows
    solutions: int

    def certain(self, form: QueryForm) -> set:
        return form.evaluate(self.smallest)

    def possible(self, form: QueryForm) -> set:
        return form.evaluate(self.largest)


def relation_of(system, peer: str) -> str:
    """The single relation every peer of these families owns."""
    (name,) = system.peer(peer).schema.names
    return name


def rows(system, peer: str) -> Rows:
    return rows_of(system, peer, relation_of(system, peer))


def rows_of(system, peer: str, relation: str) -> Rows:
    return system.instances[peer].tuples(relation)


def importing_root(system, root: str) -> Expected:
    """Closed form for a peer that imports its neighbours' rows by full
    inclusions (`less` trust) and meets same-trust ``C0`` conflicts on
    keys (the star and topology families)."""
    own = set(rows(system, root))
    imported: set = set()
    conflicting: set = set()
    for exchange in system.decs_of(root):
        level = system.trust.level(root, exchange.other)
        if level is None:
            continue
        other_rows = rows(system, exchange.other)
        if level == "same":
            conflicting |= other_rows
        else:
            imported |= other_rows
    largest = frozenset(own | imported)
    pinned = {key for key, _value in imported}
    contradicted = {key for key, value in conflicting
                    if any(k == key and v != value for k, v in largest)}
    unpinned = contradicted - pinned
    smallest = frozenset(r for r in largest if r[0] not in unpinned)
    return Expected(smallest, largest, 2 ** len(unpinned))


def conflict_chain(system) -> Expected:
    """Closed form for ``P1`` of ``conflict_chain_system``."""
    mine = rows(system, "P1")
    theirs = rows(system, "P3")
    contradicted = {k for k, v in mine
                    if any(k2 == k and v2 != v for k2, v2 in theirs)}
    smallest = frozenset(r for r in mine if r[0] not in contradicted)
    return Expected(smallest, mine, 2 ** len(contradicted))


def referential(system) -> Expected:
    """Closed form for ``R1`` at ``P`` of ``referential_system``.

    Each ``R1`` row meets at most one ``S1`` row (the generator gives
    every middle value one partner); a row whose partner has no
    matching ``R2``/``S2`` witness violates the DEC.
    """
    r1, r2 = rows_of(system, "P", "R1"), rows_of(system, "P", "R2")
    s1, s2 = rows_of(system, "Q", "S1"), rows_of(system, "Q", "S2")
    kept, forced, solutions = set(), set(), 1
    for x, y in r1:
        partners = [z for z, m in s1 if m == y]
        if len(partners) > 1:
            raise ValueError(f"R1 row {(x, y)} joins several S1 rows")
        if not partners:
            kept.add((x, y))
            continue
        witnesses = {w for z, w in s2 if z == partners[0]}
        if any((x, w) in r2 for w in witnesses):
            kept.add((x, y))
        elif witnesses:
            solutions *= len(witnesses) + 1
        else:
            forced.add((x, y))
    return Expected(frozenset(kept), frozenset(r1 - forced), solutions)
