"""The four PQA workloads: inputs made from a seed, the operations of
one round, and the checks each operation's output must pass.

Every workload runs in whole rounds of the same operations, driven by
one client thread (a closed loop: the next operation starts when the
previous one has returned).  An operation is either a *query* (an
answer over data the session has already seen) or an *update* (a data
change at a neighbour, timed to the first answer over the new data).

Inputs keep the same shape for every seed — same sizes, same number of
conflicts and solutions — and the seed chooses their content: which
rows, which keys conflict, which constants queries name, which peer an
update hits.  So runs on different seeds measure the same amount of
work, and their spread shows the machine, not the inputs.
"""

from __future__ import annotations

import random
from typing import Callable

import oracle
from oracle import Expected, QueryForm

from repro.core import PeerQuerySession
from repro.net import open_session
from repro.workloads import (
    conflict_chain_system,
    import_star_system,
    referential_system,
    topology_system,
)


def derive(seed: int, *parts) -> random.Random:
    """A generator for one named part of a run's inputs."""
    return random.Random("/".join(str(p) for p in (seed, *parts)))


def replace_rows(system, changes: dict):
    """The system with whole relations swapped for new row sets."""
    instance = system.global_instance().replace_relations(changes)
    return system.with_global_instance(instance)


def relabel(system, rng: random.Random):
    """The system with every constant given a seeded suffix of fixed
    length: the same structure and sizes, different content."""
    instance = system.global_instance()
    names: dict[str, str] = {}

    def rename(value: str) -> str:
        if value not in names:
            names[value] = f"{value}x{rng.getrandbits(16):04x}"
        return names[value]

    return system.with_global_instance(instance.replace_relations({
        relation: [tuple(rename(v) for v in row)
                   for row in sorted(instance.tuples(relation))]
        for relation in sorted(instance.relations())}))


def answer_problems(result, expected: set, what: str) -> list[str]:
    if result.error is not None:
        return [f"{what}: {result.error}"]
    if set(result.answers) != expected:
        missing = sorted(expected - set(result.answers))[:3]
        extra = sorted(set(result.answers) - expected)[:3]
        return [f"{what}: answers differ (missing {missing}, "
                f"unexpected {extra})"]
    return []


# ----------------------------------------------------------------------
# Cold streams: a fresh session per query, a re-solve per update
# ----------------------------------------------------------------------
class ColdStream:
    """Cold ``asp`` queries on one seeded input family.

    A round makes three operations on a new input S:

    1. query — a fresh session answers over S;
    2. update — a neighbour's data changes (S → S'), the same session
       takes it through ``use_system`` and answers over S';
    3. query — a fresh session answers over S', which is also the
       check that the updated session equals a fresh one.
    """

    def __init__(self, seed: int, label: str, build: Callable,
                 peer: str, form: QueryForm, expect: Callable,
                 update: Callable) -> None:
        self.seed, self.label = seed, label
        self.build, self.peer, self.form = build, peer, form
        self.expect, self.update = expect, update

    def answer(self, session):
        return session.answer(self.peer, self.form.text, method="asp")

    def check(self, system, session, result) -> list[str]:
        expected: Expected = self.expect(system)
        problems = answer_problems(result, expected.certain(self.form),
                                   f"{self.label} certain")
        if result.solution_count != expected.solutions:
            problems.append(f"{self.label}: {result.solution_count} "
                            f"solutions, expected {expected.solutions}")
        possible = session.answer(self.peer, self.form.text, method="asp",
                                  semantics="possible")
        problems += answer_problems(possible, expected.possible(self.form),
                                    f"{self.label} possible")
        if not result.answers <= possible.answers:
            problems.append(f"{self.label}: certain not within possible")
        return problems

    def setup(self, index: int) -> None:
        self.answer(PeerQuerySession(self.build(derive(self.seed,
                                                       "setup", index))))

    def round(self, run, index: int) -> None:
        rng = derive(self.seed, self.label, index)
        system = self.build(rng)
        sessions = {}

        def cold(key, data):
            def action():
                sessions[key] = PeerQuerySession(data)
                return self.answer(sessions[key])
            return action

        run.op("query", cold("first", system),
               lambda r: self.check(system, sessions["first"], r))
        updated = self.update(system, rng)
        after = run.op(
            "update",
            lambda: self.answer(sessions["first"].use_system(updated)),
            lambda r: self.check(updated, sessions["first"], r))

        def same_as_updated(result) -> list[str]:
            problems = self.check(updated, sessions["fresh"], result)
            if after is not None and result.answers != after.answers:
                problems.append(f"{self.label}: updated session differs "
                                f"from a fresh one")
            return problems

        run.op("query", cold("fresh", updated), same_as_updated)


def _star(rng: random.Random):
    return _pinned_star(rng, STAR_TUPLES, STAR_CONFLICTS, STAR_PINS)


def _replace_fresh_row(system, rng: random.Random):
    """Swap one neighbour row that P0 does not already hold for a new
    one (the answer loses one row and gains another)."""
    own = {key for key, _value in oracle.rows(system, "P0")}
    neighbour = rng.choice(["P1", "P2"])
    relation = oracle.relation_of(system, neighbour)
    rows = sorted(oracle.rows(system, neighbour))
    fresh = [row for row in rows if row[0] not in own]
    gone = rng.choice(fresh)
    tag = f"{neighbour[1:]}u{rng.getrandbits(32):08x}"
    rows.remove(gone)
    rows.append((f"n{tag}", f"nv{tag}"))
    return replace_rows(system, {relation: rows})


def _pinned_star(rng: random.Random, tuples: int, conflicts: int,
                 pins: int):
    """An ``import_star_system`` in which exactly ``pins`` of the
    contradicted keys are pinned by an import, whatever the seed, so
    every input has 2^(conflicts - pins) solutions."""
    system = import_star_system(tuples, 2, conflicts=conflicts,
                                seed=rng.getrandbits(32))
    contested = sorted(key for key, _v in oracle.rows(system, "PC"))
    own = dict(oracle.rows(system, "P0"))
    rng.shuffle(contested)
    changes = {}
    for neighbour in ("P1", "P2"):
        relation = oracle.relation_of(system, neighbour)
        changes[relation] = [row for row in oracle.rows(system, neighbour)
                             if row[0] not in contested]
    changes["M1"] += [(key, own[key]) for key in contested[:pins]]
    return replace_rows(system, changes)


#: cold-asp input: P0 with this many own rows, two importing
#: neighbours, a same-trust peer contradicting STAR_CONFLICTS keys of
#: which STAR_PINS are pinned (4 solutions)
STAR_TUPLES = 50
STAR_CONFLICTS = 3
STAR_PINS = 1


class ColdWorkload:
    """A workload of cold streams, one round of each per round."""

    name = ""
    trace_rounds = 0

    def __init__(self, seed: int) -> None:
        self.streams = self.make_streams(seed)
        self.rounds = 0

    def make_streams(self, seed: int) -> list[ColdStream]:
        raise NotImplementedError

    def setup(self, index: int) -> None:
        for stream in self.streams:
            stream.setup(index)

    def round(self, run) -> None:
        for stream in self.streams:
            stream.round(run, self.rounds)
        self.rounds += 1

    def close(self) -> None:
        pass


class ColdAsp(ColdWorkload):
    """Cold ``asp`` queries on a stream of distinct star systems."""

    name = "cold-asp"
    trace_rounds = 48

    def make_streams(self, seed: int) -> list[ColdStream]:
        return [ColdStream(seed, "star", _star, "P0", oracle.full("R0"),
                           lambda s: oracle.importing_root(s, "P0"),
                           _replace_fresh_row)]


#: many-repairs inputs: 2^CHAIN_CONFLICTS and
#: (REF_WITNESSES+1)^REF_VIOLATIONS solutions
CHAIN_CONFLICTS = 6
CHAIN_CLEAN = 20
REF_VIOLATIONS = 3
REF_WITNESSES = 2
REF_SATISFIED = 4


def _chain(rng: random.Random):
    return relabel(conflict_chain_system(CHAIN_CONFLICTS,
                                         n_clean=CHAIN_CLEAN), rng)


def _move_conflict(system, rng: random.Random):
    """P3 stops contradicting one key of P1 and contradicts a clean one
    instead: still 2^n solutions, one certain row swapped."""
    mine = sorted(oracle.rows(system, "P1"))
    theirs = sorted(oracle.rows(system, "P3"))
    contested = {key for key, _value in theirs}
    clean = [key for key, _value in mine if key not in contested]
    dropped = rng.choice(theirs)
    theirs.remove(dropped)
    theirs.append((rng.choice(clean), f"w{rng.getrandbits(16):04x}"))
    return replace_rows(system, {"R3": theirs})


def _referential(rng: random.Random):
    return relabel(referential_system(REF_VIOLATIONS, REF_WITNESSES,
                                      n_satisfied=REF_SATISFIED), rng)


def _drop_witness(system, rng: random.Random):
    """Q withdraws the only witness of one satisfied R1 row, which P
    must then delete in every solution."""
    r2 = oracle.rows_of(system, "P", "R2")
    s2 = sorted(oracle.rows_of(system, "Q", "S2"))
    witnesses = {w for _x, w in r2}
    dropped = rng.choice([row for row in s2 if row[1] in witnesses])
    s2.remove(dropped)
    return replace_rows(system, {"S2": s2})


class ManyRepairs(ColdWorkload):
    """Cold ``asp`` queries on peers with exponentially many solutions:
    a conflict chain and a referential DEC, alternately."""

    name = "many-repairs"
    trace_rounds = 24

    def make_streams(self, seed: int) -> list[ColdStream]:
        return [
            ColdStream(seed, "chain", _chain, "P1", oracle.full("R1"),
                       oracle.conflict_chain, _move_conflict),
            ColdStream(seed, "referential", _referential, "P",
                       oracle.full("R1"), oracle.referential,
                       _drop_witness),
        ]


# ----------------------------------------------------------------------
# warm-update: reads beside updates on one long-lived session
# ----------------------------------------------------------------------
#: warm-update input: P0's own rows, the contradicted keys, and how
#: many of those an import pins (so 2^(4-1) = 8 solutions throughout)
WARM_TUPLES = 60
WARM_CONFLICTS = 4
WARM_PINS = 1
#: the reads between two updates: every query shape in every mode, this
#: many times over, in a seeded order (a fixed mix keeps the traffic
#: per query the same for every seed)
WARM_REPEATS = 2
WARM_MODES = (("auto", "certain"), ("asp", "certain"), ("asp", "possible"))
WARM_SHAPES = ("full", "keys", "by_key", "by_value")


def _move_pin(system, rng: random.Random):
    """Unpin one contradicted key and pin another."""
    own = dict(oracle.rows(system, "P0"))
    contested = sorted(key for key, _v in oracle.rows(system, "PC"))
    changes = {}
    pinned = []
    for neighbour in ("P1", "P2"):
        relation = oracle.relation_of(system, neighbour)
        rows = sorted(oracle.rows(system, neighbour))
        pinned += [(relation, row) for row in rows if row[0] in contested]
        changes[relation] = rows
    relation, row = rng.choice(pinned)
    changes[relation].remove(row)
    held = {r[0] for _rel, r in pinned}
    key = rng.choice([k for k in contested if k not in held])
    changes[rng.choice(["M1", "M2"])].append((key, own[key]))
    return replace_rows(system, changes)


class WarmUpdate:
    """One long-lived session: a seeded mix of ``auto`` (rewriting),
    ``asp`` certain and ``asp`` possible reads, and after every
    round of reads a data update at a neighbour."""

    name = "warm-update"
    trace_rounds = 40

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rounds = 0
        self.system = None
        self.session = None

    def setup(self, index: int) -> None:
        self.system = _pinned_star(derive(self.seed, "system"),
                                   WARM_TUPLES, WARM_CONFLICTS, WARM_PINS)
        self.session = PeerQuerySession(self.system)
        self.session.answer("P0", oracle.full("R0").text, method="asp")

    def _form(self, shape: str, rng: random.Random) -> QueryForm:
        if shape == "full":
            return oracle.full("R0")
        if shape == "keys":
            return oracle.keys("R0")
        expected = oracle.importing_root(self.system, "P0").largest
        key, value = rng.choice(sorted(expected))
        if shape == "by_key":
            return oracle.by_key("R0", key)
        return oracle.by_value("R0", value)

    def round(self, run) -> None:
        rng = derive(self.seed, "round", self.rounds)
        expected = oracle.importing_root(self.system, "P0")
        seen: dict[tuple, frozenset] = {}
        reads = [(shape, mode) for shape in WARM_SHAPES
                 for mode in WARM_MODES] * WARM_REPEATS
        rng.shuffle(reads)
        for shape, (method, semantics) in reads:
            form = self._form(shape, rng)

            def check(result, form=form, semantics=semantics):
                want = (expected.certain(form) if semantics == "certain"
                        else expected.possible(form))
                problems = answer_problems(
                    result, want, f"{method} {semantics} {form.text}")
                seen[(form.text, semantics)] = result.answers
                certain = seen.get((form.text, "certain"))
                possible = seen.get((form.text, "possible"))
                if certain is not None and possible is not None \
                        and not certain <= possible:
                    problems.append(f"{form.text}: certain not within "
                                    f"possible")
                return problems

            run.op("query",
                   lambda form=form, method=method, semantics=semantics:
                   self.session.answer("P0", form.text, method=method,
                                       semantics=semantics),
                   check)
        if self.rounds % 2:
            updated = _move_pin(self.system, rng)
        else:
            updated = _replace_fresh_row(self.system, rng)
        form = oracle.full("R0")

        def check_update(result) -> list[str]:
            want = oracle.importing_root(updated, "P0")
            problems = answer_problems(result, want.certain(form),
                                       "update certain")
            fresh = PeerQuerySession(updated).answer(
                "P0", form.text, method="asp")
            if fresh.answers != result.answers:
                problems.append("updated session differs from a fresh one")
            return problems

        run.op("update",
               lambda: self.session.use_system(updated).answer(
                   "P0", form.text, method="asp"),
               check_update)
        self.system = updated
        self.rounds += 1

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# net-gather: in-process peer network with routing
# ----------------------------------------------------------------------
#: net-gather graph: a fixed random DAG with diamonds; the seed chooses
#: the rows, the updated leaves and the query constants
NET_PEERS = 20
NET_TUPLES = 6
NET_EXTRA_EDGES = 6
NET_CONFLICTS = 2
NET_GRAPH_SEED = 11
#: roots queried besides P0
NET_ROOTS = 3


def _net_system(rng: random.Random):
    """The fixed graph, with rows drawn from ``rng`` in the generator's
    shape (keys from a shared pool, so imports overlap and collide)."""
    graph = topology_system(NET_PEERS, topology="random",
                            n_tuples=NET_TUPLES, conflicts=NET_CONFLICTS,
                            extra_edges=NET_EXTRA_EDGES,
                            seed=NET_GRAPH_SEED)
    pool = [f"k{i}" for i in range(max(4, NET_TUPLES))]
    changes = {}
    for index in range(NET_PEERS):
        changes[f"R{index}"] = [(rng.choice(pool), f"v{index}_{j}")
                                for j in range(NET_TUPLES)]
    root_keys = sorted({key for key, _v in changes["R0"]})
    changes["C0"] = [(root_keys[i % len(root_keys)], f"w{i}")
                     for i in range(NET_CONFLICTS)]
    return replace_rows(graph, changes)


class NetGather:
    """Queries at several roots of an in-process routed network,
    interleaved with syncs of leaf peers' data: each sync is followed by
    an update answer at ``P0`` and queries at every root."""

    name = "net-gather"
    trace_rounds = 30

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rounds = 0
        self.system = None
        self.session = None
        self.local = None

    def setup(self, index: int) -> None:
        if self.session is not None:
            self.session.close()
        self.system = _net_system(derive(self.seed, "system"))
        self.session = open_session(self.system, network=True,
                                    routing=True)
        self.local = PeerQuerySession(self.system)
        graph = self.system
        inner = sorted((p for p in graph.peers
                        if p not in ("P0", "PC")
                        and len(graph.neighbours(p)) >= 2),
                       key=lambda p: (-len(graph.neighbours(p)), p))
        self.roots = ["P0"] + inner[:NET_ROOTS]
        self.leaves = sorted(p for p in graph.peers
                             if p != "PC" and not graph.neighbours(p))
        for root in self.roots:
            self.session.answer(root, oracle.full(
                oracle.relation_of(graph, root)).text)

    def _check(self, root: str, form: QueryForm):
        def check(result) -> list[str]:
            expected = oracle.importing_root(self.system, root)
            problems = answer_problems(result, expected.certain(form),
                                       f"{root} {form.text}")
            local = self.local.answer(root, form.text)
            if local.answers != result.answers:
                problems.append(f"{root} {form.text}: network differs "
                                f"from the local session")
            return problems
        return check

    def round(self, run) -> None:
        rng = derive(self.seed, "round", self.rounds)
        pool = [f"k{i}" for i in range(max(4, NET_TUPLES))]
        # every leaf once per round, in a seeded order: the same mix of
        # near and far updates for every seed
        for leaf in rng.sample(self.leaves, len(self.leaves)):
            relation = oracle.relation_of(self.system, leaf)
            rows = sorted(oracle.rows(self.system, leaf))
            rows.remove(rng.choice(rows))
            rows.append((rng.choice(pool),
                         f"v{leaf[1:]}_u{rng.getrandbits(16):04x}"))
            updated = replace_rows(self.system, {relation: rows})
            self.system = updated
            self.local.use_system(updated)
            first = oracle.by_key("R0", rng.choice(pool))
            run.op("update",
                   lambda: self.session.use_system(updated).answer(
                       "P0", first.text),
                   self._check("P0", first))
            for root in self.roots:
                root_relation = oracle.relation_of(self.system, root)
                forms = [oracle.full(root_relation)]
                if root != "P0":
                    forms.insert(0, oracle.by_key(root_relation,
                                                  rng.choice(pool)))
                for form in forms:
                    run.op("query",
                           lambda root=root, form=form:
                           self.session.answer(root, form.text),
                           self._check(root, form))
        self.rounds += 1

    def close(self) -> None:
        if self.session is not None:
            self.session.close()


WORKLOADS = {w.name: w for w in (ColdAsp, ManyRepairs, WarmUpdate,
                                 NetGather)}
