"""The benchmark's fixed inputs, each with an answer known beforehand.

Answers come from construction (pattern families whose behaviour is
fixed by how they are built) or from the hand-written manifests of the
bundled corpora — never from the engine under test.  Nothing here
depends on the workload seed: the seed only orders the work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.api import prepare
from repro.lang.ast_nodes import Accept, For, If, Program, Send, TaskDecl, While
from repro.lang.parser import parse_program
from repro.lang.pretty import pretty
from repro.workloads import patterns
from repro.workloads.adl_corpus import adl_corpus, repair_corpus
from repro.workloads.corpus import paper_corpus
from repro.workloads.random_programs import (
    inject_deadlock,
    random_serializable_program,
)

from .common import quartiles


@dataclass(frozen=True)
class Case:
    """One input program and its known deadlock answer."""

    name: str
    text: str
    deadlock: bool
    origin: str  # "manifest" or "construction"


def _built(program: Program, deadlock: bool) -> Case:
    return Case(program.name, pretty(program), deadlock, "construction")


def with_chatter(program: Program, pairs: int, depth: int) -> Program:
    """``program`` plus ``pairs`` disjoint producer/consumer pairs that
    each exchange ``depth`` messages.  The pairs share no task or signal
    with ``program`` and always complete, so the answer is unchanged
    while the wave space grows by the pairs' interleavings."""
    tasks = list(program.tasks)
    for c in range(pairs):
        tasks.append(
            TaskDecl(
                name=f"chat{c}_tx",
                body=tuple(
                    Send(task=f"chat{c}_rx", message=f"c{c}m{i}")
                    for i in range(depth)
                ),
            )
        )
        tasks.append(
            TaskDecl(
                name=f"chat{c}_rx",
                body=tuple(Accept(message=f"c{c}m{i}") for i in range(depth)),
            )
        )
    return Program(
        name=f"{program.name}_chatter{pairs}x{depth}",
        tasks=tuple(tasks),
        procedures=program.procedures,
    )


def _corpora() -> List[Case]:
    cases = [
        Case(f"paper_{name}", pretty(e.program), e.expect_deadlock, "manifest")
        for name, e in paper_corpus().items()
    ]
    cases += [
        Case(f"adl_{name}", e.source, e.expect_deadlock, "manifest")
        for name, e in adl_corpus().items()
    ]
    # Every repair-corpus entry is a confirmed deadlock by its manifest.
    cases += [
        Case(f"repair_{name}", e.source, True, "manifest")
        for name, e in repair_corpus().items()
    ]
    return cases


# Pinned generator seeds and sizes (rendezvous steps; the sync graph has
# two rendezvous nodes per step).  Drawn once; never from the run seed.
_SERIALIZABLE = ((101, 3, 4), (102, 4, 9), (103, 4, 16), (104, 6, 30),
                 (105, 8, 55), (106, 10, 90))


def cold_cases() -> List[Case]:
    """``cold_corpus``: corpora plus pattern families and serializable
    programs spread log-uniformly from ~6 to ~200 rendezvous nodes."""
    P = patterns
    cases = _corpora()
    free = [
        P.pipeline(3, 2), P.pipeline(9, 2), P.pipeline(17, 2),
        P.pipeline(33, 2), P.pipeline(50, 2),
        P.handshake_chain(2, 2), P.handshake_chain(5, 2),
        P.handshake_chain(9, 2), P.handshake_chain(17, 2),
        P.barrier(2, 1), P.barrier(4, 2), P.barrier(8, 2),
        P.token_ring(3, 1), P.token_ring(6, 2), P.token_ring(16, 2),
        P.gossip_ring(5), P.gossip_ring(12), P.gossip_ring(24),
        P.gossip_ring(48), P.gossip_ring(90),
        P.master_workers(1, 1), P.master_workers(3, 2),
        P.master_workers(6, 2),
        P.client_server(2, 1), P.client_server(3, 2),
        P.client_server(7, 2), P.client_server(14, 2),
    ]
    cases += [_built(p, False) for p in free]
    deadlocked = [
        P.dining_philosophers(2), P.dining_philosophers(4),
        P.dining_philosophers(8), P.dining_philosophers(14),
        P.client_server(2, 1, shared_reply=True),
        P.client_server(5, 1, shared_reply=True),
        P.client_server(10, 2, shared_reply=True),
    ]
    cases += [_built(p, True) for p in deadlocked]
    for seed, tasks, steps in _SERIALIZABLE:
        program = random_serializable_program(
            tasks=tasks, rendezvous=steps, seed=seed, unique_messages=True
        )
        # unique_messages=True forces every pairing: provably free.
        cases.append(_built(program, False))
        cases.append(_built(inject_deadlock(program), True))
    return cases


def exact_cases() -> List[Case]:
    """``exact_confirm``: inputs refined flags, each with a known answer."""
    P = patterns
    cases: List[Case] = []
    # A deadlock behind a deep, narrow schedule.
    for depth, chatter in ((4, 2), (5, 3), (6, 3), (6, 4), (7, 4), (8, 4),
                           (9, 3)):
        cases.append(_built(P.corridor(depth, chatter), True))
    # Left-first dining: circular wait in a wide space.
    for n, pairs, depth in ((3, 2, 3), (3, 3, 3), (4, 1, 3), (4, 2, 3),
                            (5, 1, 3)):
        cases.append(
            _built(with_chatter(P.dining_philosophers(n), pairs, depth), True)
        )
    # Asymmetric dining: free, yet refined flags it, so refutation has
    # to exhaust the space.
    for n, pairs, depth in ((3, 1, 3), (3, 2, 2), (4, 0, 0), (4, 2, 3),
                            (3, 3, 3), (5, 1, 2)):
        program = P.dining_philosophers(n, deadlock=False)
        cases.append(_built(with_chatter(program, pairs, depth), False))
    for clients, requests in ((3, 1), (4, 1), (5, 2)):
        cases.append(
            _built(P.client_server(clients, requests, shared_reply=True), True)
        )
    cases += [
        Case(f"repair_{name}", e.source, True, "manifest")
        for name, e in repair_corpus().items()
    ]
    return cases


def with_unmatched_send(program: Program) -> Program:
    """``program`` whose first task ends with a send nobody accepts: a
    stall, reported as ADL001 at a source line, and still no deadlock —
    the send comes after every other rendezvous of its task."""
    first = program.tasks[0]
    tail = Send(task=program.tasks[1].name, message="flush")
    return Program(
        name=f"{program.name}_flush",
        tasks=(TaskDecl(name=first.name, body=first.body + (tail,)),)
        + program.tasks[1:],
        procedures=program.procedures,
    )


def daemon_workspace() -> List[Case]:
    """``daemon_session``: the ADL corpus, generated programs of 10–40
    rendezvous nodes, and stall variants whose reports carry
    line-located diagnostics."""
    P = patterns
    cases = [
        Case(f"adl_{name}", e.source, e.expect_deadlock, "manifest")
        for name, e in adl_corpus().items()
    ]
    generated = [
        (P.pipeline(4, 2), False), (P.pipeline(8, 2), False),
        (P.handshake_chain(3, 2), False), (P.handshake_chain(5, 2), False),
        (P.gossip_ring(10), False), (P.gossip_ring(20), False),
        (P.token_ring(5, 2), False), (P.barrier(3, 1), False),
        (P.client_server(3, 2), False), (P.master_workers(2, 2), False),
        (P.dining_philosophers(3), True), (P.dining_philosophers(4), True),
        (P.client_server(4, 1, shared_reply=True), True),
        (P.corridor(4, 1), True),
    ]
    cases += [_built(p, d) for p, d in generated]
    for seed in range(201, 215):
        program = random_serializable_program(
            tasks=4, rendezvous=5 + 5 * (seed % 4), seed=seed,
            unique_messages=True,
        )
        cases.append(_built(program, False))
        cases.append(_built(inject_deadlock(program), True))
    stalls = [P.pipeline(5, 2), P.gossip_ring(8), P.client_server(3, 1),
              P.handshake_chain(4, 1)]
    cases += [_built(with_unmatched_send(p), False) for p in stalls]
    return cases


def _statements(body):
    for stmt in body:
        yield stmt
        for name in ("then_body", "else_body", "body"):
            yield from _statements(getattr(stmt, name, ()))


def input_properties(cases: List[Case]) -> dict:
    """Shares of the input properties analysis cost depends on, so a
    later claim can cite how much of a workload has each property."""
    sizes, loops, branches, procedures = [], 0, 0, 0
    for case in cases:
        program = parse_program(case.text)
        stmts = [
            s
            for body in [t.body for t in program.tasks]
            + [p.body for p in program.procedures]
            for s in _statements(body)
        ]
        loops += any(isinstance(s, (While, For)) for s in stmts)
        branches += any(isinstance(s, If) for s in stmts)
        procedures += bool(program.procedures)
        sizes.append(len(prepare(program).sync_graph.rendezvous_nodes))
    n = len(cases)
    return {
        "programs": n,
        "rendezvous_nodes_quartiles": quartiles(sizes),
        "rendezvous_nodes_range": [min(sizes), max(sizes)],
        "share_with_loops": round(loops / n, 4),
        "share_with_branches": round(branches / n, 4),
        "share_with_procedures": round(procedures / n, 4),
        "label_mix": {
            "deadlock": sum(c.deadlock for c in cases),
            "free": sum(not c.deadlock for c in cases),
        },
        "answer_origin": {
            origin: sum(c.origin == origin for c in cases)
            for origin in ("manifest", "construction")
        },
    }
