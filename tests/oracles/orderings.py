"""Set-based oracle for the must-ordering framework (paper §4.1).

The worklist evaluation of the prefix-sound REL closure as it stood
before :mod:`repro.analysis.orderings` moved to semi-naive folding over
dense-id rows: per-task networkx dominator trees, a reverse-dependency
worklist that re-folds every member's row on each re-evaluation, and
``SyncNode``-keyed results.  ``compute_orderings`` here returns the
``precedes`` dict the product exposes as
:attr:`~repro.analysis.orderings.OrderingInfo.precedes`;
``tests/test_orderings.py`` compares the two on cyclic and acyclic
graphs.
"""

from __future__ import annotations

import warnings
from typing import Dict, FrozenSet, List, Set, Tuple

import networkx as nx

from repro import obs
from repro.syncgraph.model import SyncGraph, SyncNode


def _task_control_graph(graph: SyncGraph, task: str) -> "nx.DiGraph":
    """Per-task control graph rooted at ``b``: the task's rendezvous
    nodes plus ``b``/``e`` with the control edges among them."""
    g = nx.DiGraph()
    nodes = set(graph.nodes_of_task(task))
    g.add_node(graph.b)
    g.add_node(graph.e)
    g.add_nodes_from(nodes)
    for src, dst in graph.control_edges():
        src_ok = src is graph.b or src in nodes
        dst_ok = dst is graph.e or dst in nodes
        if src_ok and dst_ok:
            g.add_edge(src, dst)
    return g


def strict_dominators(graph: SyncGraph) -> Dict[SyncNode, FrozenSet[SyncNode]]:
    """Strict rendezvous dominators of each node within its task.

    ``d ∈ strict_dominators[x]`` means every control path from program
    start to ``x`` in ``x``'s task passes through (and therefore
    completes) ``d`` first.
    """
    result: Dict[SyncNode, FrozenSet[SyncNode]] = {}
    for task in graph.tasks:
        g = _task_control_graph(graph, task)
        task_nodes = [n for n in g.nodes if n.is_rendezvous]
        if not task_nodes:
            continue
        idom = nx.immediate_dominators(g, graph.b)
        for node in task_nodes:
            doms: Set[SyncNode] = set()
            walker = node
            while walker in idom and idom[walker] is not walker:
                walker = idom[walker]
                if walker.is_rendezvous:
                    doms.add(walker)
            result[node] = frozenset(doms)
    for node in graph.rendezvous_nodes:
        result.setdefault(node, frozenset())
    return result


def _counting_seeds(
    graph: SyncGraph, doms: Dict[SyncNode, FrozenSet[SyncNode]]
) -> List[Tuple[SyncNode, SyncNode]]:
    """Counting-rule seed facts ``REL(last, other_side_node)``.

    For a signal whose accept (resp. send) nodes all sit in one task in
    a strict domination chain, with equally many nodes on the other
    side: completing the chain's last node forces completion of every
    node on the other side.  Only sound when nodes fire at most once,
    i.e. acyclic control flow — the caller checks that.
    """
    seeds: List[Tuple[SyncNode, SyncNode]] = []
    for signal in graph.signals:
        senders = graph.senders_of(signal)
        accepters = graph.accepters_of(signal)
        if not senders or not accepters or len(senders) != len(accepters):
            continue
        for side, other in ((accepters, senders), (senders, accepters)):
            tasks = {n.task for n in side}
            if len(tasks) != 1:
                continue
            chain = sorted(
                side, key=lambda n: sum(1 for m in side if m in doms[n])
            )
            ok = all(
                chain[i] in doms[chain[i + 1]] for i in range(len(chain) - 1)
            )
            if not ok:
                continue
            last = chain[-1]
            seeds.extend((last, o) for o in other)
    return seeds


def compute_orderings(
    graph: SyncGraph, max_iterations: int = 10_000
) -> Dict[SyncNode, FrozenSet[SyncNode]]:
    """Least fixpoint of the prefix-sound REL closure; see module docs.

    Works for cyclic control flow too (every clause reads "has
    completed at least once"), but the counting and transitivity
    strengthenings assume each node fires at most once and are only
    applied on acyclic control subgraphs.

    The fixpoint is solved with a reverse-dependency worklist over
    integer bitsets: a node is re-evaluated only when a fact it reads —
    a dominator's or sync partner's REL row, or (for the transitive
    clause) the row of a current member — actually grew, instead of the
    reference round-robin Gauss–Seidel sweeps that re-visit every node
    per round.  The work budget is ``max_iterations × |nodes|``
    evaluations (the sweep equivalent); exhausting it returns the
    partial fixpoint, which is sound (a subset of the derivable facts,
    so strictly less pruning) but imprecise, and warns.
    """
    nodes = graph.rendezvous_nodes
    n = len(nodes)
    if n == 0:
        return {}
    rid = {node: i for i, node in enumerate(nodes)}
    doms = strict_dominators(graph)
    acyclic = not graph.has_control_cycle()

    dom_bits = [0] * n
    for x in nodes:
        xi = rid[x]
        for d in doms[x]:
            dom_bits[xi] |= 1 << rid[d]
    partner_ids: List[Tuple[int, ...]] = [
        tuple(rid[p] for p in graph.sync_neighbors(x)) for x in nodes
    ]

    # rel[x] = bitset of h with REL(x, h): "x completed => h completed".
    rel = [(1 << i) | dom_bits[i] for i in range(n)]
    if acyclic:
        for x, h in _counting_seeds(graph, doms):
            rel[rid[x]] |= 1 << rid[h]

    # Static reverse dependencies: when rel[y] grows, re-evaluate every
    # x that reads rel[y] through the dominator or all-partners clause.
    dep_static = [0] * n
    for i in range(n):
        bit = 1 << i
        m = dom_bits[i]
        while m:
            d = (m & -m).bit_length() - 1
            m &= m - 1
            dep_static[d] |= bit
        for p in partner_ids[i]:
            dep_static[p] |= bit

    # Dynamic reverse dependencies for the transitive clause:
    # member_of[y] = bitset of x with y ∈ rel[x], maintained as rows grow.
    member_of = [0] * n
    for i in range(n):
        bit = 1 << i
        m = rel[i]
        while m:
            y = (m & -m).bit_length() - 1
            m &= m - 1
            member_of[y] |= bit

    budget = max_iterations * n
    steps = 0
    exhausted = False
    worklist = (1 << n) - 1
    while worklist:
        if steps >= budget:
            exhausted = True
            break
        x = (worklist & -worklist).bit_length() - 1
        worklist &= worklist - 1
        steps += 1
        cur = rel[x]
        new = cur
        m = dom_bits[x]
        while m:
            d = (m & -m).bit_length() - 1
            m &= m - 1
            new |= rel[d]
        pids = partner_ids[x]
        if pids:
            common = rel[pids[0]]
            for p in pids[1:]:
                common &= rel[p]
                if not common:
                    break
            new |= common
        if acyclic:
            # Transitive closure: x completed => y completed => ...
            # One pass over the pre-clause members; re-enqueueing below
            # covers anything the new members imply.
            m = new
            while m:
                y = (m & -m).bit_length() - 1
                m &= m - 1
                new |= rel[y]
        if new != cur:
            delta = new & ~cur
            rel[x] = new
            bitx = 1 << x
            m = delta
            while m:
                y = (m & -m).bit_length() - 1
                m &= m - 1
                member_of[y] |= bitx
            deps = dep_static[x]
            if acyclic:
                # Readers of rel[x] via transitivity, plus x itself:
                # the rows of the members just gained are not folded in.
                deps |= member_of[x] | bitx
            worklist |= deps

    if exhausted:
        warnings.warn(
            f"compute_orderings exhausted its work budget "
            f"({max_iterations} sweep-equivalents over {n} nodes) before "
            f"convergence; returning the partial fixpoint (sound but "
            f"imprecise — fewer SEQUENCEABLE facts, less pruning)",
            RuntimeWarning,
            stacklevel=2,
        )
    if obs.is_enabled():
        obs.counter("orderings.worklist_steps").inc(steps)
        if exhausted:
            obs.counter("orderings.max_iterations_exhausted").inc()

    precedes_bits = [0] * n
    for k in range(n):
        reached_implies = 0
        m = dom_bits[k]
        while m:
            d = (m & -m).bit_length() - 1
            m &= m - 1
            reached_implies |= rel[d]
        m = reached_implies & ~(1 << k)
        while m:
            h = (m & -m).bit_length() - 1
            m &= m - 1
            precedes_bits[h] |= 1 << k
    precedes: Dict[SyncNode, FrozenSet[SyncNode]] = {}
    for h in range(n):
        targets: Set[SyncNode] = set()
        m = precedes_bits[h]
        while m:
            k = (m & -m).bit_length() - 1
            m &= m - 1
            targets.add(nodes[k])
        precedes[nodes[h]] = frozenset(targets)
    return precedes
