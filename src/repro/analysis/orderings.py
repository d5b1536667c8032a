"""Must-ordering facts and the ``SEQUENCEABLE`` vector (paper §4.1).

The paper derives node orderings from the sync graph with a dataflow
framework based on two rules (cf. Callahan & Subhlok's ``SCP`` lattice):

1. if ``r`` dominates ``s`` in the control flow graph of their task,
   ``r`` must precede ``s``;
2. if for every sync edge ``{r, s}``, ``s`` precedes some node ``t``,
   then ``r`` must precede ``t``.

**Soundness refinement.**  The refined algorithm uses ``SEQUENCEABLE``
to exclude co-head hypotheses, so the facts must hold on *partial*
executions — in particular on the prefix leading into a deadlock, where
some rendezvous never complete.  A naive reading of rule 2 ("orderings
among completed runs") derives facts that are vacuously true on a
program that *always* deadlocks and would certify it deadlock-free
(e.g. the two-task crossed-send program).  We therefore compute the
prefix-sound closure of the same two ideas:

* ``REL(x, h)`` — *"at any point of any execution, if ``x`` has
  completed its rendezvous then ``h`` has completed"* — derived from

  - ``x == h``;
  - ``h`` strictly dominates ``x`` in their task (completing ``x``
    means control passed ``h``'s completion) — rule 1;
  - ``REL(d, h)`` for some strict dominator ``d`` of ``x``;
  - ``partners(x)`` nonempty and ``REL(p, h)`` for **all** sync
    partners ``p`` of ``x`` (``x`` completes simultaneously with some
    partner) — rule 2;

* ``precedes(h, k)`` ≡ *"k is not reached until h has completed"* ≡
  ``REL(d, h)`` for some strict dominator ``d`` of ``k``.

The closure is **transitive** — ``REL(x, y)`` and ``REL(y, z)`` give
``REL(x, z)`` — on every control-flow shape, without a clause of its
own (see :func:`compute_orderings`).  One sound strengthening is
applied on acyclic control flow only:

* **counting** — when every accept node of a signal lies in one task in
  a domination chain and the signal has equally many send nodes,
  completing the *last* accept forces completion of every send (each
  node fires at most once, so ``n`` rendezvous consume all ``n``
  senders); symmetrically for chain-ordered sends.  This is the
  cardinality reasoning of Callahan & Subhlok's counting lattice and is
  what derives the positive-before-negative top-node orderings of the
  paper's Theorem-2 construction.

If ``precedes(h, k)`` or ``precedes(k, h)`` holds, the two nodes can
never be simultaneously waiting on an execution wave — exactly the
property the NO-SYNC marking needs.

Everything is computed over dense ids: a rendezvous node's *position*
is its index in ``graph.rendezvous_nodes``, and every set of nodes is an
int bitset over positions.  :class:`SyncNode` objects appear only at
the API boundary (the :class:`OrderingInfo` query methods and
:func:`strict_dominators`' return value).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .. import obs
from ..budget import CHECK_EVERY, checkpoint
from ..syncgraph.model import SyncGraph, SyncNode

__all__ = ["OrderingInfo", "compute_orderings"]


def _positions(nodes: Sequence[SyncNode]) -> List[int]:
    """``uid`` → position in ``nodes`` (``-1`` for ``b`` and ``e``,
    whose uids come first)."""
    position = [-1] * (max((node.uid for node in nodes), default=-1) + 1)
    for i, node in enumerate(nodes):
        position[node.uid] = i
    return position


def _members(nodes: Sequence[SyncNode], row: int) -> FrozenSet[SyncNode]:
    out = []
    while row:
        k = (row & -row).bit_length() - 1
        row &= row - 1
        out.append(nodes[k])
    return frozenset(out)


@dataclass
class OrderingInfo:
    """Prefix-sound must-ordering facts over rendezvous nodes.

    ``precedes_rows[h]`` is an int bitset over positions in ``nodes``
    (the graph's ``rendezvous_nodes``): bit ``k`` is set when
    ``nodes[k]`` cannot be reached before ``nodes[h]`` has completed
    its rendezvous.  ``sequenceable_rows`` is its symmetric closure.
    """

    nodes: Tuple[SyncNode, ...]
    precedes_rows: List[int]
    sequenceable_rows: List[int]
    # uid -> position, and the node-set views built on first access.
    _position: List[int] = field(
        default_factory=list, init=False, compare=False, repr=False
    )
    _precedes: Optional[Dict[SyncNode, FrozenSet[SyncNode]]] = field(
        default=None, init=False, compare=False, repr=False
    )
    _seq_sets: Optional[List[FrozenSet[SyncNode]]] = field(
        default=None, init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        self._position = _positions(self.nodes)

    def _index(self, node: SyncNode) -> int:
        position = self._position
        uid = node.uid
        if uid < len(position):
            i = position[uid]
            if i >= 0 and (self.nodes[i] is node or self.nodes[i] == node):
                return i
        return -1

    @property
    def precedes(self) -> Dict[SyncNode, FrozenSet[SyncNode]]:
        """``precedes[a]``: the nodes that cannot be reached before
        ``a`` has completed its rendezvous."""
        if self._precedes is None:
            nodes = self.nodes
            self._precedes = {
                node: _members(nodes, row)
                for node, row in zip(nodes, self.precedes_rows)
            }
        return self._precedes

    def must_precede(self, a: SyncNode, b: SyncNode) -> bool:
        i = self._index(a)
        j = self._index(b)
        return i >= 0 and j >= 0 and bool((self.precedes_rows[i] >> j) & 1)

    def sequenceable(self, a: SyncNode, b: SyncNode) -> bool:
        i = self._index(a)
        j = self._index(b)
        return i >= 0 and j >= 0 and bool((self.sequenceable_rows[i] >> j) & 1)

    def sequenceable_with(self, a: SyncNode) -> FrozenSet[SyncNode]:
        i = self._index(a)
        if i < 0:
            return frozenset()
        if self._seq_sets is None:
            nodes = self.nodes
            self._seq_sets = [
                _members(nodes, row) for row in self.sequenceable_rows
            ]
        return self._seq_sets[i]

    @property
    def pair_count(self) -> int:
        """Number of ordered pairs (for reporting/benchmarks)."""
        return sum(row.bit_count() for row in self.precedes_rows)


def _strict_dominator_rows(
    graph: SyncGraph, nodes: Sequence[SyncNode], position: List[int]
) -> List[int]:
    """Strict dominator bitsets of every rendezvous node within its
    task; ``0`` for nodes unreachable from ``b``.

    The iterative dataflow ``dom(v) = {v} ∪ ⋂ dom(p)`` over the control
    predecessors ``p`` of ``v`` in its own task, swept in position
    (program) order until stable from the top ``-1`` (all ones).  ``b``
    contributes the empty set (it is no rendezvous), so a node entered
    from ``b`` has no strict dominator.
    """
    b = graph.b
    entry = 0  # nodes with a control edge from b
    preds: List[List[int]] = [[] for _ in nodes]
    for src, dst in graph.control_edges():
        j = position[dst.uid]
        if j < 0:
            continue
        if src is b:
            entry |= 1 << j
            continue
        i = position[src.uid]
        if i >= 0 and src.task == dst.task:
            preds[j].append(i)

    # A node keeps the top -1 exactly when no predecessor ever leaves it,
    # i.e. when it is unreachable from b.
    dom = [-1] * len(nodes)
    changed = True
    while changed:
        changed = False
        for v, vpreds in enumerate(preds):
            acc = 0 if (entry >> v) & 1 else -1
            for p in vpreds:
                acc &= dom[p]
            new = acc | (1 << v)
            if new != dom[v]:
                dom[v] = new
                changed = True
    return [row & ~(1 << v) if row != -1 else 0 for v, row in enumerate(dom)]


def strict_dominators(graph: SyncGraph) -> Dict[SyncNode, FrozenSet[SyncNode]]:
    """Strict rendezvous dominators of each node within its task.

    ``d ∈ strict_dominators[x]`` means every control path from program
    start to ``x`` in ``x``'s task passes through (and therefore
    completes) ``d`` first.  Nodes unreachable from ``b`` get the empty
    set.
    """
    nodes = graph.rendezvous_nodes
    if not nodes:
        return {}
    rows = _strict_dominator_rows(graph, nodes, _positions(nodes))
    return {node: _members(nodes, row) for node, row in zip(nodes, rows)}


def _counting_seeds(
    graph: SyncGraph, position: List[int], dom_bits: List[int]
) -> List[Tuple[int, int]]:
    """Counting-rule seed facts ``REL(last, other_side)`` as
    ``(position, bitset)`` pairs.

    For a signal whose accept (resp. send) nodes all sit in one task in
    a strict domination chain, with equally many nodes on the other
    side: completing the chain's last node forces completion of every
    node on the other side.  Only sound when nodes fire at most once,
    i.e. acyclic control flow — the caller checks that.
    """
    seeds: List[Tuple[int, int]] = []
    for signal in graph.signals:
        senders = graph.senders_of(signal)
        accepters = graph.accepters_of(signal)
        if not senders or not accepters or len(senders) != len(accepters):
            continue
        for side, other in ((accepters, senders), (senders, accepters)):
            if len({node.task for node in side}) != 1:
                continue
            ids = [position[node.uid] for node in side]
            side_bits = 0
            for i in ids:
                side_bits |= 1 << i
            # In a chain the k-th node has k side dominators, so sorting
            # by that count gives the chain order.
            chain = sorted(
                ids, key=lambda i: (dom_bits[i] & side_bits).bit_count()
            )
            if not all(
                (dom_bits[chain[i + 1]] >> chain[i]) & 1
                for i in range(len(chain) - 1)
            ):
                continue
            other_bits = 0
            for node in other:
                other_bits |= 1 << position[node.uid]
            seeds.append((chain[-1], other_bits))
    return seeds


def compute_orderings(
    graph: SyncGraph, max_iterations: int = 10_000
) -> OrderingInfo:
    """Least fixpoint of the prefix-sound REL closure; see module docs.

    Works for cyclic control flow too (every clause reads "has
    completed at least once"), but the counting seeds assume each node
    fires at most once and are only added on acyclic control flow.

    The fixpoint is solved semi-naively over int bitsets.  ``rel[x]``
    is the row of ``h`` with ``REL(x, h)``.  Node ``x`` folds the rows
    of its *direct* members — its strict dominators, plus its counting
    seed targets — and the meet of its sync partners' rows.
    ``pending[x]`` holds the direct rows that grew since ``x`` last
    folded them, and one evaluation folds only those.  When ``rel[y]``
    grows, every node that reads it directly and lacks part of the
    growth gets bit ``y`` in ``pending`` and is queued, as is every
    node whose sync partner is ``y``.  Folding only direct rows still
    yields a transitive closure: every member a row gains comes from a
    row that is itself closed at the fixpoint, so by induction on the
    order facts are derived, ``REL(x, y)`` implies
    ``rel[y] ⊆ rel[x]``.  The clauses are monotone, so the closure has
    one least fixpoint and neither the evaluation order nor the choice
    of rows folded can change it.

    The work budget is ``max_iterations × |nodes|`` evaluations (the
    round-robin sweep equivalent); exhausting it returns the partial
    fixpoint, which is sound (a subset of the derivable facts, so
    strictly less pruning) but imprecise, and warns.
    """
    nodes = graph.rendezvous_nodes
    n = len(nodes)
    if n == 0:
        return OrderingInfo(nodes=(), precedes_rows=[], sequenceable_rows=[])
    position = _positions(nodes)
    dom_bits = _strict_dominator_rows(graph, nodes, position)
    acyclic = not graph.has_control_cycle()

    partner_ids: List[Tuple[int, ...]] = [
        tuple(position[p] for p in graph.partner_uids(x.uid)) for x in nodes
    ]
    # partner_readers[y]: nodes whose all-partners clause reads rel[y].
    partner_readers = [0] * n
    for i, pids in enumerate(partner_ids):
        for p in pids:
            partner_readers[p] |= 1 << i

    # direct[x]: the rows x folds into its own (see docstring).
    direct = list(dom_bits)
    if acyclic:
        for x, other in _counting_seeds(graph, position, dom_bits):
            direct[x] |= other
    # rel[x] = bitset of h with REL(x, h): "x completed => h completed".
    rel = [(1 << i) | direct[i] for i in range(n)]
    # readers[y]: nodes whose direct rows include y.
    readers = [0] * n
    for i in range(n):
        bit = 1 << i
        m = direct[i]
        while m:
            y = (m & -m).bit_length() - 1
            m &= m - 1
            readers[y] |= bit
    # pending[x]: direct rows that grew since x last folded them.
    pending = list(direct)

    max_steps = max_iterations * n
    steps = 0
    exhausted = False
    budget = checkpoint()
    countdown = CHECK_EVERY if budget is not None else -1
    worklist = (1 << n) - 1
    while worklist:
        if steps >= max_steps:
            exhausted = True
            break
        countdown -= 1
        if not countdown:
            budget.check()
            countdown = CHECK_EVERY
        x = (worklist & -worklist).bit_length() - 1
        worklist &= worklist - 1
        steps += 1
        cur = rel[x]
        new = cur
        pids = partner_ids[x]
        if pids:
            common = rel[pids[0]]
            for p in pids[1:]:
                common &= rel[p]
                if not common:
                    break
            new |= common
        m = pending[x]
        pending[x] = 0
        while m:
            y = (m & -m).bit_length() - 1
            m &= m - 1
            new |= rel[y]
        if new != cur:
            rel[x] = new
            delta = new & ~cur
            bitx = 1 << x
            worklist |= partner_readers[x]
            m = readers[x]
            while m:
                y = (m & -m).bit_length() - 1
                m &= m - 1
                if delta & ~rel[y]:  # a reader already holding delta is done
                    pending[y] |= bitx
                    worklist |= 1 << y

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

    # before[k]: the h that must precede k (REL(d, h) for a strict
    # dominator d of k); its transpose is the precedes rows.
    before = [0] * n
    for k in range(n):
        reached_implies = 0
        m = dom_bits[k]
        while m:
            d = (m & -m).bit_length() - 1
            m &= m - 1
            reached_implies |= rel[d]
        before[k] = reached_implies & ~(1 << k)
    # Transpose as an n×n matrix of '0'/'1' characters.  Strings run
    # before[n-1] .. before[0], so column i, read top-down, is bit
    # n-1-i of every row from high k to low k: rows[n-1-i] in binary.
    fmt = f"0{n}b"
    columns = zip(*(format(row, fmt) for row in reversed(before)))
    rows = [int("".join(column), 2) for column in columns][::-1]
    return OrderingInfo(
        nodes=nodes,
        precedes_rows=rows,
        sequenceable_rows=[rows[i] | before[i] for i in range(n)],
    )
