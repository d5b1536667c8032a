"""High-level public API: one-call certification pipelines.

Typical use::

    import repro

    result = repro.analyze('''
        program handshake;
        task t1 is begin send t2.hello; accept world; end;
        task t2 is begin accept hello; send t1.world; end;
    ''')
    assert result.deadlock.deadlock_free
    assert result.stall.stall_free

``analyze`` accepts source text or a parsed
:class:`~repro.lang.ast_nodes.Program`, validates it, removes loops
with the Lemma-1 transform when needed, builds the sync graph, and runs
the requested deadlock algorithm plus the stall pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, Iterable, Optional, Tuple, Union

from . import obs
from .analysis.constraint4 import constraint4_deadlock_analysis
from .analysis.extensions import (
    combined_pairs_analysis,
    head_pairs_analysis,
    head_tail_analysis,
    k_pairs_3_analysis,
)
from .analysis.index import AnalysisIndex
from .analysis.naive import naive_deadlock_analysis
from .analysis.refined import refined_deadlock_analysis
from .analysis.results import DeadlockReport, StallReport, Verdict
from .analysis.stalls import stall_analysis
from .errors import AnalysisError
from .lang.ast_nodes import Program
from .lang.parser import parse_program
from .lang.validate import ValidationReport, validate_program
from .syncgraph.build import build_sync_graph
from .syncgraph.model import SyncGraph
from .transforms.inline import inline_procedures
from .transforms.unroll import has_approximated_loops, remove_loops
from .waves.engine import WaveIndex
from .waves.explore import explore
from .waves.guide import DEFAULT_BEAM_WIDTH, validate_strategy

if TYPE_CHECKING:  # pragma: no cover - farm imports api at runtime
    from .farm.cache import ResultCache
    from .farm.runner import BatchReport

__all__ = [
    "ALGORITHMS",
    "AnalysisResult",
    "PreparedProgram",
    "analyze",
    "analyze_many",
    "analyze_prepared",
    "certify_deadlock_free",
    "certify_stall_free",
    "prepare",
]

# Every value is a named module-level callable so the registry (and
# anything that captures an entry) stays picklable for farm workers.
ALGORITHMS: Dict[str, Callable[[SyncGraph], DeadlockReport]] = {
    "naive": naive_deadlock_analysis,
    "refined": refined_deadlock_analysis,
    "refined+constraint4": constraint4_deadlock_analysis,
    "head-pairs": head_pairs_analysis,
    "head-tail": head_tail_analysis,
    "combined-pairs": combined_pairs_analysis,
    "k-pairs-3": k_pairs_3_analysis,
}


@dataclass
class AnalysisResult:
    """Everything one ``analyze`` call produced."""

    program: Program
    analyzed_program: Program  # after loop removal/inlining, if it differed
    validation: ValidationReport
    sync_graph: SyncGraph
    deadlock: DeadlockReport
    stall: StallReport
    # Whether the Lemma-1 unroll actually fired.  Not derivable from
    # `analyzed_program is not program`: procedure inlining alone also
    # swaps the program object.
    loops_transformed: bool = False

    def describe(self) -> str:
        lines = [f"program {self.program.name}:"]
        lines.append(self.deadlock.describe())
        lines.append(self.stall.describe())
        for diag in self.validation.diagnostics:
            where = f" (line {diag.line})" if diag.span is not None else ""
            lines.append(
                f"  {diag.severity}: {diag.message}{where} [{diag.rule_id}]"
            )
        return "\n".join(lines)


def _coerce(program: Union[str, Program]) -> Program:
    if isinstance(program, str):
        return parse_program(program)
    return program


@dataclass
class PreparedProgram:
    """Everything ``analyze`` computes *before* picking a detector.

    The front half of the pipeline — parse, inline, validate, Lemma-1
    unroll, sync-graph build — depends only on the program, not on the
    algorithm/budget of a particular request, and so do the layers it
    builds lazily, once: :attr:`index`, :attr:`engine` and
    :attr:`refined`.  Callers prepare once per program text and run
    :func:`analyze_prepared` and :func:`repro.lint.run_lint` on it.
    """

    source_program: Program
    inlined: Program
    validation: ValidationReport
    analyzed: Program  # after the Lemma-1 unroll, if it fired
    transformed: bool
    procedures_inlined: bool
    sync_graph: SyncGraph
    # True when the unroll only approximated loop behaviour (guarded
    # copies bound iterations at two) — exact search must then walk the
    # pre-unroll graph.
    approximated: bool
    _exact_graph: Optional[SyncGraph] = None
    _index: Optional[AnalysisIndex] = field(default=None, init=False)
    _engine: Optional[WaveIndex] = field(default=None, init=False)
    _refined: Optional[DeadlockReport] = field(default=None, init=False)

    @property
    def exact_graph(self) -> SyncGraph:
        """The graph exact wave exploration must search.

        The Lemma-1 guarded copies bound while-loop iterations at two,
        which preserves the static CLG analysis but not exact wave
        semantics (a deadlock needing a third iteration exists only in
        the original graph), so when the unroll was approximate this is
        the pre-unroll graph — built lazily and cached.
        """
        if not self.approximated:
            return self.sync_graph
        if self._exact_graph is None:
            self._exact_graph = build_sync_graph(self.inlined)
        return self._exact_graph

    @property
    def index(self) -> AnalysisIndex:
        """The :class:`AnalysisIndex` over :attr:`sync_graph`."""
        if self._index is None:
            self._index = AnalysisIndex(self.sync_graph)
        return self._index

    @property
    def engine(self) -> WaveIndex:
        """The :class:`WaveIndex` over :attr:`exact_graph`."""
        if self._engine is None:
            self._engine = WaveIndex(self.exact_graph)
        return self._engine

    @property
    def refined(self) -> DeadlockReport:
        """The refined report of :attr:`sync_graph`: the
        ``algorithm="refined"`` answer and what lint's ADL012 reads."""
        if self._refined is None:
            self._refined = refined_deadlock_analysis(
                self.sync_graph, index=self.index
            )
        return self._refined

    def built(self, layer: str) -> bool:
        """Whether the lazy ``index`` or ``engine`` exists."""
        return getattr(self, f"_{layer}") is not None

    def adopt_kernels(self, earlier: "PreparedProgram") -> None:
        """Take over the ``index`` and ``engine`` ``earlier`` built: they
        hold only uids, and a canonically equal program (a comment
        edit's rebuild) builds a uid-equal graph.  ``refined`` is not
        taken over, as its evidence nodes carry ``earlier``'s spans."""
        self._index, self._engine = earlier._index, earlier._engine


def prepare(program: Union[str, Program]) -> PreparedProgram:
    """Run the algorithm-independent front half of the pipeline."""
    with obs.span("analyze.parse"):
        source_program = _coerce(program)
    with obs.span("analyze.inline"):
        inlined, procedures_inlined = inline_procedures(source_program)
    with obs.span("analyze.validate"):
        validation = validate_program(inlined)
    with obs.span("analyze.unroll") as unroll_span:
        analyzed, transformed = remove_loops(inlined)
        unroll_span.set_attribute("transformed", transformed)
    with obs.span("analyze.sync_graph") as sg_span:
        graph = build_sync_graph(analyzed)
        sg_span.set_attribute("nodes", len(graph.rendezvous_nodes))
    return PreparedProgram(
        source_program=source_program,
        inlined=inlined,
        validation=validation,
        analyzed=analyzed,
        transformed=transformed,
        procedures_inlined=procedures_inlined,
        sync_graph=graph,
        approximated=transformed and has_approximated_loops(inlined),
    )


def _finish(
    prep: PreparedProgram,
    algorithm: str,
    state_limit: int,
    strategy: str = "bfs",
    beam_width: Optional[int] = None,
) -> AnalysisResult:
    """Back half of the pipeline: detector + stall analysis + assembly."""
    graph = prep.sync_graph
    with obs.span("analyze.deadlock", algorithm=algorithm):
        if algorithm == "exact":
            result = explore(
                prep.exact_graph,
                state_limit=state_limit,
                engine=prep.engine,
                on_limit="partial",
                strategy=strategy,
                beam_width=beam_width,
            )
            # A limited run that found no deadlock proves nothing:
            # stay conservative instead of certifying blind.  Beam
            # truncation is folded into `limited` by explore(), so a
            # truncated witnessless beam also stays POSSIBLE.
            deadlock = DeadlockReport(
                verdict=(
                    Verdict.POSSIBLE_DEADLOCK
                    if result.has_deadlock or result.limited
                    else Verdict.CERTIFIED_FREE
                ),
                algorithm="exact-waves",
                stats={
                    "feasible_waves": result.visited_count,
                    "exploration_limited": result.limited,
                    "explored_pre_unroll_graph": prep.approximated,
                    "strategy": result.strategy,
                    # Budget-faithful partial finding: a deadlock wave
                    # discovered before exhaustion is definite even
                    # when the run was limited.
                    "deadlock_waves": len(result.deadlock_waves),
                },
            )
            if strategy == "beam":
                deadlock.stats["beam_width"] = (
                    beam_width
                    if beam_width is not None
                    else DEFAULT_BEAM_WIDTH
                )
                deadlock.stats["beam_truncated"] = result.truncated
        else:
            # Strategy only steers exact search; still validate it so a
            # typo'd knob fails loudly instead of silently meaning bfs.
            validate_strategy(strategy, beam_width)
            try:
                runner = ALGORITHMS[algorithm]
            except KeyError:
                raise AnalysisError(
                    f"unknown algorithm {algorithm!r}; choose one of "
                    f"{sorted(ALGORITHMS)} or 'exact'"
                ) from None
            if algorithm == "refined":
                # Shared with lint: what is added to it below depends
                # only on ``prep``, so adding it again changes nothing.
                deadlock = prep.refined
            elif algorithm == "naive":  # reads no index
                deadlock = runner(graph)
            else:
                deadlock = runner(graph, index=prep.index)
    deadlock.loops_transformed = prep.transformed
    if prep.approximated and algorithm != "exact":
        # Static verdicts on a guarded-copy unroll are conservative
        # but exact *refutation* on that graph would not be: flag it
        # so confirmation (repro.analysis.confirm) knows the graph
        # under-approximates loop behaviours.
        deadlock.stats["unroll_approximated"] = True
    if prep.procedures_inlined:
        deadlock.stats["procedures_inlined"] = len(
            prep.source_program.procedures
        )

    with obs.span("analyze.stall"):
        stall = stall_analysis(
            prep.inlined, signal_counts=prep.validation.signal_counts
        )
    if obs.is_enabled():
        obs.counter("analyze.runs").inc()
        obs.gauge("syncgraph.rendezvous_nodes").set(
            len(graph.rendezvous_nodes)
        )
        obs.gauge("syncgraph.tasks").set(len(graph.tasks))
    return AnalysisResult(
        program=prep.source_program,
        analyzed_program=prep.analyzed
        if (prep.transformed or prep.procedures_inlined)
        else prep.source_program,
        validation=prep.validation,
        sync_graph=graph,
        deadlock=deadlock,
        stall=stall,
        loops_transformed=prep.transformed,
    )


def analyze_prepared(
    prep: PreparedProgram,
    algorithm: str = "refined",
    state_limit: int = 200_000,
    strategy: str = "bfs",
    beam_width: Optional[int] = None,
) -> AnalysisResult:
    """Run the detector half of :func:`analyze` on a prepared program.

    Verdicts, evidence, stats, and the serialized report are identical
    to a fresh :func:`analyze` of the same source — the split only
    skips re-computing the front half, and ``prep``'s index, wave
    engine and refined report.  ``strategy`` / ``beam_width`` steer
    exact exploration exactly as in :func:`analyze`.
    """
    with obs.span("analyze", algorithm=algorithm):
        return _finish(
            prep,
            algorithm=algorithm,
            state_limit=state_limit,
            strategy=strategy,
            beam_width=beam_width,
        )


def analyze(
    program: Union[str, Program],
    algorithm: str = "refined",
    exact: bool = False,
    state_limit: int = 200_000,
    strategy: str = "bfs",
    beam_width: Optional[int] = None,
) -> AnalysisResult:
    """Run the full static pipeline on ``program``.

    ``algorithm`` selects the deadlock detector (see :data:`ALGORITHMS`;
    ``"exact"`` uses exhaustive wave exploration — exponential, for
    small programs only — and ``exact=True`` is shorthand for it, here
    only: the layers below take ``algorithm``).  Loops are removed by the
    Lemma-1 double-unroll transform automatically; the report records
    whether that happened.

    The exact path is budget-faithful: exhausting ``state_limit`` no
    longer raises — the report conservatively stays
    ``possible-deadlock`` with ``stats["exploration_limited"]`` set,
    and any deadlock wave found before exhaustion still counts.

    ``strategy`` selects the exact-search expansion order: ``"bfs"``
    (default), ``"astar"`` guided by the admissible future-cost table
    of :mod:`repro.waves.guide`, or ``"beam"`` with ``beam_width``.
    Strategy never changes an exhaustive verdict — it only changes
    which states are in hand when ``state_limit`` trips, so a guided
    run can settle programs whose budget-limited BFS verdict was
    inconclusive.  ``stats["strategy"]`` records the order used.
    """
    if exact:
        algorithm = "exact"
    with obs.span("analyze", algorithm=algorithm):
        prep = prepare(program)
        return _finish(
            prep,
            algorithm=algorithm,
            state_limit=state_limit,
            strategy=strategy,
            beam_width=beam_width,
        )


def analyze_many(
    programs: Iterable[Union[str, Program, Tuple[str, str]]],
    algorithm: str = "refined",
    state_limit: int = 200_000,
    jobs: int = 1,
    timeout: Optional[float] = None,
    cache: Union["ResultCache", str, Path, bool, None] = None,
    strategy: str = "bfs",
    beam_width: Optional[int] = None,
) -> "BatchReport":
    """Analyze many programs through the batch farm.

    The library-level entry to :mod:`repro.farm`: parallel workers
    (``jobs``), per-item timeouts (pool mode only), and content-
    addressed result caching — ``cache`` accepts a
    :class:`~repro.farm.cache.ResultCache`, a directory, ``True`` for
    the default directory (``~/.cache/repro``), or ``None`` to disable.

    ``programs`` may mix source strings, parsed
    :class:`~repro.lang.ast_nodes.Program` objects, and ``(label,
    source)`` pairs.  Returns a
    :class:`~repro.farm.runner.BatchReport`; ``report.results`` lists
    the per-program report payloads in input order (``None`` where an
    item failed), each equal to
    :func:`repro.reporting.analysis_result_to_dict` of a per-program
    :func:`analyze` call, cache hits included.
    """
    from .farm.runner import run_batch

    return run_batch(
        programs,
        algorithm=algorithm,
        state_limit=state_limit,
        jobs=jobs,
        timeout=timeout,
        cache=cache,
        strategy=strategy,
        beam_width=beam_width,
    )


def certify_deadlock_free(
    program: Union[str, Program],
    algorithm: str = "refined",
) -> bool:
    """True iff the chosen algorithm certifies the program deadlock-free.

    False means *possible* deadlock (the analyses are conservative:
    real deadlocks are never missed, but false alarms can occur).
    """
    return analyze(program, algorithm=algorithm).deadlock.deadlock_free


def certify_stall_free(program: Union[str, Program]) -> bool:
    """True iff the stall pipeline (Lemma 3 + §5.1 transforms) certifies
    the program stall-free; False covers both possible-stall and
    unknown."""
    return analyze(program).stall.stall_free
