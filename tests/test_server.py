"""Tests for the analysis daemon (``repro.server``).

Four layers:

* protocol framing and error codes (pure functions);
* :class:`Document` / :class:`Session` semantics — incremental
  invalidation, the resident LRU, the disk store, URI threading;
* CLI parity — the daemon's report payloads re-rendered with
  :func:`repro.reporting.render_json` must match the one-shot CLI's
  stdout byte for byte;
* golden JSONL transcripts driven through a full
  :class:`AnalysisServer`, plus a subprocess smoke test over real
  stdio.

Regenerate the golden transcripts after an intentional payload change
with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_server.py
"""

from __future__ import annotations

import json
import os
import queue
import signal
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import pytest

import repro
from repro import obs
from repro.errors import ReproError
from repro.farm.cache import ResultCache
from repro.lang.pretty import pretty
from repro.reporting import analysis_result_to_dict, render_json
from repro.server import AnalysisServer, Session
from repro.server.daemon import DEFAULT_QUEUE_SIZE
from repro.server.httpd import parse_hostport
from repro.server.protocol import (
    ANALYSIS_ERROR,
    INVALID_PARAMS,
    INVALID_REQUEST,
    METHOD_NOT_FOUND,
    PARSE_ERROR,
    REQUEST_CANCELLED,
    REQUEST_TIMEOUT,
    ProtocolError,
    decode_request,
    dumps,
    error_response,
    response,
)
from repro.server.session import Document
from repro.workloads.patterns import dining_philosophers
from tests.conftest import SUPERSCRIPT_BOUND_ERROR, SUPERSCRIPT_BOUND_SRC

GOLDEN_DIR = Path(__file__).parent / "golden_server"
REGEN = bool(os.environ.get("REPRO_REGEN_GOLDEN"))

CROSSED_SRC = """\
program crossed;
task t1 is begin send t2.a; accept x; end;
task t2 is begin send t1.x; accept a; end;
"""

HANDSHAKE_SRC = """\
program handshake;
task t1 is begin send t2.sig1; accept sig2; end;
task t2 is begin accept sig1; send t1.sig2; end;
"""

# Same canonical program as CROSSED_SRC: comments and layout only.
CROSSED_COMMENTED = """\
-- a leading comment
program crossed;

task t1 is begin send t2.a; accept x; end;
task t2 is begin send t1.x; accept a; end;  -- trailing note
"""

TWO_COMMENT_LINES = "-- first note\n-- second note\n"

# Keys whose values depend on the machine or the clock, never on the
# analysis: replaced before golden comparison.
VOLATILE_KEYS = {"wall_time_s", "uptime_s", "pid", "duration_s"}


def normalize(obj):
    if isinstance(obj, dict):
        return {
            k: ("<volatile>" if k in VOLATILE_KEYS else normalize(v))
            for k, v in obj.items()
        }
    if isinstance(obj, list):
        return [normalize(v) for v in obj]
    return obj


def make_server(store=None, **kwargs) -> AnalysisServer:
    return AnalysisServer(session=Session(store=store), **kwargs)


def rpc(server, method, params=None, id=1):
    line = json.dumps(
        {"id": id, "method": method, "params": params or {}}
    )
    return server.handle_line(line)


# ---------------------------------------------------------------------------
# protocol


class TestProtocol:
    def test_decode_roundtrip(self):
        req = decode_request(
            '{"id": 7, "method": "analyze", "params": {"uri": "a"}}'
        )
        assert req.id == 7
        assert req.method == "analyze"
        assert req.params == {"uri": "a"}

    def test_decode_defaults(self):
        req = decode_request('{"method": "ping"}')
        assert req.id is None
        assert req.params == {}

    @pytest.mark.parametrize(
        "line, code",
        [
            ("{not json", PARSE_ERROR),
            ('"just a string"', INVALID_REQUEST),
            ("[1, 2]", INVALID_REQUEST),
            ('{"params": {}}', INVALID_REQUEST),
            ('{"method": 42}', INVALID_REQUEST),
            ('{"method": "x", "params": []}', INVALID_PARAMS),
        ],
    )
    def test_decode_errors(self, line, code):
        with pytest.raises(ProtocolError) as exc:
            decode_request(line)
        assert exc.value.code == code

    def test_framing_is_one_line(self):
        framed = dumps(response(1, {"nested": {"deep": [1, 2]}}))
        assert "\n" not in framed
        assert json.loads(framed) == {
            "id": 1,
            "result": {"nested": {"deep": [1, 2]}},
        }

    def test_error_response_shape(self):
        err = error_response(3, ANALYSIS_ERROR, "boom", data={"k": 1})
        assert err == {
            "id": 3,
            "error": {"code": 1000, "message": "boom", "data": {"k": 1}},
        }


# ---------------------------------------------------------------------------
# Document invalidation


class TestDocumentInvalidation:
    def test_identical_text_is_none(self):
        doc = Document("mem:a", CROSSED_SRC)
        doc.prepared()
        kind, reason = doc.apply_change(CROSSED_SRC)
        assert (kind, reason) == ("none", "identical-text")
        assert doc.artifacts()["prepared"]

    def test_comment_only_edit_keeps_pipeline(self):
        doc = Document("mem:a", CROSSED_SRC)
        prepared = doc.prepared()
        index = prepared.index
        engine = prepared.engine
        kind, reason = doc.apply_change(TWO_COMMENT_LINES + CROSSED_SRC)
        assert kind == "partial"
        assert reason == "whitespace-or-comments"
        # The front half carries spans, so it follows the new text...
        rebuilt = doc.prepared()
        assert rebuilt is not prepared
        # ...and takes over the uid-only kernels: the *same objects*.
        assert rebuilt.index is index
        assert rebuilt.engine is engine
        assert rebuilt.source_program is doc.program()
        old_nodes = prepared.sync_graph.rendezvous_nodes
        new_nodes = rebuilt.sync_graph.rendezvous_nodes
        assert new_nodes == old_nodes
        for old, new in zip(old_nodes, new_nodes):
            assert new.stmt.loc.line == old.stmt.loc.line + 2
        assert doc.program().tasks[0].loc.line > 1

    def test_task_body_edit_rebuilds(self):
        doc = Document("mem:a", CROSSED_SRC)
        prepared = doc.prepared()
        fixed = CROSSED_SRC.replace(
            "send t2.a; accept x;", "accept x; send t2.a;"
        )
        kind, reason = doc.apply_change(fixed)
        assert (kind, reason) == ("full", "semantic-edit")
        assert not doc.artifacts()["prepared"]
        assert doc.prepared() is not prepared
        assert doc.rebuilds == 1

    def test_parse_error_is_full(self):
        doc = Document("mem:a", CROSSED_SRC)
        doc.prepared()
        kind, reason = doc.apply_change("task broken")
        assert (kind, reason) == ("full", "parse-error")
        assert not doc.artifacts()["prepared"]

    def test_out_of_task_edit_reason(self):
        base = CROSSED_SRC + "-- trailing banner\n"
        doc = Document("mem:a", base)
        doc.prepared()
        edited = CROSSED_SRC + "-- trailing banner, reworded\n"
        last_line = len(base.splitlines())
        kind, reason = doc.apply_change(
            edited,
            ranges=[{"start_line": last_line, "start_column": 4}],
        )
        assert kind == "partial"
        assert reason == "edit-outside-declarations"

    def test_edit_inside_task_span_not_classified_outside(self):
        doc = Document("mem:a", CROSSED_SRC)
        doc.prepared()
        # Range hits task t1's declaration; canonical still unchanged,
        # so it is partial — but not labelled out-of-declaration.
        kind, reason = doc.apply_change(
            CROSSED_COMMENTED,
            ranges=[{"start_line": 2, "start_column": 1}],
        )
        assert kind == "partial"
        assert reason == "whitespace-or-comments"


# ---------------------------------------------------------------------------
# Session


class TestSession:
    def test_analyze_cache_progression(self):
        session = Session(store=None)
        payload1, cache1 = session.analyze_document(
            uri="mem:a", text=CROSSED_SRC
        )
        payload2, cache2 = session.analyze_document(uri="mem:a")
        assert (cache1, cache2) == ("computed", "memory")
        assert payload1 == payload2
        assert payload1["deadlock"]["verdict"] == "possible-deadlock"
        assert session.counters["cache_hits"] == 1
        assert session.counters["computed"] == 1

    def test_comment_edit_preserves_result_cache(self):
        session = Session(store=None)
        session.analyze_document(uri="mem:a", text=CROSSED_SRC)
        info = session.change_document("mem:a", CROSSED_COMMENTED)
        assert info["invalidation"] == "partial"
        _, cache = session.analyze_document(uri="mem:a")
        # Content-addressed key hashes the canonical form, so the
        # resident result survives a formatting-only edit.
        assert cache == "memory"
        assert session.counters["invalidations_partial"] == 1

    def test_semantic_edit_recomputes(self):
        session = Session(store=None)
        session.analyze_document(uri="mem:a", text=CROSSED_SRC)
        info = session.change_document("mem:a", HANDSHAKE_SRC)
        assert info["invalidation"] == "full"
        payload, cache = session.analyze_document(uri="mem:a")
        assert cache == "computed"
        assert payload["deadlock"]["verdict"] == "certified-deadlock-free"

    def test_store_warms_fresh_session(self, tmp_path):
        store = ResultCache(cache_dir=tmp_path)
        first = Session(store=store)
        first.analyze_document(uri="mem:a", text=CROSSED_SRC)

        reborn = Session(store=ResultCache(cache_dir=tmp_path))
        payload, cache = reborn.analyze_document(
            uri="mem:b", text=CROSSED_SRC
        )
        assert cache == "store"
        assert payload["deadlock"]["verdict"] == "possible-deadlock"

    def test_distinct_algorithms_distinct_entries(self):
        session = Session(store=None)
        _, c1 = session.analyze_document(
            uri="mem:a", text=CROSSED_SRC, algorithm="refined"
        )
        _, c2 = session.analyze_document(
            uri="mem:a", algorithm="combined-pairs"
        )
        assert (c1, c2) == ("computed", "computed")

    def test_unknown_algorithm_rejected(self):
        session = Session(store=None)
        with pytest.raises(ValueError, match="unknown algorithm"):
            session.analyze_document(
                uri="mem:a", text=CROSSED_SRC, algorithm="nope"
            )

    def test_unknown_document_rejected(self):
        session = Session(store=None)
        with pytest.raises(ValueError, match="unknown document"):
            session.analyze_document(uri="mem:never-opened")

    def test_file_uri_reads_from_disk(self, tmp_path):
        path = tmp_path / "prog.adl"
        path.write_text(HANDSHAKE_SRC)
        session = Session(store=None)
        payload, cache = session.analyze_document(uri=str(path))
        assert cache == "computed"
        assert payload["program"] == "handshake"

    def test_lint_cache_and_uri(self):
        session = Session(store=None)
        payload, sarif_doc, cache = session.lint_document(
            uri="untitled:scratch-1", text=CROSSED_SRC, sarif=True
        )
        assert cache == "computed"
        assert payload["path"] == "untitled:scratch-1"
        loc = sarif_doc["runs"][0]["results"][0]["locations"][0]
        art = loc["physicalLocation"]["artifactLocation"]["uri"]
        assert art == "untitled:scratch-1"
        _, _, cache2 = session.lint_document(uri="untitled:scratch-1")
        assert cache2 == "memory"
        assert session.counters["lint_cache_hits"] == 1

    def test_status_shape(self):
        session = Session(store=None)
        session.analyze_document(uri="mem:a", text=CROSSED_SRC)
        status = session.status()
        assert status["protocol_version"] == 1
        assert status["counters"]["computed"] == 1
        assert status["lru"]["entries"] == 1
        assert status["store"] is None
        doc = status["documents"][0]
        assert doc["uri"] == "mem:a"
        assert doc["artifacts"]["prepared"]

    def test_flush_writes_missing_entries(self, tmp_path):
        store = ResultCache(cache_dir=tmp_path)
        session = Session(store=store)
        session.analyze_document(uri="mem:a", text=CROSSED_SRC)
        # Store writes are write-through, so flush finds nothing new.
        assert session.flush() == 0
        # Wipe the disk copies; flush restores them from the LRU.
        for entry in tmp_path.glob("??/*.json"):
            entry.unlink()
        assert session.flush() == 1

    def test_obs_counters_mirror(self):
        with obs.observed() as obs_session:
            session = Session(store=None)
            session.analyze_document(uri="mem:a", text=CROSSED_SRC)
            session.analyze_document(uri="mem:a")
            session.change_document("mem:a", CROSSED_COMMENTED)
        reg = obs_session.registry
        assert reg.counter_value("server.computed") == 1
        assert reg.counter_value("server.cache_hits") == 1
        assert reg.counter_value("server.invalidations.partial") == 1

    def test_status_does_not_serialize_spans(self, monkeypatch):
        from repro.obs.trace import Span

        calls = []
        to_dict = Span.to_dict

        def counting(span):
            calls.append(span.name)
            return to_dict(span)

        with obs.observed():
            session = Session(store=None)
            session.analyze_document(uri="mem:a", text=CROSSED_SRC)
            for _ in range(5_000):
                with obs.span("filler"):
                    pass
            monkeypatch.setattr(Span, "to_dict", counting)
            status = session.status()
            assert calls == []
            snapshot = obs.snapshot()
        assert calls  # the full snapshot still walks the spans
        assert status["metrics"] == {
            "counters": snapshot["counters"],
            "gauges": snapshot["gauges"],
        }
        assert status["metrics"]["counters"]["server.computed"] == 1


def _lint_sources():
    from repro.workloads.adl_corpus import adl_corpus, lint_corpus

    return [
        pytest.param(f"{tag}/{name}", entry.source, id=f"{tag}/{name}")
        for tag, corpus in (("adl", adl_corpus()), ("adl_lint", lint_corpus()))
        for name, entry in sorted(corpus.items())
    ]


class TestLintOnDocumentLayers:
    """Daemon lint runs on the document's prepared pipeline and index;
    its reports must equal a one-shot lint of the same text."""

    @staticmethod
    def _one_shot(text, uri):
        from repro.lint import lint_source, lint_to_dict, sarif_report

        result = lint_source(text, path=uri)
        return lint_to_dict(result), sarif_report([result])

    def _check(self, session, uri, text):
        payload, sarif, cache = session.lint_document(uri=uri, sarif=True)
        assert cache == "computed"
        assert (payload, sarif) == self._one_shot(text, uri)

    @staticmethod
    def _analyze(session, uri):
        # An editor analyzes, then lints: lint then finds the layers
        # the analysis built (programs that fail validation have none).
        try:
            session.analyze_document(uri=uri)
        except ReproError:
            pass

    @pytest.mark.parametrize("name, source", _lint_sources())
    def test_lint_equals_one_shot_across_edits(self, name, source):
        session = Session(store=None)
        uri = f"mem:{name}.adl"
        session.open_document(uri, source)
        self._analyze(session, uri)
        self._check(session, uri, source)

        semantic = source + (
            "\ntask extra_a is begin send extra_b.ping; end;"
            "\ntask extra_b is begin accept ping; end;\n"
        )
        assert session.change_document(uri, semantic)["invalidation"] == "full"
        self._analyze(session, uri)
        self._check(session, uri, semantic)

        shifted = TWO_COMMENT_LINES + semantic
        info = session.change_document(uri, shifted)
        assert info["invalidation"] == "partial"
        self._analyze(session, uri)
        self._check(session, uri, shifted)

    def test_uncached_analyze_after_comment_edit_has_fresh_spans(self):
        from repro.workloads.adl_corpus import lint_corpus

        source = lint_corpus()["stall_candidates"].source
        session = Session(store=None)
        session.analyze_document(uri="mem:s", text=source)
        shifted = TWO_COMMENT_LINES + source
        assert session.change_document("mem:s", shifted)["invalidation"] == (
            "partial"
        )
        # Another algorithm misses the resident front: the index is
        # the kept one, the front half is rebuilt from the new text.
        payload, cache = session.analyze_document(
            uri="mem:s", algorithm="head-pairs"
        )
        assert cache == "computed"
        expected = analysis_result_to_dict(
            repro.analyze(shifted, algorithm="head-pairs")
        )
        assert payload == expected
        before = analysis_result_to_dict(repro.analyze(source))

        def lines(report):
            diagnostics = report["validation"]["diagnostics"]
            return [d["span"]["line"] for d in diagnostics]

        assert lines(payload)
        assert lines(payload) == [line + 2 for line in lines(before)]


def _span_corpus():
    from repro.workloads.adl_corpus import (
        adl_corpus,
        lint_corpus,
        repair_corpus,
    )

    return [
        (f"{tag}/{name}", entry.source)
        for tag, corpus in (
            ("adl", adl_corpus()),
            ("adl_lint", lint_corpus()),
            ("adl_repair", repair_corpus()),
        )
        for name, entry in sorted(corpus.items())
    ]


class TestRepliesUseOwnSpans:
    """Cached results are keyed on the canonical program, which drops
    comments; every reply must still equal a one-shot run of the
    requesting document's own text."""

    EXACT_LIMIT = 20_000

    def _check(self, session, uri, text, tier):
        for algorithm in ("refined", "exact"):
            limit = self.EXACT_LIMIT if algorithm == "exact" else 200_000
            args = dict(algorithm=algorithm, state_limit=limit)
            try:
                expected = analysis_result_to_dict(repro.analyze(text, **args))
            except ReproError:
                with pytest.raises(ReproError):
                    session.analyze_document(uri=uri, text=text, **args)
                continue
            payload, cache = session.analyze_document(
                uri=uri, text=text, **args
            )
            assert (cache, payload) == (tier, expected), (uri, algorithm)

    def test_memory_store_and_restart_replies(self, tmp_path):
        corpus = _span_corpus()
        store = tmp_path / "store"
        session = Session(store=ResultCache(cache_dir=store))
        for name, text in corpus:
            self._check(session, f"mem:{name}/a.adl", text, "computed")
            shifted = TWO_COMMENT_LINES + text
            self._check(session, f"mem:{name}/b.adl", shifted, "memory")
        restarted = Session(store=ResultCache(cache_dir=store))
        for name, text in corpus:
            shifted = TWO_COMMENT_LINES + text
            self._check(restarted, f"mem:{name}/b.adl", shifted, "store")
            self._check(restarted, f"mem:{name}/a.adl", text, "memory")

    def test_repair_fix_spans_follow_the_document(self, tmp_path, capsys):
        from repro.workloads.adl_corpus import load_repair_adl

        text = load_repair_adl("crossed_greeting")
        shifted = TWO_COMMENT_LINES + text
        path = tmp_path / "crossed_greeting.adl"
        path.write_text(shifted)
        out, _ = cli_stdout([str(path), "--suggest-fixes", "--json"], capsys)
        expected = normalize(json.loads(out))
        assert expected["repair"]["fixes"]

        session = Session(store=ResultCache(cache_dir=tmp_path / "store"))
        session.repair_document(uri="mem:a.adl", text=text)
        payload, cache = session.repair_document(uri="mem:b.adl", text=shifted)
        assert (cache, normalize(payload)) == ("memory", expected)
        # A comment edit drops the document's repair payloads too.
        session.change_document("mem:a.adl", shifted)
        payload, cache = session.repair_document(uri="mem:a.adl")
        assert (cache, normalize(payload)) == ("memory", expected)
        assert session.counters["repairs"] == 3
        payload, cache = session.repair_document(uri="mem:a.adl")
        assert (cache, normalize(payload)) == ("memory", expected)
        assert session.counters["repairs"] == 3

    def test_analyze_then_lint_runs_refined_once(self, monkeypatch):
        from tests.conftest import spy_calls

        calls = spy_calls(
            monkeypatch, "repro.analysis.refined:refined_deadlock_analysis"
        )
        session = Session(store=None)
        session.analyze_document(uri="mem:c", text=CROSSED_SRC)
        session.lint_document(uri="mem:c")
        assert len(calls) == 1


class TestOneFrontHalfAttemptPerVersion:
    """A document version whose front half fails is prepared once: lint
    and analyze read the failure, and analyze answers as before."""

    @pytest.fixture
    def smells(self):
        from repro.workloads.adl_corpus import load_lint_adl

        # A recursive call chain: the front half raises ValidationError.
        return load_lint_adl("structure_smells")

    def test_two_lints_and_three_analyzes_prepare_once(
        self, smells, monkeypatch
    ):
        from tests.conftest import front_half_counts

        with pytest.raises(ReproError) as one_shot:
            repro.analyze(smells)
        expected = {
            "code": ANALYSIS_ERROR,
            "message": f"{type(one_shot.value).__name__}: {one_shot.value}",
        }
        counts = front_half_counts(monkeypatch, smells)
        server = make_server()
        rpc(server, "didOpen", {"uri": "mem:s", "text": smells})
        first = rpc(server, "lint", {"uri": "mem:s"})
        assert "ADL006" in {
            d["rule"] for d in first["result"]["report"]["diagnostics"]
        }
        assert counts()[1] == 1
        rpc(server, "lint", {"uri": "mem:s", "disable": ["ADL007"]})
        assert counts()[1] == 1
        for _ in range(3):
            reply = rpc(server, "analyze", {"uri": "mem:s"})
            assert reply["error"] == expected
        assert counts()[1] == 1

    def test_failure_is_kept_until_the_next_change(self, smells, monkeypatch):
        from tests.conftest import spy_calls

        prepares = spy_calls(monkeypatch, "repro.api:prepare")
        doc = Document("mem:s", smells)
        depths = []
        for _ in range(4):
            with pytest.raises(ReproError) as raised:
                doc.prepared()
            depths.append(len(traceback.extract_tb(raised.tb)))
        assert len(prepares) == 1
        # Each raise starts a fresh traceback: it does not grow.
        assert depths[1:] == [depths[1]] * 3
        doc.apply_change(HANDSHAKE_SRC)
        assert doc.prepared().sync_graph is not None
        assert len(prepares) == 2


# ---------------------------------------------------------------------------
# CLI parity


def cli_stdout(argv, capsys):
    from repro.cli import main

    code = main(argv)
    return capsys.readouterr().out, code


class TestCliParity:
    def test_analyze_payload_matches_cli(self, tmp_path, capsys):
        path = tmp_path / "crossed.adl"
        path.write_text(CROSSED_SRC)
        out, _ = cli_stdout([str(path), "--json"], capsys)

        server = make_server()
        reply = rpc(
            server, "analyze", {"uri": "mem:a", "text": CROSSED_SRC}
        )
        assert render_json(reply["result"]["report"]) + "\n" == out

    @pytest.mark.parametrize("workers", [1, 2])
    def test_analyze_payload_matches_cli_with_metrics(self, workers):
        # Under --metrics a cold analyze runs where the obs session
        # records, whatever the worker count, and answers the payload
        # of a run with obs off.
        with obs.observed() as session:
            server = AnalysisServer(workers=workers)
            server.start()
            try:
                box = submit_request(
                    server, "analyze", {"uri": "mem:a", "text": CROSSED_SRC}
                )
                assert box["done"].wait(timeout=60)
            finally:
                server.drain()
        expected = analysis_result_to_dict(repro.analyze(CROSSED_SRC))
        assert session.registry.counter_value("refined.heads_examined") > 0
        assert box["reply"]["result"]["cache"] == "computed"
        assert box["reply"]["result"]["report"] == expected

    def test_lint_payload_matches_cli(self, tmp_path, capsys):
        path = tmp_path / "crossed.adl"
        path.write_text(CROSSED_SRC)
        out, _ = cli_stdout([str(path), "--lint", "--json"], capsys)

        server = make_server()
        reply = rpc(
            server, "lint", {"uri": str(path), "text": CROSSED_SRC}
        )
        assert render_json(reply["result"]["report"]) + "\n" == out

    def test_repair_payload_matches_cli(self, tmp_path, capsys):
        path = tmp_path / "crossed.adl"
        path.write_text(CROSSED_SRC)
        out, _ = cli_stdout(
            [str(path), "--suggest-fixes", "--json"], capsys
        )

        server = make_server()
        reply = rpc(
            server, "repair", {"uri": "mem:a", "text": CROSSED_SRC}
        )
        report = reply["result"]["report"]
        assert report["repair"]["fixed"]
        cli_payload = json.loads(out)
        norm_cli, norm_srv = normalize(cli_payload), normalize(report)
        assert norm_cli == norm_srv
        # Byte parity modulo the wall-clock field repair runs carry.
        assert render_json(norm_srv) + "\n" == render_json(norm_cli) + "\n"


# ---------------------------------------------------------------------------
# daemon dispatch


class TestDaemonDispatch:
    def test_unknown_method(self):
        reply = rpc(make_server(), "mystery")
        assert reply["error"]["code"] == METHOD_NOT_FOUND

    def test_malformed_line(self):
        reply = make_server().handle_line("{oops")
        assert reply["id"] is None
        assert reply["error"]["code"] == PARSE_ERROR

    def test_analysis_error_code(self):
        reply = rpc(
            make_server(),
            "analyze",
            {"uri": "mem:a", "text": "task broken"},
        )
        assert reply["error"]["code"] == ANALYSIS_ERROR
        assert "ParseError" in reply["error"]["message"]

    def test_unparsable_for_bound_after_good_text(self):
        # "²" passes str.isdigit but not int(): the edit must drop the
        # document's old program, so analyze and lint answer the parse
        # error instead of the previous text's report.
        server = make_server()
        rpc(server, "didOpen", {"uri": "mem:sq", "text": HANDSHAKE_SRC})
        assert "result" in rpc(server, "analyze", {"uri": "mem:sq"})
        reply = rpc(
            server, "didChange", {"uri": "mem:sq", "text": SUPERSCRIPT_BOUND_SRC}
        )
        assert reply["result"]["invalidation"] == "full"
        for method in ("analyze", "lint"):
            reply = rpc(server, method, {"uri": "mem:sq"})
            assert reply["error"]["code"] == ANALYSIS_ERROR, reply
            assert reply["error"]["message"] == (
                f"ParseError: {SUPERSCRIPT_BOUND_ERROR}"
            )
        reply = rpc(
            server, "analyze", {"uri": "mem:new", "text": SUPERSCRIPT_BOUND_SRC}
        )
        assert reply["error"]["code"] == ANALYSIS_ERROR, reply

    def test_invalid_params_code(self):
        reply = rpc(make_server(), "didOpen", {"text": "no uri"})
        assert reply["error"]["code"] == INVALID_PARAMS

    def test_batch_in_memory_items(self):
        reply = rpc(
            make_server(),
            "batch",
            {
                "items": [
                    {"label": "bad", "text": CROSSED_SRC},
                    {"label": "good", "text": HANDSHAKE_SRC},
                ]
            },
        )
        report = reply["result"]["report"]
        assert report["items"] == 2
        verdicts = {
            item["label"]: item["deadlock"]["verdict"]
            for item in report["item_reports"]
        }
        assert verdicts["bad"] == "possible-deadlock"
        assert verdicts["good"] == "certified-deadlock-free"

    @pytest.mark.parametrize(
        "jobs",
        [0, -1, True, 2.0, "2"],
        ids=["zero", "negative", "true", "float", "string"],
    )
    def test_invalid_batch_jobs_is_invalid_params(self, jobs, monkeypatch):
        from repro.farm import pool

        def no_executor(jobs):
            raise AssertionError("an invalid batch started a process")

        monkeypatch.setattr(pool, "_new_executor", no_executor)
        reply = rpc(
            make_server(),
            "batch",
            {"items": [{"label": "a", "text": CROSSED_SRC}], "jobs": jobs},
        )
        assert reply["error"]["code"] == INVALID_PARAMS, reply
        assert "jobs" in reply["error"]["message"]

    @pytest.mark.parametrize(
        "value",
        [0, -3, True, 2.7, "5"],
        ids=["zero", "negative", "true", "float", "string"],
    )
    @pytest.mark.parametrize(
        "method, field",
        [
            ("analyze", "state_limit"),
            ("analyze", "beam_width"),
            ("repair", "state_limit"),
            ("repair", "max_fixes"),
            ("repair", "beam_width"),
            ("batch", "state_limit"),
        ],
    )
    def test_invalid_count_param_is_invalid_params(self, method, field, value):
        params = (
            {"items": [{"label": "a", "text": CROSSED_SRC}]}
            if method == "batch"
            else {"uri": "mem:c", "text": CROSSED_SRC, "exact": True}
        )
        if field == "beam_width":
            params["strategy"] = "beam"
        params[field] = value
        reply = rpc(make_server(), method, params)
        assert reply["error"]["code"] == INVALID_PARAMS, reply
        assert field in reply["error"]["message"]

    @pytest.mark.parametrize(
        "value",
        [-3, True, 2.7, "5", None],
        ids=["negative", "true", "float", "string", "null"],
    )
    @pytest.mark.parametrize("method", ["didOpen", "didChange"])
    def test_invalid_version_is_invalid_params(self, method, value):
        server = make_server()
        rpc(server, "didOpen", {"uri": "mem:v", "text": CROSSED_SRC})
        reply = rpc(
            server,
            method,
            {"uri": "mem:v", "text": HANDSHAKE_SRC, "version": value},
        )
        assert reply["error"]["code"] == INVALID_PARAMS, reply
        assert "version" in reply["error"]["message"]
        status = rpc(server, "status")["result"]
        assert [d["version"] for d in status["documents"]] == [1]

    @pytest.mark.parametrize("method", ["didOpen", "didChange"])
    def test_version_zero_and_absent(self, method):
        # Version 0 is kept as sent, also when didChange opens the
        # document.  Absent, didOpen starts at 1 and didChange counts
        # up from the current version.
        server = make_server()
        reply = rpc(
            server, method, {"uri": "mem:v", "text": CROSSED_SRC, "version": 0}
        )
        assert reply["result"]["version"] == 0
        reply = rpc(server, method, {"uri": "mem:v", "text": HANDSHAKE_SRC})
        assert reply["result"]["version"] == 1

    def test_shutdown_sets_flag_and_flushes(self):
        server = make_server()
        reply = rpc(server, "shutdown")
        assert reply["result"] == {"ok": True, "flushed": 0}
        assert server.shutting_down.is_set()

    def test_exact_timeout_maps_to_1001(self):
        # The deadline (1 ns after the analysis started) has passed by
        # the time the search loop checks it on entry: every cold key
        # answers 1001, and nothing of the aborted work is cached.
        server = make_server()
        for state_limit in (100, 200, 300, 400, 500):
            reply = rpc(
                server,
                "analyze",
                {
                    "uri": "mem:a",
                    "text": CROSSED_SRC,
                    "exact": True,
                    "state_limit": state_limit,
                    "timeout": 1e-9,
                },
            )
            assert reply["error"]["code"] == REQUEST_TIMEOUT, reply
        reply = rpc(
            server,
            "analyze",
            {"uri": "mem:a", "exact": True, "state_limit": 100},
        )
        assert reply["result"]["cache"] == "computed"

    def test_exact_with_generous_timeout_completes(self):
        server = make_server()
        reply = rpc(
            server,
            "analyze",
            {
                "uri": "mem:a",
                "text": CROSSED_SRC,
                "exact": True,
                "timeout": 120,
            },
        )
        assert reply["result"]["cache"] == "computed"
        report = reply["result"]["report"]
        assert report["deadlock"]["verdict"] == "possible-deadlock"

    def test_exact_shorthand_shares_the_exact_entry(self):
        # "exact": true is "algorithm": "exact": one key, one run.
        server = make_server()
        first = rpc(
            server,
            "analyze",
            {"uri": "mem:a", "text": CROSSED_SRC, "exact": True},
        )
        second = rpc(server, "analyze", {"uri": "mem:a", "algorithm": "exact"})
        assert first["result"]["cache"] == "computed"
        assert second["result"] == dict(first["result"], cache="memory")

    def test_retired_backend_param_is_ignored(self):
        # Clients that still send the removed "backend" param keep
        # working: the daemon ignores params it does not know.
        params = {"uri": "mem:a", "text": CROSSED_SRC}
        plain = rpc(make_server(), "analyze", params)
        legacy = rpc(
            make_server(), "analyze", {**params, "backend": "reference"}
        )
        assert "error" not in legacy
        assert normalize(legacy["result"]) == normalize(plain["result"])

    def test_queue_size_default(self):
        assert make_server().scheduler.max_pending == DEFAULT_QUEUE_SIZE

    def test_parse_hostport(self):
        assert parse_hostport("localhost:9000") == ("localhost", 9000)
        assert parse_hostport(":9000") == ("127.0.0.1", 9000)
        assert parse_hostport("0.0.0.0") == ("0.0.0.0", 8171)
        with pytest.raises(ValueError):
            parse_hostport("host:not-a-port")


# ---------------------------------------------------------------------------
# golden transcripts


def transcript_requests():
    crossed = {"uri": "mem:crossed", "text": CROSSED_SRC}
    return {
        "analyze_lifecycle.jsonl": [
            {"id": 1, "method": "ping", "params": {}},
            {
                "id": 2,
                "method": "didOpen",
                "params": {"uri": "mem:crossed", "text": CROSSED_SRC},
            },
            {
                "id": 3,
                "method": "analyze",
                "params": {"uri": "mem:crossed"},
            },
            {
                "id": 4,
                "method": "analyze",
                "params": {"uri": "mem:crossed"},
            },
            {
                "id": 5,
                "method": "didChange",
                "params": {
                    "uri": "mem:crossed",
                    "text": CROSSED_COMMENTED,
                },
            },
            {
                "id": 6,
                "method": "analyze",
                "params": {"uri": "mem:crossed"},
            },
            {
                "id": 7,
                "method": "didClose",
                "params": {"uri": "mem:crossed"},
            },
            {"id": 8, "method": "shutdown", "params": {}},
        ],
        "lint_repair.jsonl": [
            {"id": 1, "method": "lint", "params": dict(crossed, sarif=True)},
            {"id": 2, "method": "repair", "params": crossed},
            {"id": 3, "method": "shutdown", "params": {}},
        ],
        "errors.jsonl": [
            {"raw": "{definitely not json"},
            {"id": 1, "method": "mystery", "params": {}},
            {"id": 2, "method": "analyze", "params": {"uri": "mem:ghost"}},
            {"id": 3, "method": "shutdown", "params": {}},
        ],
        "cancel_status.jsonl": [
            {
                "id": 1,
                "method": "didOpen",
                "params": {"uri": "mem:crossed", "text": CROSSED_SRC},
            },
            # Nothing queued or running on the synchronous path: the
            # unknown-id shape is the deterministic one.
            {"id": 2, "method": "cancel", "params": {"id": 99}},
            {"id": 3, "method": "cancel", "params": {}},
            {"id": 4, "method": "status", "params": {}},
            {"id": 5, "method": "shutdown", "params": {}},
        ],
    }


def drive_transcript(requests):
    server = make_server()
    exchanges = []
    for req in requests:
        line = req["raw"] if "raw" in req else json.dumps(req)
        reply = server.handle_line(line)
        exchanges.append({"request": req, "response": normalize(reply)})
    return exchanges


@pytest.mark.parametrize("name", sorted(transcript_requests()))
def test_golden_transcript(name):
    requests = transcript_requests()[name]
    exchanges = drive_transcript(requests)
    path = GOLDEN_DIR / name
    if REGEN:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(
            "".join(json.dumps(x, sort_keys=True) + "\n" for x in exchanges)
        )
        pytest.skip(f"regenerated {path}")
    assert path.exists(), (
        f"missing golden transcript {path}; regenerate with "
        "REPRO_REGEN_GOLDEN=1"
    )
    expected = [
        json.loads(line) for line in path.read_text().splitlines()
    ]
    assert exchanges == expected


# ---------------------------------------------------------------------------
# stdio subprocess smoke


def run_daemon(requests, *extra_args, timeout=180):
    env = dict(os.environ)
    root = Path(__file__).parent.parent
    env["PYTHONPATH"] = str(root / "src")
    lines = "".join(json.dumps(r) + "\n" for r in requests)
    proc = subprocess.run(
        [sys.executable, "-m", "repro.server", *extra_args],
        input=lines,
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
        cwd=root,
    )
    replies = [json.loads(l) for l in proc.stdout.splitlines()]
    return proc, replies


class TestStdioSmoke:
    def test_full_round_trip(self, tmp_path):
        proc, replies = run_daemon(
            [
                {
                    "id": 1,
                    "method": "analyze",
                    "params": {"uri": "mem:a", "text": CROSSED_SRC},
                },
                {"id": 2, "method": "analyze", "params": {"uri": "mem:a"}},
                {"id": 3, "method": "status", "params": {}},
                {"id": 4, "method": "shutdown", "params": {}},
            ],
            "--cache-dir",
            str(tmp_path),
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        by_id = {r["id"]: r for r in replies}
        assert by_id[1]["result"]["cache"] == "computed"
        assert by_id[2]["result"]["cache"] == "memory"
        assert by_id[3]["result"]["counters"]["cache_hits"] == 1
        assert by_id[4]["result"]["ok"] is True

        # Same store, new process: resident across restarts.
        proc2, replies2 = run_daemon(
            [
                {
                    "id": 1,
                    "method": "analyze",
                    "params": {"uri": "mem:a", "text": CROSSED_SRC},
                },
                {"id": 2, "method": "shutdown", "params": {}},
            ],
            "--cache-dir",
            str(tmp_path),
        )
        assert proc2.returncode == 0
        assert replies2[0]["result"]["cache"] == "store"

    def test_eof_is_graceful(self):
        proc, replies = run_daemon(
            [{"id": 1, "method": "ping", "params": {}}], "--no-store"
        )
        assert proc.returncode == 0
        assert replies[0]["result"] == {"pong": True}

    def test_stdout_is_protocol_pure(self, tmp_path):
        proc, replies = run_daemon(
            [
                {
                    "id": 1,
                    "method": "analyze",
                    "params": {"uri": "mem:a", "text": CROSSED_SRC},
                },
                {"id": "bad", "method": "nope", "params": {}},
                {"id": 2, "method": "shutdown", "params": {}},
            ],
            "--no-store",
        )
        assert proc.returncode == 0
        # Every stdout line parses and carries the envelope keys.
        assert len(replies) == 3
        for reply in replies:
            assert set(reply) <= {"id", "result", "error"}

    def test_multi_worker_round_trip(self):
        # Responses may arrive out of order with a real pool; the
        # envelope ids are the correlation mechanism.
        proc, replies = run_daemon(
            [
                {
                    "id": 1,
                    "method": "analyze",
                    "params": {"uri": "mem:a", "text": CROSSED_SRC},
                },
                {
                    "id": 2,
                    "method": "analyze",
                    "params": {"uri": "mem:b", "text": HANDSHAKE_SRC},
                },
                {"id": 3, "method": "shutdown", "params": {}},
            ],
            "--no-store",
            "--workers",
            "2",
        )
        assert proc.returncode == 0
        by_id = {r["id"]: r for r in replies}
        assert len(by_id) == 3
        assert (
            by_id[1]["result"]["report"]["deadlock"]["verdict"]
            == "possible-deadlock"
        )
        assert (
            by_id[2]["result"]["report"]["deadlock"]["verdict"]
            == "certified-deadlock-free"
        )
        assert by_id[3]["result"]["ok"] is True


# ---------------------------------------------------------------------------
# stdio with the pipe held open: replies read one at a time, as an
# editor drives the daemon (closing stdin first hides fork deadlocks)


def _group_alive(pgid):
    """Pids of the process group that have not exited (zombies count
    as exited)."""
    alive = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            alive.append(int(stat.parent.name))
    return alive


class OpenPipeDaemon:
    """``python -m repro.server`` in its own process group, up and
    answering (a ``ping`` round trip) once constructed."""

    def __init__(self, *args):
        root = Path(__file__).parent.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.server", "--no-store", *args],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env=env,
            cwd=root,
            start_new_session=True,
        )
        self.replies = queue.Queue()
        threading.Thread(target=self._read, daemon=True).start()
        self.send("hello", "ping")
        assert self.reply(within=30)["result"] == {"pong": True}

    def _read(self):
        for line in self.proc.stdout:
            self.replies.put(json.loads(line))

    def send(self, id, method, params=None):
        self.proc.stdin.write(
            json.dumps({"id": id, "method": method, "params": params or {}})
            + "\n"
        )
        self.proc.stdin.flush()

    def reply(self, within):
        """The next reply, failing if none arrives ``within`` seconds."""
        try:
            return self.replies.get(timeout=within)
        except queue.Empty:
            pytest.fail(f"no reply within {within}s")

    def shutdown(self):
        """``shutdown`` must exit 0 and leave no process behind."""
        self.send("bye", "shutdown")
        assert self.reply(within=30)["result"]["ok"] is True
        assert self.proc.wait(timeout=30) == 0
        deadline = time.monotonic() + 10
        while _group_alive(self.proc.pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert _group_alive(self.proc.pid) == []

    def kill(self):
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait(timeout=30)


@pytest.fixture
def open_pipe_daemon():
    daemons = []

    def spawn(*args):
        daemons.append(OpenPipeDaemon(*args))
        return daemons[-1]

    yield spawn
    for daemon in daemons:
        daemon.kill()


# Exact BFS over 1.86M waves: tens of seconds without a budget.
LONG_SEARCH = {
    "uri": "mem:long",
    "text": pretty(dining_philosophers(10)),
    "exact": True,
    "state_limit": 5_000_000,
}


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="reads /proc"
)
class TestOpenPipeDaemon:
    def test_two_workers_answer_a_cold_analyze(self, open_pipe_daemon):
        daemon = open_pipe_daemon("--workers", "2")
        daemon.send(1, "analyze", {"uri": "mem:a", "text": CROSSED_SRC})
        reply = daemon.reply(within=30)
        verdict = reply["result"]["report"]["deadlock"]["verdict"]
        assert verdict == "possible-deadlock"
        daemon.send(2, "status")
        assert daemon.reply(within=30)["result"]["counters"]["computed"] == 1
        daemon.shutdown()

    def test_batch_with_two_jobs_is_answered(self, open_pipe_daemon):
        daemon = open_pipe_daemon()
        items = [
            {"label": "bad", "text": CROSSED_SRC},
            {"label": "good", "text": HANDSHAKE_SRC},
        ]
        daemon.send(1, "batch", {"items": items, "jobs": 2})
        assert daemon.reply(within=30)["result"]["report"]["items"] == 2
        daemon.shutdown()

    def test_timeout_drill(self, open_pipe_daemon):
        daemon = open_pipe_daemon()
        started = time.monotonic()
        daemon.send(1, "analyze", dict(LONG_SEARCH, timeout=0.2))
        reply = daemon.reply(within=5)
        assert reply["error"]["code"] == REQUEST_TIMEOUT
        assert time.monotonic() - started < 1.0
        # The same worker is free at once, and a timed request that
        # fits its budget answers with a report.
        started = time.monotonic()
        daemon.send(2, "analyze", {"uri": "mem:a", "text": CROSSED_SRC,
                                   "timeout": 2})
        assert daemon.reply(within=5)["result"]["cache"] == "computed"
        assert time.monotonic() - started < 1.0
        daemon.shutdown()

    @pytest.mark.parametrize(
        "args", [(), ("--workers", "2")], ids=["one-worker", "two-workers"]
    )
    def test_cancel_drill(self, open_pipe_daemon, args):
        daemon = open_pipe_daemon(*args)
        daemon.send(1, "analyze", LONG_SEARCH)
        time.sleep(1.0)  # a worker is searching by now
        cancelled_at = time.monotonic()
        daemon.send(2, "cancel", {"id": 1})
        replies = {}
        for _ in range(2):
            reply = daemon.reply(within=5)
            replies[reply["id"]] = reply
        assert replies[2]["result"] == {
            "id": 1, "cancelled": True, "state": "running"
        }
        assert replies[1]["error"]["code"] == REQUEST_CANCELLED
        assert time.monotonic() - cancelled_at < 1.0
        started = time.monotonic()
        daemon.send(3, "analyze", {"uri": "mem:a", "text": CROSSED_SRC})
        assert daemon.reply(within=5)["result"]["cache"] == "computed"
        assert time.monotonic() - started < 1.0
        daemon.send(4, "status")
        counters = daemon.reply(within=5)["result"]["counters"]
        assert counters["cancelled"] == 1
        daemon.shutdown()


# ---------------------------------------------------------------------------
# fair scheduler


def sched_entry(method, id, client="default", respond=None):
    from repro.server.protocol import Request
    from repro.server.scheduler import ScheduledRequest

    return ScheduledRequest(
        request=Request(id=id, method=method, params={}),
        client=client,
        respond=respond or (lambda reply: None),
    )


class TestFairScheduler:
    def test_interactive_dispatches_before_batch(self):
        from repro.server.scheduler import FairScheduler

        sched = FairScheduler()
        sched.submit(sched_entry("batch", 1))
        sched.submit(sched_entry("analyze", 2))
        sched.submit(sched_entry("lint", 3))
        order = [sched.take().request.id for _ in range(3)]
        assert order == [2, 3, 1]

    def test_round_robin_across_clients(self):
        from repro.server.scheduler import FairScheduler

        sched = FairScheduler()
        for i in range(3):
            sched.submit(sched_entry("analyze", f"a{i}", client="alice"))
        for i in range(2):
            sched.submit(sched_entry("analyze", f"b{i}", client="bob"))
        order = [sched.take().request.id for _ in range(5)]
        # 1:1 interleave, not alice's arrival burst first.
        assert order == ["a0", "b0", "a1", "b1", "a2"]

    def test_fifo_within_one_client(self):
        from repro.server.scheduler import FairScheduler

        sched = FairScheduler()
        for i in range(5):
            sched.submit(sched_entry("analyze", i))
        assert [sched.take().request.id for _ in range(5)] == list(range(5))

    def test_bounded_queue_rejects_overflow(self):
        from repro.server.scheduler import FairScheduler

        sched = FairScheduler(max_pending=2)
        assert sched.submit(sched_entry("analyze", 1))
        assert sched.submit(sched_entry("analyze", 2))
        assert not sched.submit(sched_entry("analyze", 3))
        sched.take()
        assert sched.submit(sched_entry("analyze", 4))

    def test_cancel_removes_queued_entry(self):
        from repro.server.scheduler import FairScheduler

        sched = FairScheduler()
        sched.submit(sched_entry("analyze", 1))
        sched.submit(sched_entry("analyze", 2))
        entry = sched.cancel("default", 1)
        assert entry is not None and entry.cancelled.is_set()
        assert sched.cancel("default", 99) is None
        assert sched.cancel("other-client", 2) is None
        assert sched.take().request.id == 2
        assert sched.depth() == 0

    def test_close_drains_then_returns_none(self):
        from repro.server.scheduler import FairScheduler

        sched = FairScheduler()
        sched.submit(sched_entry("analyze", 1))
        sched.close()
        assert not sched.submit(sched_entry("analyze", 2))
        assert sched.take().request.id == 1
        assert sched.take() is None

    def test_snapshot_shape(self):
        from repro.server.scheduler import FairScheduler

        sched = FairScheduler(max_pending=9)
        sched.submit(sched_entry("analyze", 1, client="alice"))
        sched.submit(sched_entry("batch", 2, client="alice"))
        snap = sched.snapshot()
        assert snap["pending"] == 2
        assert snap["max_pending"] == 9
        assert snap["levels"] == [{"alice": 1}, {"alice": 1}]


# ---------------------------------------------------------------------------
# concurrent daemon: worker pool, cancellation, fairness end to end


def submit_request(server, method, params=None, id=1, client=None):
    """Submit through the pool; returns the (thread-safe) reply box."""
    import threading

    from repro.server.protocol import Request

    box = {}
    done = threading.Event()

    def respond(reply):
        box["reply"] = reply
        done.set()

    box["done"] = done
    server.submit(
        Request(id=id, method=method, params=params or {}),
        client=client,
        respond=respond,
    )
    return box


class TestConcurrentDaemon:
    def test_pool_serves_concurrent_clients(self):
        server = AnalysisServer(session=Session(store=None), workers=4)
        server.start()
        total = 12
        boxes = []
        try:
            for i in range(total):
                client = f"c{i % 3}"
                boxes.append(
                    submit_request(
                        server,
                        "analyze",
                        {"uri": f"mem:{client}", "text": CROSSED_SRC},
                        id=i,
                        client=client,
                    )
                )
            for box in boxes:
                assert box["done"].wait(timeout=300)
        finally:
            server.drain()
        for i, box in enumerate(boxes):
            reply = box["reply"]
            assert reply["id"] == i
            verdict = reply["result"]["report"]["deadlock"]["verdict"]
            assert verdict == "possible-deadlock"
        # Thread-safe counters: exact, not approximate.
        assert server.session.counters["requests"] == total

    def test_cancel_queued_request_answers_1004(self):
        from repro.server.protocol import REQUEST_CANCELLED

        server = AnalysisServer(session=Session(store=None), workers=1)
        import threading

        entered, release = threading.Event(), threading.Event()

        def slow(params, client):
            entered.set()
            release.wait(timeout=30)
            return {"slow": True}

        server._handlers["lint"] = slow
        server.start()
        try:
            first = submit_request(server, "lint", id=1)
            assert entered.wait(timeout=30)
            # Queued behind the blocked worker; then cancelled.
            stale = submit_request(
                server, "analyze", {"uri": "mem:a", "text": CROSSED_SRC}, id=2
            )
            cancel = submit_request(server, "cancel", {"id": 2}, id=3)
            # cancel runs on the submitting thread: answered already,
            # without waiting for the busy worker.
            assert cancel["done"].wait(timeout=30)
            assert cancel["reply"]["result"] == {
                "id": 2,
                "cancelled": True,
                "state": "queued",
            }
            assert stale["done"].is_set()
            assert (
                stale["reply"]["error"]["code"] == REQUEST_CANCELLED
            )
            # The replacement is not blocked by the cancelled one.
            fresh = submit_request(
                server,
                "analyze",
                {"uri": "mem:a", "text": HANDSHAKE_SRC},
                id=4,
            )
            release.set()
            assert first["done"].wait(timeout=30)
            assert fresh["done"].wait(timeout=300)
            verdict = fresh["reply"]["result"]["report"]["deadlock"]["verdict"]
            assert verdict == "certified-deadlock-free"
        finally:
            release.set()
            server.drain()
        assert server.session.counters["cancelled"] == 1

    def test_cancel_in_flight_discards_result(self):
        from repro.server.protocol import REQUEST_CANCELLED

        server = AnalysisServer(session=Session(store=None), workers=1)
        import threading

        entered, release = threading.Event(), threading.Event()

        def slow(params, client):
            entered.set()
            release.wait(timeout=30)
            return {"slow": True}

        server._handlers["lint"] = slow
        server.start()
        try:
            running = submit_request(server, "lint", id=1)
            assert entered.wait(timeout=30)
            cancel = submit_request(server, "cancel", {"id": 1}, id=2)
            assert cancel["reply"]["result"] == {
                "id": 1,
                "cancelled": True,
                "state": "running",
            }
            release.set()
            assert running["done"].wait(timeout=30)
            # The handler finished, but the caller asked us not to
            # deliver: the reply is the cancellation, not the result.
            assert running["reply"]["error"]["code"] == REQUEST_CANCELLED
        finally:
            release.set()
            server.drain()

    @pytest.mark.parametrize(
        "method, warm",
        [("lint", False), ("repair", False), ("repair", True)],
        ids=["lint", "repair-cold", "repair-warm-analysis"],
    )
    def test_cancel_in_flight_caches_no_wrong_result(self, method, warm):
        # A cancel that lands while lint or repair runs must not leave a
        # wrong result in the caches: both catch analysis errors, so an
        # abort inside them would be stored as a report missing ADL012
        # or with every candidate FAILED.  Repeating the request must
        # give the payload of a run that was never cancelled.
        from repro.server.protocol import REQUEST_CANCELLED

        params = {"uri": "mem:a", "text": CROSSED_SRC}
        expected = normalize(
            rpc(make_server(), method, params)["result"]["report"]
        )
        server = AnalysisServer(session=Session(store=None), workers=1)
        if warm:
            # The repair's analysis is a cache hit: only the repair
            # synthesis runs after the cancel.
            rpc(server, "analyze", params)
        session_method = f"{method}_document"
        original = getattr(server.session, session_method)

        def cancelled_while_running(*args, **kwargs):
            cancel = submit_request(server, "cancel", {"id": 1}, id=2)
            assert cancel["reply"]["result"]["state"] == "running"
            return original(*args, **kwargs)

        setattr(server.session, session_method, cancelled_while_running)
        server.start()
        try:
            running = submit_request(server, method, params, id=1)
            assert running["done"].wait(timeout=300)
            assert running["reply"]["error"]["code"] == REQUEST_CANCELLED
            delattr(server.session, session_method)
            again = submit_request(server, method, {"uri": "mem:a"}, id=3)
            assert again["done"].wait(timeout=300)
        finally:
            server.drain()
        assert normalize(again["reply"]["result"]["report"]) == expected
        # lint and a warm repair finish despite the cancel (and warm the
        # cache); a cold repair stops in its analysis and caches nothing.
        cold_repair = method == "repair" and not warm
        assert again["reply"]["result"]["cache"] == (
            "computed" if cold_repair else "memory"
        )

    def test_cancel_unknown_id_reports_false(self):
        reply = rpc(make_server(), "cancel", {"id": 404})
        assert reply["result"] == {
            "id": 404,
            "cancelled": False,
            "state": "unknown",
        }

    def test_cancel_without_id_is_invalid_params(self):
        reply = rpc(make_server(), "cancel", {})
        assert reply["error"]["code"] == INVALID_PARAMS

    def test_batch_yields_to_interactive(self):
        server = AnalysisServer(session=Session(store=None), workers=1)
        import threading

        entered, release = threading.Event(), threading.Event()
        order = []
        order_lock = threading.Lock()

        def slow(params, client):
            entered.set()
            release.wait(timeout=30)
            return {"slow": True}

        def quick(tag):
            def handler(params, client):
                with order_lock:
                    order.append(tag)
                return {"tag": tag}

            return handler

        server._handlers["lint"] = slow
        server._handlers["batch"] = quick("batch")
        server._handlers["analyze"] = quick("analyze")
        server.start()
        try:
            first = submit_request(server, "lint", id=1)
            assert entered.wait(timeout=30)
            # batch arrives first, analyze second — analyze still wins.
            batch = submit_request(server, "batch", id=2)
            inter = submit_request(server, "analyze", id=3)
            release.set()
            for box in (first, batch, inter):
                assert box["done"].wait(timeout=30)
        finally:
            release.set()
            server.drain()
        assert order == ["analyze", "batch"]

    def test_drain_answers_everything_queued(self):
        server = AnalysisServer(session=Session(store=None), workers=2)
        server.start()
        boxes = [
            submit_request(server, "ping", id=i, client=f"c{i % 2}")
            for i in range(10)
        ]
        server.drain()
        for box in boxes:
            assert box["done"].is_set()
            assert box["reply"]["result"] == {"pong": True}

    def test_submit_after_shutdown_answers_1003(self):
        from repro.server.protocol import SHUTTING_DOWN

        server = AnalysisServer(session=Session(store=None), workers=1)
        server.shutting_down.set()
        box = submit_request(server, "ping", id=1)
        assert box["reply"]["error"]["code"] == SHUTTING_DOWN

    def test_overflow_answers_server_busy(self):
        from repro.server.protocol import SERVER_BUSY

        # No workers started: the queue only fills.
        server = AnalysisServer(
            session=Session(store=None), queue_size=2, workers=1
        )
        submit_request(server, "ping", id=1)
        submit_request(server, "ping", id=2)
        box = submit_request(server, "ping", id=3)
        assert box["reply"]["error"]["code"] == SERVER_BUSY
        server.scheduler.close()


# ---------------------------------------------------------------------------
# per-client namespaces


class TestClientNamespaces:
    def test_same_uri_isolated_per_client(self):
        session = Session(store=None)
        session.open_document("mem:a", CROSSED_SRC, client="alice")
        session.open_document("mem:a", HANDSHAKE_SRC, client="bob")
        p1, _ = session.analyze_document(uri="mem:a", client="alice")
        p2, _ = session.analyze_document(uri="mem:a", client="bob")
        assert p1["deadlock"]["verdict"] == "possible-deadlock"
        assert p2["deadlock"]["verdict"] == "certified-deadlock-free"
        status = session.status()
        assert status["clients"] == {
            "alice": ["mem:a"],
            "bob": ["mem:a"],
        }
        # The flat single-client view shows only the default namespace.
        assert status["documents"] == []

    def test_result_cache_crosses_namespaces(self):
        session = Session(store=None)
        _, c1 = session.analyze_document(
            uri="mem:a", text=CROSSED_SRC, client="alice"
        )
        _, c2 = session.analyze_document(
            uri="mem:b", text=CROSSED_SRC, client="bob"
        )
        # Content-addressed: bob is warm from alice's work.
        assert (c1, c2) == ("computed", "memory")

    def test_close_is_scoped_to_client(self):
        session = Session(store=None)
        session.open_document("mem:a", CROSSED_SRC, client="alice")
        session.open_document("mem:a", CROSSED_SRC, client="bob")
        assert session.close_document("mem:a", client="alice")
        assert not session.close_document("mem:a", client="alice")
        assert "mem:a" in session._docs("bob")

    def test_request_client_field_routes_namespace(self):
        server = make_server()
        server.handle_line(
            json.dumps(
                {
                    "id": 1,
                    "method": "didOpen",
                    "client": "alice",
                    "params": {"uri": "mem:x", "text": CROSSED_SRC},
                }
            )
        )
        # bob never opened mem:x — different namespace, unknown doc.
        bob = server.handle_line(
            json.dumps(
                {
                    "id": 2,
                    "method": "analyze",
                    "client": "bob",
                    "params": {"uri": "mem:x"},
                }
            )
        )
        assert bob["error"]["code"] == INVALID_PARAMS
        alice = server.handle_line(
            json.dumps(
                {
                    "id": 3,
                    "method": "analyze",
                    "client": "alice",
                    "params": {"uri": "mem:x"},
                }
            )
        )
        assert alice["result"]["cache"] == "computed"

    def test_non_string_client_rejected(self):
        reply = make_server().handle_line(
            '{"id": 1, "method": "ping", "client": 7, "params": {}}'
        )
        assert reply["error"]["code"] == INVALID_REQUEST


# ---------------------------------------------------------------------------
# the timeout bugfix: honored for every algorithm, not just exact


class TestTimeoutHonored:
    def test_refined_expired_deadline_answers_1001(self):
        # Before the fix, ``timeout`` on a non-exact request was
        # silently dropped; the refined pipeline checks the deadline in
        # its orderings fixpoint and per-head loop.
        server = make_server()
        for state_limit in (100, 200, 300, 400, 500):
            reply = rpc(
                server,
                "analyze",
                {
                    "uri": "mem:a",
                    "text": CROSSED_SRC,
                    "algorithm": "refined",
                    "state_limit": state_limit,
                    "timeout": 1e-9,
                },
            )
            assert reply["error"]["code"] == REQUEST_TIMEOUT, reply
        # The index build was aborted, so the layer is absent.
        doc = server.session.documents["mem:a"]
        assert doc.artifacts()["index"] is False
        reply = rpc(server, "analyze", {"uri": "mem:a", "state_limit": 100})
        assert reply["result"]["cache"] == "computed"

    # Each program keeps its algorithm's hypothesis loop busy for at
    # least 10x the 0.05 s timeout (2-vCPU host, Python 3.11: 0.85,
    # 0.82, 0.73 and 1.07 s), while parse, sync graph, orderings and
    # index take at most 0.02 s.  One check interval, CHECK_EVERY
    # hypotheses, takes at most 30 ms of it there; the bound allows 0.1 s.
    @pytest.mark.parametrize(
        "algorithm, program",
        [
            ("head-pairs", ("pipeline", 70)),
            ("head-tail", ("client_server", 30, 2)),
            ("combined-pairs", ("pipeline", 50)),
            ("k-pairs-3", ("dining_philosophers", 6, True)),
        ],
        ids=["head-pairs", "head-tail", "combined-pairs", "k-pairs-3"],
    )
    def test_extension_loops_answer_1001_in_time(self, algorithm, program):
        from repro.workloads import patterns

        factory, *args = program
        text = pretty(getattr(patterns, factory)(*args))
        server = make_server()
        started = time.perf_counter()
        reply = rpc(
            server,
            "analyze",
            {"uri": "mem:a", "text": text, "algorithm": algorithm,
             "timeout": 0.05},
        )
        elapsed = time.perf_counter() - started
        assert reply["error"]["code"] == REQUEST_TIMEOUT, reply
        assert elapsed < 0.05 + 0.1
        assert len(server.session.lru) == 0

    @pytest.mark.parametrize("method", ["analyze", "batch"])
    @pytest.mark.parametrize(
        "timeout",
        [float("nan"), float("inf"), True, 0, -1, "2"],
        ids=["nan", "inf", "true", "zero", "negative", "string"],
    )
    def test_invalid_timeout_is_invalid_params(self, method, timeout):
        params = {"timeout": timeout}
        if method == "analyze":
            params.update(uri="mem:a", text=CROSSED_SRC)
        else:
            params["items"] = [{"label": "a", "text": CROSSED_SRC}]
        reply = rpc(make_server(), method, params)
        assert reply["error"]["code"] == INVALID_PARAMS, reply
        assert "timeout" in reply["error"]["message"]

    def test_refined_with_generous_timeout_completes(self):
        reply = rpc(
            make_server(),
            "analyze",
            {"uri": "mem:a", "text": CROSSED_SRC, "timeout": 120},
        )
        assert reply["result"]["cache"] == "computed"
        verdict = reply["result"]["report"]["deadlock"]["verdict"]
        assert verdict == "possible-deadlock"


# ---------------------------------------------------------------------------
# HTTP front end: threading, namespaces, graceful SIGTERM


def http_json(port, path="/rpc", body=None, headers=None, timeout=30):
    import urllib.request

    url = f"http://127.0.0.1:{port}{path}"
    data = json.dumps(body).encode("utf-8") if body is not None else None
    req = urllib.request.Request(
        url, data=data, headers=dict(headers or {})
    )
    with urllib.request.urlopen(req, timeout=timeout) as resp:
        return json.loads(resp.read().decode("utf-8"))


class TestHttpConcurrency:
    def _serving(self, server):
        import threading

        from repro.server.httpd import make_http_server

        httpd = make_http_server(server, port=0)
        thread = threading.Thread(
            target=httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            daemon=True,
        )
        thread.start()
        return httpd, thread

    def test_healthz_answers_during_slow_analyze(self):
        import threading

        # Regression: the single-threaded HTTPServer serialized
        # /healthz behind a long /rpc analyze, so any health checker
        # read a busy daemon as a dead one.
        server = AnalysisServer(session=Session(store=None), workers=1)
        entered, release = threading.Event(), threading.Event()

        def slow(params, client):
            entered.set()
            release.wait(timeout=30)
            return {"slow": True}

        server._handlers["analyze"] = slow
        server.start()
        httpd, thread = self._serving(server)
        port = httpd.server_address[1]
        try:
            poster = threading.Thread(
                target=http_json,
                args=(port,),
                kwargs={
                    "body": {"id": 1, "method": "analyze", "params": {}}
                },
                daemon=True,
            )
            poster.start()
            assert entered.wait(timeout=30)
            # The analyze is parked on a worker; liveness and status
            # must still answer from their own connection threads.
            assert http_json(port, "/healthz", timeout=5) == {"ok": True}
            status = http_json(port, "/status", timeout=5)
            assert status["server"]["busy"] == 1
        finally:
            release.set()
            httpd.shutdown()
            server.drain()
            httpd.server_close()

    def test_rpc_through_pool_and_client_header(self):
        server = AnalysisServer(session=Session(store=None), workers=2)
        server.start()
        httpd, thread = self._serving(server)
        port = httpd.server_address[1]
        try:
            opened = http_json(
                port,
                body={
                    "id": 1,
                    "method": "didOpen",
                    "params": {"uri": "mem:x", "text": CROSSED_SRC},
                },
                headers={"X-Repro-Client": "alice"},
            )
            assert opened["result"]["opened"] is True
            # Same URI, different namespace: bob cannot see it.
            bob = http_json(
                port,
                body={
                    "id": 2,
                    "method": "analyze",
                    "params": {"uri": "mem:x"},
                },
                headers={"X-Repro-Client": "bob"},
            )
            assert bob["error"]["code"] == INVALID_PARAMS
            alice = http_json(
                port,
                body={
                    "id": 3,
                    "method": "analyze",
                    "params": {"uri": "mem:x"},
                },
                headers={"X-Repro-Client": "alice"},
            )
            assert alice["result"]["cache"] == "computed"
            # The body-level "client" field outranks the header.
            body_wins = http_json(
                port,
                body={
                    "id": 4,
                    "method": "analyze",
                    "client": "alice",
                    "params": {"uri": "mem:x"},
                },
                headers={"X-Repro-Client": "bob"},
            )
            assert body_wins["result"]["cache"] == "memory"
        finally:
            httpd.shutdown()
            server.drain()
            httpd.server_close()

    def test_sync_fallback_without_pool(self):
        # make_http_server without start(): requests served on the
        # connection thread, same payloads (older embedding pattern).
        server = make_server()
        httpd, thread = self._serving(server)
        port = httpd.server_address[1]
        try:
            reply = http_json(
                port,
                body={
                    "id": 1,
                    "method": "analyze",
                    "params": {"uri": "mem:a", "text": CROSSED_SRC},
                },
            )
            assert reply["result"]["cache"] == "computed"
        finally:
            httpd.shutdown()
            httpd.server_close()


class TestHttpSigterm:
    def test_sigterm_drains_flushes_and_exits_zero(self, tmp_path):
        import signal as signal_mod
        import socket
        import time as time_mod
        import urllib.error

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]

        env = dict(os.environ)
        root = Path(__file__).parent.parent
        env["PYTHONPATH"] = str(root / "src")
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.server",
                "--http",
                f"127.0.0.1:{port}",
                "--workers",
                "2",
                "--cache-dir",
                str(tmp_path),
                "--verbose",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            cwd=root,
        )
        try:
            deadline = time_mod.time() + 60
            up = False
            while time_mod.time() < deadline:
                try:
                    if http_json(port, "/healthz", timeout=2) == {
                        "ok": True
                    }:
                        up = True
                        break
                except (urllib.error.URLError, OSError):
                    time_mod.sleep(0.1)
            assert up, "daemon never came up"
            reply = http_json(
                port,
                body={
                    "id": 1,
                    "method": "analyze",
                    "params": {"uri": "mem:a", "text": CROSSED_SRC},
                },
                timeout=120,
            )
            assert reply["result"]["cache"] == "computed"
            proc.send_signal(signal_mod.SIGTERM)
            out, err = proc.communicate(timeout=60)
        except BaseException:
            proc.kill()
            proc.communicate()
            raise
        # Graceful: exit 0, stdout untouched, verbose shutdown note
        # confirming the drain-and-flush path actually ran.
        assert proc.returncode == 0
        assert out == ""
        assert "stopped" in err
        # Write-through store kept the analysis; a fresh daemon is warm.
        assert list(tmp_path.glob("??/*.json"))
