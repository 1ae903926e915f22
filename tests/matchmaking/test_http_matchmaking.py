"""Matchmaking over the wire: routes, envelopes, metrics, CLI exit codes."""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.cli import main
from repro.serve import (
    DuplicateJoin,
    GroupingService,
    HttpClient,
    InProcessClient,
    MatchmakingDisabled,
    ParticipantNotFound,
    ServeConfig,
    start_server,
)

MM_CONFIG = {
    "specs": [{"n": 4, "k": 2, "deadline_seconds": 30.0}],
    "tick_interval": None,
}


@pytest.fixture
def server():
    service = GroupingService(ServeConfig(workers=0, matchmaking=MM_CONFIG))
    http_server = start_server(service, port=0)
    yield http_server
    http_server.close()


@pytest.fixture
def client(server):
    with HttpClient(server.url, timeout=30.0) as http_client:
        yield http_client


@pytest.fixture
def plain_server():
    service = GroupingService(ServeConfig(workers=0))
    http_server = start_server(service, port=0)
    yield http_server
    http_server.close()


def _raw_post(url, payload):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        method="POST",
        headers={"Content-Type": "application/json"},
    )
    return urllib.request.urlopen(request, timeout=10.0)


class TestRoutes:
    def test_join_responds_202_accepted(self, server):
        with _raw_post(server.url + "/v1/join", {"skill": 2.0}) as response:
            assert response.status == 202
            payload = json.loads(response.read())
        assert payload["status"] == "waiting"
        assert payload["participant"] == "p000001"

    def test_join_match_status_leave_round_trip(self, client):
        for skill in (3.0, 1.0, 4.0):
            assert client.join(skill)["status"] == "waiting"
        final = client.join(2.0, participant="last")
        assert final["status"] == "matched"

        status = client.participant_status("last")
        assert status["cohort"] == final["cohort"]
        # The condensed cohort is a real session on the same server.
        assert client.get_cohort(final["cohort"])["k"] == 2

        client.join(5.0, participant="loner")
        assert client.leave_queue("loner")["status"] == "left"
        assert client.participant_status("loner")["status"] == "left"

    def test_matchmaking_snapshot_endpoint(self, client):
        client.join(1.0)
        snapshot = client.matchmaking()
        assert snapshot["enabled"] is True
        assert snapshot["waiting"] == 1
        assert snapshot["specs"]["default"]["pending"] == 1

    def test_healthz_reports_matchmaking_block(self, client):
        client.join(1.0)
        health = client.healthz()
        assert health["matchmaking"] == {"waiting": 1, "specs": ["default"]}

    def test_wrong_method_on_participant_is_405(self, server, client):
        client.join(1.0, participant="alice")
        request = urllib.request.Request(
            server.url + "/v1/participants/alice", data=b"{}", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10.0)
        assert excinfo.value.code == 405
        assert json.loads(excinfo.value.read())["error"]["code"] == "method_not_allowed"


class TestErrorEnvelopes:
    """Typed envelopes for the new participant errors, on both transports."""

    def test_unknown_participant_is_404_envelope(self, server, client):
        with pytest.raises(ParticipantNotFound) as excinfo:
            client.participant_status("ghost")
        assert excinfo.value.status == 404
        assert excinfo.value.code == "participant_not_found"
        with pytest.raises(urllib.error.HTTPError) as raw:
            urllib.request.urlopen(server.url + "/v1/participants/ghost", timeout=10.0)
        assert raw.value.code == 404
        assert json.loads(raw.value.read())["error"]["code"] == "participant_not_found"

    def test_double_join_is_409_envelope(self, server, client):
        client.join(1.0, participant="alice")
        with pytest.raises(DuplicateJoin) as excinfo:
            client.join(2.0, participant="alice")
        assert excinfo.value.status == 409
        assert excinfo.value.code == "duplicate_join"
        with pytest.raises(urllib.error.HTTPError) as raw:
            _raw_post(server.url + "/v1/join", {"skill": 2.0, "participant": "alice"})
        assert raw.value.code == 409
        assert json.loads(raw.value.read())["error"]["code"] == "duplicate_join"

    def test_disabled_server_rejects_matchmaking_routes(self, plain_server):
        with HttpClient(plain_server.url, timeout=30.0) as client:
            with pytest.raises(MatchmakingDisabled) as excinfo:
                client.join(1.0)
            assert excinfo.value.status == 404
            assert excinfo.value.code == "matchmaking_disabled"
            with pytest.raises(MatchmakingDisabled):
                client.participant_status("anyone")
            with pytest.raises(MatchmakingDisabled):
                client.matchmaking()

    def test_in_process_transport_raises_same_types(self):
        service = GroupingService(ServeConfig(workers=0, matchmaking=MM_CONFIG))
        try:
            client = InProcessClient(service)
            client.join(1.0, participant="alice")
            with pytest.raises(DuplicateJoin):
                client.join(2.0, participant="alice")
            with pytest.raises(ParticipantNotFound):
                client.participant_status("ghost")
        finally:
            service.close()

    def test_in_process_disabled_raises_matchmaking_disabled(self):
        service = GroupingService(ServeConfig(workers=0))
        try:
            with pytest.raises(MatchmakingDisabled):
                InProcessClient(service).join(1.0)
        finally:
            service.close()


class TestMetricsExports:
    def test_metrics_json_has_matchmaking_series(self, client):
        for skill in (3.0, 1.0, 4.0, 2.0):
            client.join(skill)
        snapshot = client.metrics()
        assert snapshot["counters"]["matchmaking.joins"]["value"] == 4
        assert snapshot["counters"]["matchmaking.cohorts"]["value"] == 1
        assert snapshot["gauges"]["matchmaking.queue_depth"]["value"] == 0
        assert snapshot["histograms"]["matchmaking.time_to_match_seconds"]["count"] == 4

    def test_prometheus_export_has_repro_matchmaking_lines(self, server, client):
        for skill in (3.0, 1.0, 4.0, 2.0):
            client.join(skill)
        with urllib.request.urlopen(
            server.url + "/metrics?format=prometheus", timeout=10.0
        ) as response:
            text = response.read().decode()
        lines = text.splitlines()
        assert "# TYPE repro_matchmaking_joins counter" in lines
        assert "repro_matchmaking_joins 4.0" in lines
        assert "# TYPE repro_matchmaking_queue_depth gauge" in lines
        assert any(
            line.startswith("repro_matchmaking_time_to_match_seconds")
            for line in lines
        )


class TestCliJoin:
    """Exit-code regressions for ``dygroups join`` against a live server."""

    def test_parser_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["join", "--skill", "2.0"])
        assert args.command == "join"
        assert args.url == "http://127.0.0.1:8750"
        assert args.skill == 2.0
        assert args.no_wait is False

    def test_missing_skill_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["join"])
        assert excinfo.value.code == 2

    def test_no_wait_join_exits_zero(self, server, capsys):
        code = main(["join", "--url", server.url, "--skill", "2.0", "--no-wait"])
        assert code == 0
        assert "waiting" in capsys.readouterr().out

    def test_matched_join_exits_zero(self, server, client, capsys):
        for skill in (3.0, 1.0, 4.0):
            client.join(skill)
        code = main(["join", "--url", server.url, "--skill", "2.0"])
        assert code == 0
        assert "matched" in capsys.readouterr().out

    def test_duplicate_join_exits_one(self, server, client, capsys):
        client.join(1.0, participant="alice")
        code = main(
            ["join", "--url", server.url, "--skill", "2.0",
             "--participant", "alice", "--no-wait"]
        )
        assert code == 1
        assert "duplicate_join" in capsys.readouterr().err

    def test_disabled_server_exits_one(self, plain_server, capsys):
        code = main(
            ["join", "--url", plain_server.url, "--skill", "2.0", "--no-wait"]
        )
        assert code == 1
        assert "matchmaking_disabled" in capsys.readouterr().err

    def test_unreachable_server_exits_one(self):
        code = main(
            ["join", "--url", "http://127.0.0.1:9", "--skill", "2.0", "--no-wait"]
        )
        assert code == 1

    def test_serve_parser_matchmaking_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--matchmaking", "--matchmaking-spec", "n=12,k=4,name=novice"]
        )
        assert args.matchmaking is True
        assert args.matchmaking_spec == ["n=12,k=4,name=novice"]
