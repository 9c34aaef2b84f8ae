"""HTTP service: endpoints, bit-identity, throttling, metrics."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.campaign import ScreeningRequest, montecarlo_dies
from repro.service import (
    MetricsRegistry,
    ScreeningSession,
    ServiceClient,
    ServiceError,
    build_server,
)
from repro.service.server import (
    BadRequest,
    campaign_payload,
    population_from_payload,
    request_from_payload,
)

pytestmark = pytest.mark.campaign

SAMPLES = 512


@pytest.fixture(scope="module")
def session():
    session = ScreeningSession.from_paper(samples_per_period=SAMPLES)
    session.warm(dictionary=False)
    return session


@pytest.fixture(scope="module")
def server(session):
    server = build_server(port=0, window=0.002, session=session)
    server.start()
    yield server
    server.close()


@pytest.fixture(scope="module")
def client(server):
    return ServiceClient(server.url, client_id="pytest")


# ----------------------------------------------------------------------
# Payload parsing (no server needed)
# ----------------------------------------------------------------------
def test_population_from_payload_kinds(golden_spec):
    mc = population_from_payload({"kind": "mc", "dies": 3, "seed": 1},
                                 golden_spec)
    assert len(mc) == 3
    sweep = population_from_payload(
        {"kind": "sweep", "deviations": [-0.1, 0.1]}, golden_spec)
    assert len(sweep) == 2
    traces = population_from_payload(
        {"kind": "traces", "y": [[0.0] * 8]}, golden_spec)
    assert len(traces) == 1


@pytest.mark.parametrize("payload", [
    {"kind": "nope"},
    {"kind": "mc", "dies": -1},
    {"kind": "sweep"},
    {"kind": "sweep", "deviations": []},
    {"kind": "traces"},
    {"kind": "traces", "y": [[[1.0]]]},
])
def test_population_from_payload_rejects(golden_spec, payload):
    with pytest.raises(BadRequest):
        population_from_payload(payload, golden_spec)


def test_request_from_payload_band_parsing(golden_spec):
    request = request_from_payload({"kind": "mc", "dies": 1,
                                    "band": "0.25"}, golden_spec)
    assert request.band == 0.25
    with pytest.raises(BadRequest):
        request_from_payload({"kind": "mc", "band": "wide"},
                             golden_spec)


def test_campaign_payload_shape(session, golden_spec):
    lot = montecarlo_dies(golden_spec, 2, sigma_f0=0.05, seed=4)
    result = session.submit(ScreeningRequest(population=lot))
    payload = campaign_payload(result)
    assert payload["dies"] == 2
    assert len(payload["ndfs"]) == 2
    assert len(payload["verdicts"]) == 2
    assert payload["pass"] + payload["fail"] == 2
    json.dumps(payload)  # JSON-clean end to end
    assert "ndfs" not in campaign_payload(result, include_ndfs=False)


# ----------------------------------------------------------------------
# Live server
# ----------------------------------------------------------------------
def test_healthz_reports_warm_state(client):
    health = client.healthz()
    assert health["status"] == "ok"
    assert health["cache"]["size"] >= 2


def test_campaign_is_bit_identical_to_library_run(server, client,
                                                  session):
    response = client.campaign(kind="mc", dies=6, sigma=0.05, seed=11)
    lot = montecarlo_dies(session.engine.config.golden_spec, 6,
                          sigma_f0=0.05, seed=11)
    direct = session.engine.run(lot)
    assert response["ndfs"] == [float(v) for v in direct.ndfs]
    assert response["verdicts"] == [bool(v) for v in direct.verdicts]
    assert response["threshold"] == direct.threshold
    assert response["labels"] == direct.labels
    assert response["client"] == "pytest"


def test_concurrent_clients_each_get_their_own_slice(server, session):
    seeds = [20, 21, 22, 23]
    responses = [None] * len(seeds)
    barrier = threading.Barrier(len(seeds))

    def work(i, seed):
        barrier.wait()
        responses[i] = ServiceClient(
            server.url, client_id=f"lot{seed}").campaign(
                kind="mc", dies=4, sigma=0.05, seed=seed)

    threads = [threading.Thread(target=work, args=(i, seed))
               for i, seed in enumerate(seeds)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for seed, response in zip(seeds, responses):
        lot = montecarlo_dies(session.engine.config.golden_spec, 4,
                              sigma_f0=0.05, seed=seed)
        direct = session.engine.run(lot)
        assert response["ndfs"] == [float(v) for v in direct.ndfs]
        assert response["verdicts"] == [bool(v)
                                        for v in direct.verdicts]


def test_diagnose_returns_dictionary_matches(client):
    response = client.diagnose(kind="sweep",
                               deviations=[-0.15, 0.0, 0.15],
                               top_k=2)
    diagnosis = response["diagnosis"]
    # Only the two failing dies reach the matcher.
    assert diagnosis["dies"] == 2
    for match in diagnosis["matches"]:
        assert len(match["candidates"]) == 2


def test_bad_payload_is_400(client):
    with pytest.raises(ServiceError) as excinfo:
        client.campaign(kind="nope")
    assert excinfo.value.status == 400


def _error_count(client, kind):
    """``errors_total{endpoint="campaign",kind=...}`` from /metrics."""
    series = f'repro_errors_total{{endpoint="campaign",kind="{kind}"}} '
    for line in client.metrics_text().splitlines():
        if line.startswith(series):
            return float(line[len(series):])
    return 0.0


def test_non_finite_trace_row_is_400(session, client):
    samples = session.engine.config.samples_per_period
    rows = [[0.0] * samples, [0.0] * (samples - 1) + [float("nan")]]
    before = _error_count(client, "bad_request")
    with pytest.raises(ServiceError) as excinfo:
        client.campaign(kind="traces", y=rows)
    assert excinfo.value.status == 400
    assert "NaN or infinite" in str(excinfo.value)
    assert "rows [1]" in str(excinfo.value)
    assert _error_count(client, "bad_request") == before + 1


def test_wrong_length_trace_stack_is_400(session, client):
    samples = session.engine.config.samples_per_period
    internal = _error_count(client, "internal")
    with pytest.raises(ServiceError) as excinfo:
        client.campaign(kind="traces", y=[[0.0] * (samples + 3)] * 2)
    assert excinfo.value.status == 400
    assert f"captures {samples} per period" in str(excinfo.value)
    assert _error_count(client, "internal") == internal


def test_unknown_endpoint_is_404(server):
    request = urllib.request.Request(server.url + "/nope",
                                     data=b"{}")
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=10)
    assert excinfo.value.code == 404


def test_metrics_scrape_has_request_series(client):
    client.campaign(kind="mc", dies=1, seed=0)
    text = client.metrics_text()
    assert 'repro_requests_total{endpoint="campaign"}' in text
    assert "repro_coalesced_requests_count" in text
    assert "repro_stage_seconds_sum" in text
    assert "repro_uptime_seconds" in text


def test_rate_limited_client_gets_429():
    session = ScreeningSession.from_paper(samples_per_period=SAMPLES)
    session.warm(dictionary=False)
    metrics = MetricsRegistry()
    server = build_server(port=0, window=0.0, rate=0.001, burst=2,
                          session=session, metrics=metrics)
    server.start()
    try:
        client = ServiceClient(server.url, client_id="greedy")
        client.campaign(kind="mc", dies=1, seed=0)
        client.campaign(kind="mc", dies=1, seed=0)
        with pytest.raises(ServiceError) as excinfo:
            client.campaign(kind="mc", dies=1, seed=0)
        assert excinfo.value.status == 429
        assert excinfo.value.retry_after > 0
        # A different client identity is not throttled.
        other = ServiceClient(server.url, client_id="patient")
        assert other.campaign(kind="mc", dies=1, seed=0)["dies"] == 1
        text = client.metrics_text()
        assert 'repro_throttled_total{endpoint="campaign"} 1' in text
    finally:
        server.close()


def test_internal_error_is_500(server, monkeypatch):
    def boom(request, timeout=None):
        raise RuntimeError("engine exploded")

    monkeypatch.setattr(server.batcher, "submit", boom)
    client = ServiceClient(server.url, client_id="unlucky")
    with pytest.raises(ServiceError) as excinfo:
        client.campaign(kind="mc", dies=1, seed=0)
    assert excinfo.value.status == 500
    assert "engine exploded" in str(excinfo.value)


def test_wait_ready_times_out_fast_on_dead_port():
    client = ServiceClient("http://127.0.0.1:9", timeout=0.2)
    with pytest.raises(TimeoutError):
        client.wait_ready(timeout=0.5, interval=0.1)
