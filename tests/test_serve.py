"""The `repro serve` HTTP API: status codes, ETags, store behaviour."""

import json
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro import StudyConfig, StudyEnergy, generate_study
from repro.cli import main
from repro.core.readout import readout_from_checkpoint
from repro.errors import AnalysisError
from repro.follow import Follower, TailCsvSource, WindowSpec
from repro.shard.worker import make_worker_server
from repro.store import ResultStore, make_server
from repro.store.server import (
    LIVE_MANIFEST_NAME,
    ROUTES,
    SERVABLE_FIGURES,
    etag_matches,
)
from repro.trace.io_text import write_events_csv, write_packets_csv


@pytest.fixture(scope="module")
def dataset():
    return generate_study(StudyConfig(n_users=2, duration_days=4.0, seed=11))


@pytest.fixture(scope="module")
def study(dataset):
    return StudyEnergy(dataset, lazy=True)


@pytest.fixture
def served(study, tmp_path):
    """A live server on an ephemeral port; yields (base_url, server, store)."""
    store = ResultStore(tmp_path / "store")
    server = make_server(study, store, quiet=True)
    host, port = server.server_address
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://{host}:{port}", server, store
    server.shutdown()
    server.server_close()


def fetch(url, headers=None):
    request = urllib.request.Request(url, headers=headers or {})
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read()


def test_routes_tuple_matches_handler():
    assert ROUTES == (
        "/",
        "/figures/{fig}",
        "/tables/table1",
        "/headlines",
        "/readouts/{study}",
        "/live/",
        "/live/{window}/{analysis}",
    )
    assert SERVABLE_FIGURES == ("fig1", "fig2", "fig3")


def test_index_lists_endpoints_and_study(served):
    base, server, _ = served
    status, _, body = fetch(base + "/")
    assert status == 200
    payload = json.loads(body)
    assert payload["study"] == server.study_id
    assert f"/readouts/{server.study_id}" in payload["endpoints"]
    assert payload["users"] == 2


def test_artefacts_serve_with_strong_etags(served):
    base, server, _ = served
    for path in ("/figures/fig1", "/figures/fig2", "/figures/fig3",
                 "/tables/table1", "/headlines"):
        status, headers, body = fetch(base + path)
        assert status == 200, path
        assert body, path
        etag = headers["ETag"]
        assert etag.startswith('"') and etag.endswith('"')
        analysis = path.rsplit("/", 1)[1]
        assert etag == server.key_for(analysis).etag()


def test_conditional_request_returns_304(served):
    base, _, store = served
    status, headers, body = fetch(base + "/headlines")
    assert status == 200
    etag = headers["ETag"]
    status, headers, body = fetch(
        base + "/headlines", {"If-None-Match": etag}
    )
    assert status == 304
    assert body == b""
    assert headers["ETag"] == etag
    # Wildcard revalidation is honoured too.
    status, _, _ = fetch(base + "/headlines", {"If-None-Match": "*"})
    assert status == 304
    assert store.metrics.counter("serve.not_modified") == 2


def test_etag_matches_covers_rfc7232_shapes():
    etag = '"abc123"'
    assert etag_matches(etag, etag)
    assert etag_matches("*", etag)
    assert etag_matches(f'W/{etag}', etag)  # weak comparison
    assert etag_matches(f'"zzz", {etag}', etag)  # comma list
    assert etag_matches(f'W/"zzz", W/{etag}, "yyy"', etag)
    assert not etag_matches(None, etag)
    assert not etag_matches("", etag)
    assert not etag_matches('"zzz"', etag)
    assert not etag_matches('"abc123', etag)  # malformed quoting
    assert not etag_matches('abc123', etag)  # unquoted never matches


def test_if_none_match_comma_lists_and_weak_validators(served):
    """Satellite regression: comma-separated lists and W/ weak
    validators revalidate; a wrong key never 304s."""
    base, _, _ = served
    status, headers, _ = fetch(base + "/headlines")
    assert status == 200
    etag = headers["ETag"]
    for header in (
        etag,
        f'W/{etag}',
        f'"deadbeef", {etag}',
        f'W/"deadbeef", W/{etag}',
        "*",
    ):
        status, _, body = fetch(
            base + "/headlines", {"If-None-Match": header}
        )
        assert status == 304, header
        assert body == b""
    for header in ('"deadbeef"', 'W/"deadbeef"', etag.strip('"')):
        status, _, body = fetch(
            base + "/headlines", {"If-None-Match": header}
        )
        assert status == 200, header
        assert body


def test_wrong_key_never_304s_across_routes(served):
    """An ETag taken from one artefact must not revalidate another."""
    base, _, _ = served
    _, headers, _ = fetch(base + "/figures/fig1")
    fig1_etag = headers["ETag"]
    status, _, body = fetch(
        base + "/headlines", {"If-None-Match": fig1_etag}
    )
    assert status == 200
    assert body


def test_304_answers_without_touching_the_store(served):
    """The ETag is the key digest, so revalidation is pure string
    comparison — no store lookup at all."""
    base, _, store = served
    status, headers, _ = fetch(base + "/figures/fig1")
    assert status == 200
    lookups = store.metrics.counter("store.hits") + store.metrics.counter(
        "store.misses"
    )
    status, _, _ = fetch(
        base + "/figures/fig1", {"If-None-Match": headers["ETag"]}
    )
    assert status == 304
    after = store.metrics.counter("store.hits") + store.metrics.counter(
        "store.misses"
    )
    assert after == lookups


def test_warm_200s_are_pure_reads(served):
    """A warm GET reads the index but never writes it; the hit is
    recorded in ``store.hits`` alone."""
    base, _, store = served
    assert fetch(base + "/figures/fig2")[0] == 200
    index = store.directory / "index.sqlite"
    before = (index.read_bytes(), index.stat().st_mtime_ns)
    hits = store.metrics.counter("store.hits")
    for _ in range(4):
        assert fetch(base + "/figures/fig2")[0] == 200
    assert (index.read_bytes(), index.stat().st_mtime_ns) == before
    assert store.metrics.counter("store.hits") == hits + 4


def test_readout_endpoint_serves_study_json(served):
    base, server, _ = served
    status, headers, body = fetch(base + f"/readouts/{server.study_id}")
    assert status == 200
    assert headers["Content-Type"] == "application/json"
    payload = json.loads(body)
    assert payload["study"] == server.study_id
    assert payload["total_energy_j"] > 0
    assert set(payload["energy_by_state_j"]) <= {
        "foreground",
        "visible",
        "perceptible",
        "service",
        "background",
        "not_running",
    }


def test_unknown_routes_404_with_reasons(served):
    base, server, _ = served
    for path, marker in [
        ("/figures/fig4", "per-packet"),
        ("/figures/fig9", "unknown figure"),
        ("/tables/table2", "only table1"),
        ("/readouts/deadbeef", "unknown study"),
        ("/nonsense", "no route"),
    ]:
        status, _, body = fetch(base + path)
        assert status == 404, path
        assert marker in body.decode(), path
    assert server.metrics.counter("serve.not_found") == 5


def test_render_analysis_errors_answer_404_and_keep_serving(tmp_path):
    """A study whose packets were never state-labelled (state 255, which
    ``Dataset.load`` accepts) has no energy in any process state: Fig 3
    and the headlines cannot be produced and answer 404 with the
    reason, the readout names the state ``unlabelled``, and the
    connection survives to answer the next request."""
    dataset = generate_study(
        StudyConfig(n_users=2, duration_days=1.0, seed=3, label_states=False)
    )
    server = make_server(
        StudyEnergy(dataset, lazy=True),
        ResultStore(tmp_path / "store"),
        quiet=True,
    )
    host, port = server.server_address
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = f"http://{host}:{port}"
    try:
        status, _, body = fetch(base + "/figures/fig3")
        assert status == 404
        assert "has no attributed energy" in body.decode()
        status, _, body = fetch(base + "/headlines")
        assert status == 404
        assert "no attributed energy in selection" in body.decode()
        status, _, body = fetch(base + f"/readouts/{server.study_id}")
        assert status == 200
        payload = json.loads(body)
        assert list(payload["energy_by_state_j"]) == ["unlabelled"]
        assert payload["energy_by_state_j"]["unlabelled"] == pytest.approx(
            payload["attributed_energy_j"]
        )
        status, _, _ = fetch(base + "/figures/fig1")
        assert status == 200
    finally:
        server.shutdown()
        server.server_close()


def test_non_get_methods_are_405(served):
    base, _, _ = served
    request = urllib.request.Request(base + "/headlines", data=b"x")
    with pytest.raises(urllib.error.HTTPError) as caught:
        urllib.request.urlopen(request)
    assert caught.value.code == 405


def keep_alive_request(address, method, path):
    """Send one HTTP/1.1 request that asks to keep the connection open.

    Returns the open socket and everything the server sent before it
    closed its end; a server that keeps the connection fails the read
    with a timeout.
    """
    sock = socket.create_connection(address[:2], timeout=10)
    try:
        sock.sendall(
            f"{method} {path} HTTP/1.1\r\nHost: x\r\n"
            "Connection: keep-alive\r\nContent-Length: 0\r\n\r\n".encode()
        )
        received = b""
        while True:
            piece = sock.recv(65536)
            if not piece:
                return sock, received.decode("latin-1")
            received += piece
    except BaseException:
        sock.close()  # lets a server that kept the connection shut down
        raise


def assert_closing_405(address, method, allow):
    sock, response = keep_alive_request(address, method, "/")
    sock.close()
    head = response.split("\r\n")
    assert head[0].startswith("HTTP/1.1 405"), response
    assert "Connection: close" in head
    assert f"Allow: {allow}" in head
    assert "Content-Length: 0" in head


def test_a_405_closes_its_connection(served):
    _, server, _ = served
    for method in ("HEAD", "POST", "PUT", "DELETE"):
        assert_closing_405(server.server_address, method, "GET")


def test_a_shard_workers_405_closes_its_connection(tmp_path):
    server = make_worker_server(tmp_path / "worker", quiet=True)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        for method in ("HEAD", "PUT", "DELETE"):
            assert_closing_405(server.server_address, method, "GET, POST")
    finally:
        server.shutdown()
        server.server_close()


def test_second_request_is_a_store_hit(served):
    base, _, store = served
    fetch(base + "/tables/table1")
    misses = store.metrics.counter("store.misses")
    status, _, first = fetch(base + "/tables/table1")
    assert status == 200
    assert store.metrics.counter("store.misses") == misses
    assert store.metrics.counter("store.hits") >= 1


def test_parallel_cold_requests_render_once(served):
    base, _, store = served
    barrier = threading.Barrier(4)
    bodies = []

    def client():
        barrier.wait()
        status, _, body = fetch(base + "/figures/fig2")
        assert status == 200
        bodies.append(body)

    threads = [threading.Thread(target=client) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len({bytes(b) for b in bodies}) == 1
    # Single-flight: exactly one render/publish despite the race.
    assert store.metrics.counter("store.puts") == 1


# ----------------------------------------------------------------------
# Live windows (/live/...)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def live_store(dataset, tmp_path_factory):
    """A store a follower has published live windows into."""
    root = tmp_path_factory.mktemp("live")
    pairs = []
    for user in dataset.users:
        packets = root / f"u{user.user_id}.csv"
        events = root / f"u{user.user_id}_events.csv"
        write_packets_csv(packets, user.packets, dataset.registry)
        write_events_csv(events, user.events, dataset.registry)
        pairs.append((packets, events))
    store = ResultStore(root / "store")
    follower = Follower(
        TailCsvSource(pairs, chunk_size=2048),
        checkpoint_path=root / "follow.npz",
        windows=(WindowSpec("short", 43200, 7200),),
        store=store,
        poll_interval=0.0,
        emit=lambda line: None,
    )
    assert follower.run(idle_exit=2) == "idle"
    return store


@pytest.fixture
def live_served(live_store):
    """A live-only server (no study loaded) over the published store."""
    server = make_server(None, live_store, quiet=True)
    host, port = server.server_address
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://{host}:{port}", server, live_store
    server.shutdown()
    server.server_close()


def test_live_only_index_and_manifest(live_served):
    base, _, store = live_served
    status, _, body = fetch(base + "/")
    assert status == 200
    payload = json.loads(body)
    assert payload["study"] is None
    assert payload["live"] == ["short"]
    assert "/live/" in payload["endpoints"]

    status, headers, body = fetch(base + "/live/")
    assert status == 200
    assert headers["Content-Type"] == "application/json"
    manifest = json.loads(body)
    assert manifest == json.loads(
        (store.directory / LIVE_MANIFEST_NAME).read_text()
    )
    assert "short" in manifest["windows"]


def test_live_window_serves_with_stable_etag(live_served):
    base, _, _ = live_served
    status, headers, body = fetch(base + "/live/short/fig2")
    assert status == 200
    assert body
    etag = headers["ETag"]
    # The ETag is stable while the fold is: refetch matches.
    again_status, again_headers, again_body = fetch(base + "/live/short/fig2")
    assert again_status == 200
    assert again_headers["ETag"] == etag
    assert again_body == body
    for header in (etag, f'W/{etag}', f'"nope", {etag}', "*"):
        status, _, _ = fetch(
            base + "/live/short/fig2", {"If-None-Match": header}
        )
        assert status == 304, header
    status, _, _ = fetch(
        base + "/live/short/fig2", {"If-None-Match": '"nope"'}
    )
    assert status == 200


def test_live_404s_name_the_problem(live_served):
    base, _, _ = live_served
    for path, marker in [
        ("/live/month/fig1", "short"),  # unknown window lists published
        ("/live/short/table1", "not published live"),
        ("/headlines", "no study loaded"),  # live-only server
        ("/figures/fig1", "no study loaded"),
    ]:
        status, _, body = fetch(base + path)
        assert status == 404, path
        assert marker in body.decode(), path


def test_live_routes_coexist_with_a_study(study, live_store):
    """A study server over a store with live publishes serves both."""
    server = make_server(study, live_store, quiet=True)
    host, port = server.server_address
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = f"http://{host}:{port}"
    try:
        status, _, body = fetch(base + "/")
        payload = json.loads(body)
        assert status == 200
        assert payload["study"] == server.study_id
        assert payload["live"] == ["short"]
        status, _, _ = fetch(base + "/live/short/headlines")
        assert status == 200
        status, _, _ = fetch(base + "/headlines")
        assert status == 200
    finally:
        server.shutdown()
        server.server_close()


def test_live_404_when_store_has_no_manifest(served):
    base, _, _ = served
    status, _, body = fetch(base + "/live/")
    assert status == 404
    assert "no live windows" in body.decode()


def test_server_requires_provenance(tmp_path):
    class Bare:
        provenance = None

    with pytest.raises(AnalysisError):
        make_server(Bare(), ResultStore(tmp_path / "store"))


def test_http_body_matches_cli_checkpoint_output(tmp_path, capsys):
    """The serving contract's byte-identity: HTTP body == CLI output."""
    study_file = str(tmp_path / "study.npz")
    ck = str(tmp_path / "ck.npz")
    argv = ["--users", "2", "--days", "4", "--seed", "11"]
    assert main(["generate", *argv, "--out", study_file]) == 0
    assert main(["ingest", "--dataset", study_file, "--checkpoint", ck]) == 0
    capsys.readouterr()
    assert main(["figure", "fig3", "--from-checkpoint", ck]) == 0
    cli_out = capsys.readouterr().out

    readout = readout_from_checkpoint(ck)
    store = ResultStore(tmp_path / "store")
    server = make_server(readout, store, quiet=True)
    host, port = server.server_address
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        status, _, body = fetch(f"http://{host}:{port}/figures/fig3")
    finally:
        server.shutdown()
        server.server_close()
    assert status == 200
    # The CLI prints the artefact plus a trailing newline.
    assert body.decode("utf-8") + "\n" == cli_out


def test_serve_cli_bounded_run(tmp_path, capsys):
    """`repro serve --max-requests N` serves N requests then exits 0."""
    study_file = str(tmp_path / "study.npz")
    argv = ["--users", "2", "--days", "4", "--seed", "11"]
    assert main(["generate", *argv, "--out", study_file]) == 0
    capsys.readouterr()

    codes = []
    banner = {}
    ready = threading.Event()

    class Capture:
        def __init__(self, stream):
            self.stream = stream

        def write(self, text):
            if text.startswith("serving study"):
                banner["line"] = text
                ready.set()
            return self.stream.write(text)

        def flush(self):
            self.stream.flush()

    def serve():
        import sys

        original = sys.stdout
        sys.stdout = Capture(original)
        try:
            codes.append(
                main(
                    [
                        "serve",
                        "--dataset",
                        study_file,
                        "--store",
                        str(tmp_path / "store"),
                        "--quiet",
                        "--max-requests",
                        "2",
                    ]
                )
            )
        finally:
            sys.stdout = original

    thread = threading.Thread(target=serve)
    thread.start()
    assert ready.wait(timeout=30), "serve never printed its banner"
    url = banner["line"].split(" on ")[1].split(" ")[0]
    status, headers, _ = fetch(url + "/headlines")
    assert status == 200
    status, _, _ = fetch(url + "/headlines", {"If-None-Match": headers["ETag"]})
    assert status == 304
    thread.join(timeout=30)
    assert not thread.is_alive()
    assert codes == [0]


def test_serve_cli_bounded_run_exits_after_a_keep_alive_405(dataset, tmp_path):
    """`repro serve --max-requests 1` exits once it has answered a 405,
    though the client still holds its end of the connection open."""
    study_file = tmp_path / "study.npz"
    dataset.save(study_file)
    banner = {}
    ready = threading.Event()
    codes = []

    class Capture:
        def write(self, text):
            if text.startswith("serving study"):
                banner["line"] = text
                ready.set()
            return len(text)

        def flush(self):
            pass

    def serve():
        import contextlib

        with contextlib.redirect_stdout(Capture()):
            codes.append(
                main(
                    [
                        "serve",
                        "--dataset",
                        str(study_file),
                        "--store",
                        str(tmp_path / "store"),
                        "--quiet",
                        "--max-requests",
                        "1",
                    ]
                )
            )

    thread = threading.Thread(target=serve)
    thread.start()
    assert ready.wait(timeout=30), "serve never printed its banner"
    host, port = banner["line"].split(" on http://")[1].split(" ")[0].split(":")
    sock, response = keep_alive_request((host, int(port)), "HEAD", "/")
    try:
        assert response.startswith("HTTP/1.1 405")
        thread.join(timeout=10)
        assert not thread.is_alive(), "serve waited for the client to close"
    finally:
        sock.close()
        thread.join(timeout=30)
    assert codes == [0]
