"""The CLI serving surface: artifact export, `serve` and `query` commands."""

import json
import os
import select
import signal
import socket
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro
from repro.api import Query, QueryBatch
from repro.cli import main
from repro.models import ModelConfig, make_model
from repro.serve import ModelArtifact, QueryEngine, load_model, serve_forever
from repro.serve.server import query_server


def test_train_exports_a_loadable_artifact(tmp_path, capsys):
    target = tmp_path / "artifact"
    exit_code = main(
        [
            "train",
            "--dataset", "wn18rr",
            "--model", "DistMult",
            "--scale", "tiny",
            "--dim", "8",
            "--epochs", "1",
            "--quiet",
            "--export-artifact", str(target),
        ]
    )
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "model artifact written" in output and "sha256:" in output

    model = load_model(target)                     # verified, mmap'd
    assert model.name == "DistMult"
    artifact = ModelArtifact.load(target)
    assert artifact.model_name == "DistMult"
    assert artifact.num_entities == model.num_entities


def test_serve_rejects_a_missing_artifact(tmp_path):
    with pytest.raises(SystemExit, match="cannot load artifact"):
        main(["serve", "--artifact", str(tmp_path / "ghost")])


def test_query_reports_a_connection_error_cleanly():
    with pytest.raises(SystemExit, match="cannot reach"):
        main(
            [
                "query", "--anchor", "0", "--relation", "0",
                "--host", "127.0.0.1", "--port", "1",   # nothing listens on port 1
            ]
        )


def test_query_command_against_a_live_server(tmp_path, capsys):
    target = tmp_path / "artifact"
    assert main(
        [
            "train", "--dataset", "wn18rr", "--model", "TransE",
            "--scale", "tiny", "--dim", "8", "--epochs", "1", "--quiet",
            "--export-artifact", str(target),
        ]
    ) == 0
    capsys.readouterr()

    model = load_model(target)
    engine = QueryEngine(model, max_delay=0.001)
    address = {}
    ready = threading.Event()

    def capture(bound):
        address["host"], address["port"] = bound
        ready.set()

    thread = threading.Thread(
        target=serve_forever, args=(engine, "127.0.0.1", 0),
        kwargs={"ready": capture}, daemon=True,
    )
    thread.start()
    assert ready.wait(timeout=10)

    # The JSON surface first (machine-readable), then the table rendering.
    exit_code = main(
        [
            "query", "--anchor", "0", "--relation", "0", "--top-k", "3",
            "--host", address["host"], "--port", str(address["port"]), "--json",
        ]
    )
    assert exit_code == 0
    out = capsys.readouterr().out
    assert '"results"' in out

    exit_code = main(
        [
            "query", "--side", "head", "--anchor", "1", "--relation", "0",
            "--top-k", "2",
            "--host", address["host"], "--port", str(address["port"]),
        ]
    )
    assert exit_code == 0
    out = capsys.readouterr().out
    assert "top-2" in out

    # The same socket also answers the library client.
    response = query_server(
        address["host"], address["port"], QueryBatch.of(Query.tail(0, 0, k=3))
    )
    assert len(response.results[0].entities) == 3


@pytest.mark.skipif(sys.platform == "win32", reason="POSIX signal delivery to a child")
def test_serve_shuts_down_quietly_on_sigint_with_a_client_connected(tmp_path):
    target = tmp_path / "artifact"
    ModelArtifact.save(make_model("DistMult", 8, 4, ModelConfig(dim=8, seed=7)), target)
    source_root = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source_root, env.get("PYTHONPATH")]))
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--artifact", str(target), "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )
    try:
        announced, _, _ = select.select([server.stdout], [], [], 60)
        assert announced, "server never announced its address"
        port = int(server.stdout.readline().rsplit(":", 1)[1])
        with socket.create_connection(("127.0.0.1", port), timeout=30) as client:
            client.sendall(b'{"op": "ping"}\n')
            assert json.loads(client.makefile().readline()) == {"ok": True}
            # The connection stays open and idle while the server shuts down.
            server.send_signal(signal.SIGINT)
            _, stderr = server.communicate(timeout=30)
    finally:
        if server.poll() is None:
            server.kill()
            server.communicate()
    assert server.returncode == 0
    assert "Traceback" not in stderr, stderr
