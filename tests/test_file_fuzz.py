"""The binary and line-list inputs of the CLI under mutation: bytes of a
valid decoder checkpoint, index and feature grid, and of a gazetteer and a
word list, are overwritten, cut out or inserted. A container is sealed again
after the mutation, so that the checks behind its checksum are reached. The
command that reads the file succeeds or exits 2 or 3, and every stderr line
is one JSON object."""

import hashlib
import json
import shutil
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_json_boundary import _run

from artdesc.cli import EXIT_DATA, EXIT_MISSING, EXIT_OK

# bytes put into a file: any bytes, any text, or what its parsers split on
PATCHES = (st.binary(max_size=8) | st.text(max_size=8).map(str.encode)
           | st.sampled_from([b"\t", b"\n", b"#", b"\xff", b"\0\0\0\0", b"\xff\xff\xff\xff"]))
HEADER = 512  # mutations land in the first bytes as often as anywhere else


@pytest.fixture(scope="module")
def targets(world, tmp_path_factory):
    """File name -> (its valid bytes, whether it is a container, the path a
    mutated copy goes to, the command that reads that path); each command
    exits 0 on the valid bytes."""
    _, records, config, _ = world
    tmp = tmp_path_factory.mktemp("fuzz")
    grid = f"{records[0].id}.fgrd"
    shutil.copytree(config["features_dir"], tmp / "features")
    (tmp / "blocklist.txt").write_text("# objects never queried\nsaint\n\nwindow\n",
                                       encoding="utf-8")
    meta = tmp / "meta.json"
    meta.write_text(json.dumps({"attributes": {"artist": "vasari"},
                                "objects": ["saint", "window", "river"]}), encoding="utf-8")
    raw = tmp / "raw.jsonl"
    raw.write_text(json.dumps({"id": "p0", "comment": "Vasari painted it in Delft in 1502."})
                   + "\n", encoding="utf-8")

    def describe(key, value):
        path = tmp / f"pipeline-{key}.json"
        path.write_text(json.dumps({**config, key: str(value), "decode_mode": "greedy"}),
                        encoding="utf-8")
        return ["describe", "--config", path, "--painting-id", records[0].id,
                "--topic", "content"]

    files = {
        "decoder.ckpt": (config["decoder_checkpoint"], True, tmp / "decoder.ckpt",
                         describe("decoder_checkpoint", tmp / "decoder.ckpt")),
        "knowledge.idx": (config["index"], True, tmp / "knowledge.idx",
                          ["retrieve", "--index", tmp / "knowledge.idx", "--meta", meta]),
        "grid.fgrd": (tmp / "features" / grid, True, tmp / "features" / grid,
                      describe("features_dir", tmp / "features")),
        "gazetteer.tsv": (config["gazetteer"], False, tmp / "gazetteer.tsv",
                          ["preprocess", "--input", raw, "--gazetteer", tmp / "gazetteer.tsv",
                           "--out", tmp / "out.jsonl"]),
        "blocklist.txt": (tmp / "blocklist.txt", False, tmp / "bad-blocklist.txt",
                          ["retrieve", "--index", config["index"], "--meta", meta,
                           "--blocklist", tmp / "bad-blocklist.txt"]),
    }
    targets = {}
    for name, (source, sealed, path, argv) in files.items():
        valid = Path(source).read_bytes()
        path.write_bytes(valid)
        assert _run(argv)[0] == EXIT_OK, name
        targets[name] = (valid, sealed, path, argv)
    return targets


def _mutated(data, valid: bytes, sealed: bool) -> bytes:
    """``valid`` with one to three spans of up to 8 bytes replaced by drawn
    bytes; a container's body is mutated and sealed with a new trailer."""
    body = valid[:-32] if sealed else valid
    for _ in range(data.draw(st.integers(1, 3))):
        start = data.draw(st.integers(0, min(len(body), HEADER)) | st.integers(0, len(body)))
        end = data.draw(st.integers(start, min(len(body), start + 8)))
        body = body[:start] + data.draw(PATCHES) + body[end:]
    return body + hashlib.sha256(body).digest() if sealed else body


@pytest.mark.parametrize("name", ["decoder.ckpt", "knowledge.idx", "grid.fgrd", "gazetteer.tsv",
                                  "blocklist.txt"])
@settings(derandomize=True, deadline=None, max_examples=60)
@given(data=st.data())
def test_mutated_file_exits_cleanly(targets, name, data):
    valid, sealed, path, argv = targets[name]
    path.write_bytes(_mutated(data, valid, sealed))
    code, lines = _run(argv)
    assert code in (EXIT_OK, EXIT_DATA, EXIT_MISSING)
    assert all(isinstance(json.loads(line), dict) for line in lines)
