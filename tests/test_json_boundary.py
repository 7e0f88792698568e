"""The JSON boundary of the CLI: every JSON value that enters it is checked
against its declared type. A mistyped value exits 2 with one JSON log line
that names the file, the line of a JSONL file and the key; and no value put
anywhere into a valid input makes a command end with a traceback."""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artdesc.cli import EXIT_DATA, EXIT_MISSING, EXIT_OK, main
from artdesc.numcore.checkpoint import digest_of, load_container, save_container

RECORD = {
    "id": "p0",
    "sentences": [{"text": "Painted by Vasari in Delft.", "topic": "context",
                   "entities": [{"value": "Vasari", "type": "person"},
                                {"value": "Delft", "type": "location"}]},
                  {"text": "A saint at a window.", "topic": None, "entities": []}],
    "attributes": {"artist": "vasari", "school": None},
    "objects": ["saint", "window"],
    "reference": "Painted by Vasari in Delft.",
}
REPORT = {"painting_id": "p0", "description_tokens": ["painted", "by", "vasari"],
          "slots": [{"chosen": "vasari"}, {"chosen": None}],
          "sentences": {"content": ["painted", "by", "[person]"], "form": []},
          "inputs_digest": "0" * 64}

# file name -> its valid value; a JSONL file's value is its list of lines
VALID = {
    "corpus.jsonl": [RECORD],
    "reports.jsonl": [REPORT],
    "articles.jsonl": [{"id": "a1", "title": "Vasari", "body": "Vasari painted saints in Delft."},
                       {"id": "a2", "text": "Goya worked in Madrid."}],
    "annotations.jsonl": [{"painting_id": "p0", "article_id": "a1", "label": "correct"},
                          {"painting_id": "p0", "article_id": "a2", "label": "incorrect"}],
    "meta.json": {"attributes": {"artist": "vasari"}, "objects": ["saint"]},
    "masked.json": [{"tokens": ["painted", "by", "[person]", "."], "topic": "content"},
                    {"tokens": ["in", "[location]"]}],
    "attrs.json": {"artist": "vasari", "school": "dutch"},
}


def _write(path, value):
    lines = value if path.suffix == ".jsonl" else [value]
    path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")


@pytest.fixture(scope="module")
def inputs(world, tmp_path_factory):
    """(paths, valid values, commands): a valid file of each JSON input, and
    the commands that read it; each of them exits 0 on the valid files."""
    config = world[2]
    tmp = tmp_path_factory.mktemp("json")
    paths = {name: tmp / name for name in VALID}
    valid = {**VALID, "pipeline.json": {
        **{key: config[key] for key in ("features_dir", "gazetteer", "decoder_checkpoint",
                                        "filler_checkpoint", "index")},
        "corpus": str(paths["corpus.jsonl"]), "seed": 7, "retrieval_k": 5,
        "knowledge_mode": "external-corpus", "decode_mode": "beam", "beam_size": 5,
    }}
    paths["pipeline.json"] = tmp / "pipeline.json"
    for name, value in valid.items():
        _write(paths[name], value)
    fill = ["fill", "--ckpt", config["filler_checkpoint"], "--gazetteer", config["gazetteer"],
            "--masked", paths["masked.json"], "--attrs", paths["attrs.json"]]
    evaluate = ["evaluate", "--config", paths["pipeline.json"],
                "--reports", paths["reports.jsonl"]]
    eval_recall = ["eval-recall", "--index", config["index"], "--corpus", paths["corpus.jsonl"],
                   "--annotations", paths["annotations.jsonl"]]
    commands = {
        "corpus.jsonl": eval_recall,
        "annotations.jsonl": eval_recall,
        "reports.jsonl": evaluate,
        "pipeline.json": evaluate,
        "articles.jsonl": ["index", "--knowledge-file", paths["articles.jsonl"],
                           "--out", tmp / "k.idx"],
        "meta.json": ["retrieve", "--index", config["index"], "--meta", paths["meta.json"]],
        "masked.json": fill,
        "attrs.json": fill,
    }
    for argv in commands.values():
        assert _run(argv)[0] == EXIT_OK
    return paths, valid, commands


def _run(argv) -> tuple[int, list[str]]:
    """The exit code of ``main(argv)`` and its stderr lines, split as
    ``str.splitlines`` splits them."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(arg) for arg in argv])
    return code, err.getvalue().splitlines()


def _replaced(value, path, new):
    """A copy of ``value`` with the element at ``path`` (keys and indices)
    replaced by ``new``."""
    if not path:
        return new
    value = copy.deepcopy(value)
    target = value
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = new
    return value


def _run_with(inputs, name, value) -> tuple[int, list[str], object]:
    """Runs the command that reads ``name`` on ``value`` written in its
    place; returns the exit code, the stderr lines and the file read."""
    paths, _, commands = inputs
    bad = paths[name].with_name("bad-" + name)
    _write(bad, value)
    return (*_run([bad if arg == paths[name] else arg for arg in commands[name]]), bad)


# input -> (path into its valid value, the value put there, the expected message)
MISTYPED = {
    "sentence-text": ("corpus.jsonl", (0, "sentences", 0, "text"), 5,
                      ":1: painting 'p0' sentence 0: 'text' must be str, got int"),
    "sentence-topic": ("corpus.jsonl", (0, "sentences", 0, "topic"), 5,
                       ":1: painting 'p0' sentence 0: 'topic' must be str or null, got int"),
    "entity-value": ("corpus.jsonl", (0, "sentences", 0, "entities", 1, "value"), 5,
                     ":1: painting 'p0' sentence 0 entity 1: 'value' must be str, got int"),
    "entity-type": ("corpus.jsonl", (0, "sentences", 0, "entities", 0, "type"), 5,
                    ":1: painting 'p0' sentence 0 entity 0: 'type' must be str, got int"),
    "reference": ("corpus.jsonl", (0, "reference"), 5,
                  ":1: painting 'p0': 'reference' must be str, got int"),
    "sentences-string": ("corpus.jsonl", (0, "sentences"), "abc",
                         ":1: painting 'p0': 'sentences' must be list[dict], got str"),
    "article-id-null": ("articles.jsonl", (1, "id"), None,
                        ":2: 'id' must be str or int, got NoneType"),
    "masked-token": ("masked.json", (0, "tokens", 1), 5,
                     " item 0: 'tokens[1]' must be str, got int"),
    "report-slots": ("reports.jsonl", (0, "slots"), 5, ":1: 'slots' must be list[dict], got int"),
    "report-sentences-list": ("reports.jsonl", (0, "sentences"), [1],
                              ":1: 'sentences' must be dict, got list"),
    "report-slot-not-object": ("reports.jsonl", (0, "slots", 1), 5,
                               ":1: 'slots[1]' must be dict, got int"),
    "report-topic-unknown": ("reports.jsonl", (0, "sentences", "bogus"), [],
                             ":1 sentences: unknown keys ['bogus']"),
    "report-tokens-string": ("reports.jsonl", (0, "description_tokens"), "abc",
                             ":1: 'description_tokens' must be list[str], got str"),
    "pipeline-knowledge-dir": ("pipeline.json", ("knowledge_dir",), "knowledge",
                               ": unknown keys ['knowledge_dir']"),
    "pipeline-max-decode-len": ("pipeline.json", ("max_decode_len",), 8,
                                ": unknown keys ['max_decode_len']"),
}


@pytest.mark.parametrize("case", MISTYPED)
def test_mistyped_value_exit_code(inputs, case):
    name, path, new, message = MISTYPED[case]
    code, lines, bad = _run_with(inputs, name, _replaced(inputs[1][name], path, new))
    assert code == EXIT_DATA
    (line,) = lines
    assert f"{bad}{message}" in json.loads(line)["event"]


@pytest.mark.parametrize("path, new, message", [
    (("config", "hidden_size"), 2.5, "config: 'hidden_size' must be int, got float"),
    (("vocab_tokens", 5), 5, "metadata: 'vocab_tokens[5]' must be str, got int"),
], ids=["config-float", "vocab-token-int"])
def test_mistyped_checkpoint_header_exit_code(world, inputs, tmp_path, path, new, message):
    """A header edited and sealed again, with a config digest that matches
    the edited config, reaches the type checks behind the checksum."""
    config, paths = world[2], inputs[0]
    meta, arrays, _ = load_container(config["filler_checkpoint"], "checkpoint")
    meta = _replaced(meta, path, new)
    bad = tmp_path / "filler.ckpt"
    save_container(bad, {**meta, "config_digest": digest_of(meta["config"])}, arrays)
    code, lines = _run(["fill", "--ckpt", bad, "--gazetteer", config["gazetteer"],
                        "--masked", paths["masked.json"]])
    assert code == EXIT_DATA
    (line,) = lines
    assert f"{bad} {message}" in json.loads(line)["event"]


def _paths(value, prefix=()):
    """The path of ``value`` and of every element in it."""
    yield prefix
    if isinstance(value, (dict, list)):
        for key, item in (value.items() if isinstance(value, dict) else enumerate(value)):
            yield from _paths(item, prefix + (key,))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text()
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(), children, max_size=3),
    max_leaves=6)


@pytest.mark.parametrize("name", ["corpus.jsonl", "reports.jsonl", "pipeline.json",
                                  "articles.jsonl", "annotations.jsonl", "meta.json",
                                  "masked.json", "attrs.json"])
@settings(derandomize=True, deadline=None, max_examples=60)
@given(data=st.data())
def test_any_value_anywhere_exits_cleanly(inputs, name, data):
    """One value of a valid input, chosen by the strategy, replaced by an
    arbitrary JSON value: the command succeeds or exits 2 or 3, and every
    stderr line is a JSON object."""
    valid = inputs[1][name]
    # a JSONL file's lines are separate values: replace a line, not the file
    paths = [path for path in _paths(valid) if path or not name.endswith(".jsonl")]
    value = _replaced(valid, data.draw(st.sampled_from(paths)), data.draw(JSON_VALUES))
    code, lines, _ = _run_with(inputs, name, value)
    assert code in (EXIT_OK, EXIT_DATA, EXIT_MISSING)
    assert all(isinstance(json.loads(line), dict) for line in lines)
