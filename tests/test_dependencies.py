"""Source-level guards: runtime dependencies stay numpy-only (scipy is
installed alongside but is not a declared dependency of the package), every
file the package writes goes through ``atomic_write`` and every file it
reads through ``read_text`` or ``load_container``, the models train on
whole-minibatch nodes, not on the per-step or per-item tape path, the
pipeline reads articles and stop words only through the index, JSON values
are type-checked only by ``check_object``, the losses and sequence kernels
take only minibatches with their lengths, every top-level function and
class of the package is named somewhere, every name a subpackage re-exports
is used outside it, every name numcore exports is run by the package or
patched by the benchmark's probes, every training setting has a
command-line flag whose default the CLI does not restate, every describe
setting is set in ``pipeline.json`` or the decoder checkpoint alone, log
events carry their values as fields, only the parameter block binds a
parameter's gradient, only numcore's softmax recipes call ``np.exp``, only
the pipeline knows the decode mode, and one table declares the painting
attributes."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "artdesc"


def _imported_modules(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_src_does_not_import_scipy():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders += [f"{path.relative_to(SRC)}: {name}" for name in _imported_modules(tree)
                      if name == "scipy" or name.startswith("scipy.")]
    assert list(SRC.rglob("*.py")), "no sources found"
    assert offenders == []


# the one function under src/artdesc that may open a file for writing
ATOMIC_WRITER = ("numcore/checkpoint.py", "atomic_write")


def _mode(call: ast.Call) -> ast.expr | None:
    """The mode argument of ``open(file, mode)`` or ``path.open(mode)``."""
    position = 1 if isinstance(call.func, ast.Name) else 0
    for keyword in call.keywords:
        if keyword.arg == "mode":
            return keyword.value
    return call.args[position] if len(call.args) > position else None


def _file_writes(tree: ast.AST):
    """Calls that open a file for writing or write one directly."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in ("write_text", "write_bytes", "fdopen"):
            yield node
        elif name == "open" and isinstance(func, ast.Attribute) and \
                isinstance(func.value, ast.Name) and func.value.id == "os":
            yield node
        elif name == "open":
            mode = _mode(node)
            if mode is not None and not (isinstance(mode, ast.Constant)
                                         and isinstance(mode.value, str)
                                         and not set(mode.value) & set("wax+")):
                yield node


def _inside(tree: ast.AST, rel: str, functions) -> set[int]:
    """The ids of every node inside the named (module, function) pairs."""
    return {id(inner) for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and (rel, node.name) in functions
            for inner in ast.walk(node)}


def test_src_writes_files_only_through_atomic_write():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        exempt = _inside(tree, rel, {ATOMIC_WRITER})
        offenders += [f"{rel}:{call.lineno}" for call in _file_writes(tree)
                      if id(call) not in exempt]
    assert offenders == []


# the two functions under src/artdesc that open a file to read it: every text
# file goes through read_text, every binary file through load_container
FILE_READERS = {("corpus/corpusio.py", "read_text"), ("numcore/checkpoint.py", "load_container")}


def test_src_reads_files_only_through_two_readers():
    """No function but the two readers (and ``atomic_write``, whose one
    ``open`` writes, as the test above checks) calls ``open``,
    ``.read_text`` or ``.read_bytes``, and no module but the container's
    packs bytes with ``struct``."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        exempt = _inside(tree, rel, FILE_READERS | {ATOMIC_WRITER})
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or id(node) in exempt:
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id == "open" or isinstance(
                    func, ast.Attribute) and func.attr in ("open", "read_text", "read_bytes"):
                offenders.append(f"{rel}:{node.lineno}: {ast.unparse(func)}")
        if rel != "numcore/checkpoint.py":
            offenders += [f"{rel}: import {name}" for name in _imported_modules(tree)
                          if name == "struct"]
    assert offenders == []


# the per-step tape ops; their only callers are numcore itself and tests/tape_oracle.py
PER_STEP_OPS = frozenset({"lstm_step", "mlp_attention", "narrow", "neg_log_pick"})


def _referenced_names(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr
        elif isinstance(node, ast.alias):
            yield node.lineno, node.asname or node.name.rsplit(".", 1)[-1]
            yield node.lineno, node.name.rsplit(".", 1)[-1]


def test_models_do_not_reference_per_step_ops():
    offenders = []
    for package in ("decoder", "filler"):
        paths = sorted((SRC / package).rglob("*.py"))
        assert paths, f"no sources under {package}"
        for path in paths:
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            offenders += [f"{path.relative_to(SRC)}:{lineno}: {name}"
                          for lineno, name in _referenced_names(tree) if name in PER_STEP_OPS]
    assert offenders == []


# what only ``artdesc index`` reads: the article corpus and a stop word list
# (the pipeline's one word list, the blocklist, loads through load_blocklist);
# describe reads both out of the index
INDEX_INPUTS = frozenset({"read_articles_dir", "read_articles_jsonl", "read_word_list",
                          "default_stopwords"})


def test_pipeline_reads_knowledge_only_through_the_index():
    path = SRC / "pipeline.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    offenders = [f"pipeline.py:{lineno}: {name}" for lineno, name in _referenced_names(tree)
                 if name in INDEX_INPUTS]
    assert offenders == []


def _called_names(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            yield node.lineno, name


def test_training_hands_whole_minibatches_to_one_loss():
    """``fit`` takes one batch loss: no module under src/ defines or passes
    a per-item ``item_loss``, and neither the decoders nor the filler score
    one candidate or one slot at a time (the per-item path lives on in
    tests/tape_oracle.py)."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        rel = path.relative_to(SRC)
        offenders += [f"{rel}:{lineno}: item_loss" for lineno, name in _referenced_names(tree)
                      if name == "item_loss"]
        offenders += [f"{rel}:{node.lineno}: item_loss" for node in ast.walk(tree)
                      if isinstance(node, (ast.FunctionDef, ast.arg, ast.keyword))
                      and getattr(node, "name", getattr(node, "arg", None)) == "item_loss"]
        if rel.parts[0] in ("decoder", "filler"):
            offenders += [f"{rel}:{lineno}: {name}" for lineno, name in _called_names(tree)
                          if name in ("stack_scalars", "dot", "candidate_vector")]
            offenders += [f"{rel}:{node.lineno}: candidate_vector" for node in ast.walk(tree)
                          if isinstance(node, ast.FunctionDef)
                          and node.name == "candidate_vector"]
    assert offenders == []


# the single items the losses and scorers once also took in place of a minibatch
SINGLE_ITEM_TYPES = frozenset({"FeatureGrid", "FillInput", "FillPair"})


def test_sequence_code_takes_only_minibatches():
    """The decoder and filler losses take a minibatch and nothing else: no
    module under decoder/ or filler/ dispatches on ``isinstance`` against a
    single item's type. And no function under src/ defaults its
    ``lengths``: a sequence kernel is always told each sequence's length."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC)
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if rel.parts[0] in ("decoder", "filler") and isinstance(node, ast.Call) \
                    and getattr(node.func, "id", None) == "isinstance" and len(node.args) == 2:
                offenders += [f"{rel}:{node.lineno}: isinstance {name.id}"
                              for name in ast.walk(node.args[1])
                              if isinstance(name, ast.Name) and name.id in SINGLE_ITEM_TYPES]
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                args = node.args.posonlyargs + node.args.args
                defaulted = args[len(args) - len(node.args.defaults):] + [
                    arg for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults)
                    if default is not None]
                offenders += [f"{rel}:{node.lineno}: {getattr(node, 'name', 'lambda')} "
                              f"defaults lengths" for arg in defaulted if arg.arg == "lengths"]
    assert offenders == []


# modules that read JSON values and leave every type check to check_object
JSON_READERS = ("cli.py", "pipeline.py", "training.py", "retriever/index.py",
                "retriever/recall.py")


def test_json_values_are_checked_only_by_check_object():
    """No reader of JSON values checks a type by hand, and only
    corpus/corpusio.py turns a dataclass's annotations into a check."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        if rel in JSON_READERS:
            offenders += [f"{rel}:{lineno}: isinstance" for lineno, name in _called_names(tree)
                          if name == "isinstance"]
        if rel != "corpus/corpusio.py":
            offenders += [f"{rel}:{lineno}: get_type_hints"
                          for lineno, name in _referenced_names(tree) if name == "get_type_hints"]
    assert all((SRC / rel).is_file() for rel in JSON_READERS)
    assert offenders == []


def _literal(path: Path, name: str):
    """The value of a module's one top-level ``name = <literal>``, read
    without importing the module."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    (value,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                and any(getattr(target, "id", None) == name for target in node.targets)]
    return ast.literal_eval(value)


def test_every_re_export_is_used_outside_its_package():
    """A name in a subpackage's ``__all__`` that no module outside that
    package, in src/, tests/ or perfbench/, imports or reads as an attribute
    is re-exported for nothing."""
    users: dict[str, set[Path]] = {}
    for top in ("src", "tests", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.alias):
                    users.setdefault(node.name.rsplit(".", 1)[-1], set()).add(path)
                elif isinstance(node, ast.Attribute):
                    users.setdefault(node.attr, set()).add(path)
    inits = sorted(SRC.glob("*/__init__.py"))
    assert inits, "no subpackages found"
    offenders = [f"{init.parent.name}: {name}" for init in inits
                 for name in _literal(init, "__all__")
                 if all(init.parent in path.parents for path in users.get(name, ()))]
    assert offenders == []


def test_numcore_exports_only_what_the_package_runs():
    """Every name in numcore's ``__all__`` is referenced by a module under
    src/ outside numcore, or patched by perfbench's probes (their
    ``NUMCORE_OPS``): an op or oracle that only tests call lives in tests/,
    as ``dot``, ``stack_scalars`` (tests/tape_oracle.py) and ``grad_check``
    (tests/gradcheck.py) do."""
    used = set()
    for path in sorted(SRC.rglob("*.py")):
        if path.relative_to(SRC).parts[0] != "numcore":
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            used.update(name for _, name in _referenced_names(tree))
    probed = set(_literal(ROOT / "perfbench" / "probes.py", "NUMCORE_OPS"))
    offenders = [name for name in _literal(SRC / "numcore" / "__init__.py", "__all__")
                 if name not in used | probed]
    assert offenders == []


def test_every_top_level_definition_is_named_somewhere():
    """A top-level function or class under src/artdesc that no code in
    src/, tests/ or perfbench/ names, outside its own definition and the
    package's ``__init__.py`` re-exports, is dead."""
    paths = [path for top in ("src", "tests", "perfbench")
             for path in sorted((ROOT / top).rglob("*.py")) if path.name != "__init__.py"]
    named: dict[str, list[tuple[Path, int]]] = {}
    definitions = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for lineno, name in _referenced_names(tree):
            named.setdefault(name, []).append((path, lineno))
        if SRC in path.parents:
            definitions += [(path, node) for node in tree.body if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    assert definitions, "no sources found"
    offenders = [f"{path.relative_to(SRC)}:{node.lineno}: {node.name}"
                 for path, node in definitions
                 if all(where == path and node.lineno <= lineno <= node.end_lineno
                        for where, lineno in named.get(node.name, []))]
    assert offenders == []


def _subparser(command: str):
    """The parser of one ``artdesc`` subcommand."""
    from artdesc.cli import build_parser

    (subparsers,) = [action for action in build_parser()._actions
                     if action.dest == "command"]
    return subparsers.choices[command]


# config fields that the training commands derive from the data
DERIVED_FIELDS = {"vocab_size", "feature_dim"}


def test_every_training_setting_has_a_flag():
    """Each field of the decoder, filler and training configs is the dest
    of a ``train-decoder`` or ``train-filler`` flag, so no setting is
    reachable from tests alone."""
    import dataclasses

    from artdesc.decoder import DecoderConfig, TrainConfig
    from artdesc.filler import FillerConfig

    dests = {action.dest for command in ("train-decoder", "train-filler")
             for action in _subparser(command)._actions}
    fields = {field.name for cls in (DecoderConfig, FillerConfig, TrainConfig)
              for field in dataclasses.fields(cls)}
    assert sorted(fields - DERIVED_FIELDS - dests) == []


# flags whose CLI defaults differ from their dataclass on purpose: the
# commands train for 100 and 50 epochs, and the decoder defaults to parallel
CLI_DEFAULTS = {"epochs", "variant"}


def test_no_flag_restates_a_training_default():
    """No ``add_argument`` in cli.py gives a literal ``default=`` to a flag
    whose dest is a field of the decoder, filler or training config: those
    flags take their defaults from the fields."""
    import dataclasses

    from artdesc.decoder import DecoderConfig, TrainConfig
    from artdesc.filler import FillerConfig

    fields = {field.name for cls in (DecoderConfig, FillerConfig, TrainConfig)
              for field in dataclasses.fields(cls)}
    path = SRC / "cli.py"
    offenders = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if not (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_argument"):
            continue
        flags = [arg.value for arg in node.args if isinstance(arg, ast.Constant)
                 and isinstance(arg.value, str) and arg.value.startswith("--")]
        dest = flags[0][2:].replace("-", "_") if flags else None
        offenders += [f"cli.py:{node.lineno}: {flags[0]}" for keyword in node.keywords
                      if keyword.arg == "default" and isinstance(keyword.value, ast.Constant)
                      and dest in fields - CLI_DEFAULTS]
    assert offenders == []


def test_describe_flags_name_only_its_inputs_and_output():
    """``describe`` reads its decoding and retrieval settings from
    ``pipeline.json`` and its decode length from the decoder checkpoint: no
    flag overrides either."""
    options = {option for action in _subparser("describe")._actions
               for option in action.option_strings} - {"-h", "--help"}
    assert sorted(options) == ["--config", "--out", "--painting-id", "--topic"]


def test_decoding_and_retrieval_restate_no_default():
    """``generate``, ``TfIdfIndex.rank`` and ``eval_recall`` default none of
    their parameters: their callers pass the values that ``pipeline.json``,
    the checkpoint or a flag set."""
    import inspect

    from artdesc.decoder import generate
    from artdesc.retriever import TfIdfIndex, eval_recall

    defaulted = [f"{function.__qualname__}({name})"
                 for function in (generate, TfIdfIndex.rank, eval_recall)
                 for name, parameter in inspect.signature(function).parameters.items()
                 if parameter.default is not inspect.Parameter.empty]
    assert defaulted == []


# the levels whose events pass their values through ``extra=``; cli.main's
# error events keep their text, on which the CLI tests match
FIELD_LEVELS = frozenset({"debug", "info", "warning"})


def test_log_events_carry_values_as_fields():
    """No ``logger.debug``, ``.info`` or ``.warning`` call under src/ passes
    a positional argument to interpolate into its message."""
    calls, offenders = 0, []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in FIELD_LEVELS \
                    and getattr(node.func.value, "id", None) == "logger":
                calls += 1
                if len(node.args) > 1:
                    offenders.append(f"{path.relative_to(SRC)}:{node.lineno}: "
                                     f"logger.{node.func.attr}")
    assert calls, "no logger calls found"
    assert offenders == []


def _grad_stores(tree: ast.AST):
    """Statements that bind a ``.grad`` attribute or assign into one."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "grad" \
                and isinstance(node.ctx, ast.Store):
            yield node
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store) \
                and getattr(node.value, "attr", None) == "grad":
            yield node
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "setattr" \
                and len(node.args) > 1 and getattr(node.args[1], "value", None) == "grad":
            yield node


# the functions that bind a .grad: a parameter's to its view of the block,
# a new tensor's to None, every other tensor's when it takes its first
# gradient, and the loss seed
GRAD_BINDERS = frozenset({("numcore/params.py", "_packed"),
                          ("numcore/tensor.py", "__init__"),
                          ("numcore/tensor.py", "accumulate_grad"),
                          ("numcore/tensor.py", "backward")})


def test_only_the_parameter_block_binds_a_gradient():
    """Only ``ParamStore._packed``, ``Tensor.__init__``,
    ``Tensor.accumulate_grad`` and ``backward`` (the loss seed) bind a
    ``.grad`` or assign into one, and each does: a parameter's gradient lives
    in the block alone, and no backward closure allocates or scatters a
    gradient itself."""
    bound, offenders = set(), []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        owner = {id(inner): (rel, node.name) for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef) and (rel, node.name) in GRAD_BINDERS
                 for inner in ast.walk(node)}
        for node in _grad_stores(tree):
            if id(node) in owner:
                bound.add(owner[id(node)])
            else:
                offenders.append(f"{rel}:{node.lineno}")
    assert offenders == []
    assert bound == GRAD_BINDERS


# the functions of numcore/tensor.py that may call np.exp: every other
# softmax or log-softmax in the package calls one of them
EXP_CALLERS = frozenset({("numcore/tensor.py", name)
                         for name in ("softmax_np", "log_softmax_np", "cross_entropy")})


def test_only_the_softmax_recipes_call_exp():
    """No module under src/ outside numcore calls ``np.exp``, and in
    numcore/tensor.py only ``softmax_np``, ``log_softmax_np`` and
    ``cross_entropy`` do."""
    allowed, offenders = 0, []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel.startswith("numcore/") and rel != "numcore/tensor.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        exempt = _inside(tree, rel, EXP_CALLERS)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and ast.unparse(node.func) in ("np.exp", "numpy.exp"):
                if id(node) in exempt:
                    allowed += 1
                else:
                    offenders.append(f"{rel}:{node.lineno}")
    assert offenders == []
    assert allowed, "the softmax recipes call no np.exp"


# what only the pipeline knows: the decoder takes a beam size, and "greedy"
# is the pipeline's name for a beam of one
DECODE_MODE_NAMES = frozenset({"decode_mode", "DECODE_MODES"})


def test_only_the_pipeline_knows_the_decode_mode():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel == "pipeline.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders += [f"{rel}:{lineno}: {name}" for lineno, name in _referenced_names(tree)
                      if name in DECODE_MODE_NAMES]
        offenders += [f"{rel}:{node.lineno}: '{node.value}'" for node in ast.walk(tree)
                      if isinstance(node, ast.Constant) and node.value in DECODE_MODE_NAMES]
    assert offenders == []


def test_one_table_declares_the_painting_attributes():
    """Only corpus/types.py assigns ``ATTRIBUTE_TYPES``; every other module
    imports it."""
    binders = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        binders += [f"{path.relative_to(SRC).as_posix()}:{node.lineno}"
                    for node in ast.walk(tree)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
                    and node.id == "ATTRIBUTE_TYPES"]
    assert [where.split(":")[0] for where in binders] == ["corpus/types.py"], binders
