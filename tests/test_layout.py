"""Package-wide invariants: one implementation per concept, no unused imports,
no config field that no caller sets, no growth in settable values."""

import argparse
import ast
import dataclasses
import json
import os
import pathlib
import subprocess
import sys

from protoseg.cli import build_parser
from protoseg.scenes import SceneConfig
from protoseg.tensor import Tensor
from protoseg.training import TrainConfig

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "protoseg"


def _source() -> str:
    return "\n".join(p.read_text() for p in sorted(SRC.glob("*.py")))


def test_one_atomic_writer_and_no_thread_pool():
    text = _source()
    assert text.count("os.replace(") == 1
    assert "concurrent.futures" not in text


def test_one_masked_sum_taker():
    # both pooling rules take their masked sums from masked_sum_part
    assert _source().count("T.masked_sum(") == 1


def test_one_inference_scoring_path():
    # the cosine head is called by training's loss and classify's
    # per-classifier half, which every inference path scores through
    text = _source()
    assert text.count("cosine_logits(") - text.count("def cosine_logits(") == 2


def test_one_class_naming_rule():
    # manifests and checkpoint class tables both name classes by class_name
    assert _source().count('f"class{') == 1


def test_one_label_table_builder():
    # every class id -> row table, -1 for an id not listed, is row_table's
    builders = [
        node
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "np.full"
        and len(node.args) > 1 and ast.unparse(node.args[1]) == "-1"
    ]
    assert len(builders) == 1


def _src_nodes():
    return [node for path in sorted(SRC.glob("*.py")) for node in ast.walk(ast.parse(path.read_text()))]


def test_one_argmax_tie_rule():
    # every prediction takes the lowest row at the maximum from scorer's one
    # comparison against a column max; no argmax anywhere else
    nodes = _src_nodes()
    argmaxes = [n for n in nodes if isinstance(n, ast.Attribute) and n.attr in ("argmax", "nanargmax")]
    tie_rules = [
        n for n in nodes
        if isinstance(n, ast.Compare) and isinstance(n.ops[0], ast.Eq)
        and isinstance(n.comparators[0], ast.Call) and ast.unparse(n.comparators[0].func).endswith(".max")
    ]
    assert argmaxes == [] and len(tie_rules) == 1


def test_one_confusion_matrix_accumulate_path():
    # accumulate and the streamed gfs pass both count pairs through add_rows
    adds = [
        n for n in _src_nodes()
        if isinstance(n, ast.AugAssign) and isinstance(n.target, ast.Attribute) and n.target.attr == "counts"
    ]
    assert len(adds) == 1


def test_gradients_come_back_from_backward_not_from_a_tensor_slot():
    # backward(tape, loss, wrt) returns dLoss/dt; no tensor carries a gradient
    readers = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "grad"
    ]
    assert readers == []
    assert Tensor.__slots__ == ("data", "requires_grad")


def test_one_present_ids_rule():
    # which ids a mask holds is present_ids' one 256-bin count; np.unique is
    # its fallback for ids past 0-255 and appears nowhere else
    assert _source().count("np.unique(") == 1


def test_one_json_file_reader():
    assert _source().count("json.load(") == 1


def test_every_imported_name_is_used():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{path.name}:{line} {n}" for n, line in imported.items() if n not in used]
    assert unused == []


def test_package_root_imports_nothing():
    # callers import from the modules; the root keeps only its docstring
    tree = ast.parse((SRC / "__init__.py").read_text())
    assert not [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]


def test_every_module_imports_alone():
    # no package-root import fixes an import order, so each module must
    # import in a fresh interpreter without a cycle
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    failed = []
    for path in sorted(SRC.glob("*.py")):
        name = f"protoseg.{path.stem}"
        run = subprocess.run([sys.executable, "-c", f"import {name}"], env=env,
                             capture_output=True, text=True)
        if run.returncode:
            failed.append(f"{name}: {run.stderr.strip().splitlines()[-1]}")
    assert failed == []


def test_exit_codes_are_assigned_only_on_the_error_classes():
    # cli.main returns exc.exit_code; no other module keeps its own table
    assigners = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                if any(getattr(t, "id", getattr(t, "attr", None)) == "exit_code" for t in targets):
                    assigners.add(path.name)
    assert assigners == {"errors.py"}


def test_train_config_has_only_the_fields_the_shipped_config_sets():
    # a training value that no config sets is a constant in training.py
    shipped = json.loads((ROOT / "configs" / "quick.json").read_text())["train"]
    assert {f.name for f in dataclasses.fields(TrainConfig)} == set(shipped)


# CLI flags + TrainConfig/SceneConfig fields + defaulted parameters of named
# functions: 36 + 20 + 29 when this guard was added, 36 + 20 + 28 once the
# cosine scale stopped being a make_classifier parameter, 36 + 20 + 27 once
# tensor.scale lost its beta, 36 + 20 + 25 once tensor.matmul lost
# transpose_b and tensor.concat lost axis, 35 + 20 + 10 once gradcheck lost
# --corrupt-op and 15 defaulted parameters that no program caller relied on
# (the protocols' seeds, episodes and cache defaults live in the CLI only),
# 35 + 20 + 8 once from_train_state and save_train_state lost class_names
SETTABLE_VALUES_CEILING = 63


def _settable_values() -> list[str]:
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    knobs = [
        f"{name} {action.option_strings[0]}"
        for name, sub in commands.choices.items()
        for action in sub._actions
        if action.option_strings and not isinstance(action, argparse._HelpAction)
    ]
    knobs += [f"{cls.__name__}.{f.name}" for cls in (TrainConfig, SceneConfig)
              for f in dataclasses.fields(cls)]
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                named = args.posonlyargs + args.args
                defaulted = named[len(named) - len(args.defaults):]
                defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
                knobs += [f"{path.name}:{node.name}({a.arg}=)" for a in defaulted]
    return knobs


def test_settable_values_do_not_grow():
    # a new flag, config field or defaulted parameter has to replace an old one
    knobs = _settable_values()
    assert len(knobs) <= SETTABLE_VALUES_CEILING, "\n".join(knobs)
