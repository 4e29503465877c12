"""Seeded mutation fuzzing of the command line, in the manner of Miller,
Fredriksen & So (1990), "An Empirical Study of the Reliability of UNIX
Utilities".

Every case runs ``cli.main`` in-process on its own copy of a tiny workspace
(16x16 scenes, a two-step model) after drawing mutations of its argv, its
config JSON or its dataset manifest from a seeded ``random.Random``. Two
properties are checked:

- every outcome is a documented exit code: 0, 2 config, 3 io/format,
  4 numeric or 5 data (argparse's own exit is 2), and never another exception
- with every data input missing, a bad flag or config exits 2 and writes
  nothing, because flags and configs are checked before any data file is read

No draw allocates much memory or starts a thread or process: every size stays
at 99 or below, no config key is dropped (its default is the full-size run),
and the one valid ``gradcheck`` run takes a single trial.
"""

import json
import random
import shutil

import pytest

from protoseg.cli import main

SCENE = {
    "height": 16,
    "width": 16,
    "shapes_min": 1,
    "shapes_max": 2,
    "train_scenes": 8,
    "support_per_class": 3,
    "test_scenes": 4,
    "seed": 1,
}
TRAIN = {"batch_size": 4, "steps": 2, "lr": 0.05, "seed": 0, "embed_dim": 4, "backbone_layers": 1}
DOCUMENTED_EXITS = {0, 2, 3, 4, 5}

# "@name" values are workspace paths of each case's copy; "@new" is a fresh
# path there, and "@absent", "@under_file" and "@nul" are paths that cannot be
# read ("@nul" holds a NUL byte, which open() rejects with a ValueError)
PLACES = {
    "@config": "config.json",
    "@manifest": "data/split0/manifest.json",
    "@model": "model.ckpt",
    "@snapshot": "snapshot.ckpt",
    "@image": "data/split0/test_0000.ppm",
    "@mask": "data/split0/test_0000.pgm",
    "@dir": "data",
    "@absent": "absent",
    "@under_file": "config.json/sub",
    "@nul": "a\0b",
}
PATHS = sorted(PLACES)

# a valid argv per command as (flag, value) pairs; "resume" and "fs" are
# the train and eval commands along their other path
COMMAND = {"resume": "train", "fs": "eval"}
VALID = {
    "synth": [("--config", "@config"), ("--out", "@new")],
    "train": [("--config", "@config"), ("--data", "@manifest"), ("--variant", "capl"),
              ("--out", "@new"), ("--curve", "@new"), ("--stop-after", "1")],
    "resume": [("--data", "@manifest"), ("--resume", "@snapshot"), ("--variant", "amp_gamma"),
               ("--out", "@new"), ("--stop-after", "2")],
    "register": [("--model", "@model"), ("--data", "@manifest"), ("--shots", "1"), ("--seed", "7"),
                 ("--gamma", "0.3"), ("--out", "@new")],
    "predict": [("--model", "@model"), ("--image", "@image"), ("--out", "@new"),
                ("--logits", "@new")],
    "eval": [("--model", "@model"), ("--data", "@manifest"), ("--protocol", "gfs"),
             ("--shots", "1"), ("--seeds", "1,2"), ("--gamma", "0.3"), ("--report", "@new")],
    "fs": [("--model", "@model"), ("--data", "@manifest"), ("--protocol", "fs"), ("--shots", "1"),
           ("--seeds", "3"), ("--episodes", "2"), ("--report", "@new")],
    "ablate": [("--config", "@config"), ("--data", "@manifest"), ("--variants", "baseline,amp_gamma"),
               ("--shots-list", "1"), ("--seeds", "1"), ("--cache", "@new"), ("--out", "@new")],
}

INTS = ["-1", "0", "1", "2", "99", "x", "", "1.5", "nan", " 3", "+1", "1,2", ","]
GAMMAS = ["0", "1", "0.5", "-0.1", "1.5", "nan", "inf", "x", ""]
VALUES = {
    "--shots": INTS,
    "--seed": INTS,
    "--seeds": INTS + ["1,,2", "-1,3"],
    "--shots-list": INTS,
    "--episodes": INTS,
    "--stop-after": INTS,
    "--gamma": GAMMAS,
    "--protocol": ["gfs", "fs", "x", ""],
    "--variant": ["capl", "baseline", "amp_gamma", "x", ""],
    "--variants": ["capl", "baseline,capl_tr", "x", "", ",", "capl,x"],
}
# config values: wrong types, non-finite numbers and small sizes only
CONFIG_VALUES = [None, "x", True, [], {}, -1, 0, 1, 2, 1.5, float("nan"), float("inf")]
MANIFEST_VALUES = [None, "x", True, [], {}, -1, 0, 1, 255, 300, 1.5]
SCENE_PATHS = ["a\0b.ppm", "", "/", ".", "..", "absent.ppm", "manifest.json", "x" * 300,
               "test_0000.pgm", "../split0/test_0000.ppm", "test_0000.ppm/sub"]


@pytest.fixture(scope="module")
def template(tmp_path_factory):
    """The workspace every case copies: one config that serves synth, train
    and ablate, split 0 of a tiny dataset, an amp_gamma model and a snapshot
    of it after one step."""
    root = tmp_path_factory.mktemp("fuzz")
    scene_cfg = root / "scene.json"
    scene_cfg.write_text(json.dumps({"scene": SCENE}))
    ws = root / "ws"
    assert main(["synth", "--config", str(scene_cfg), "--out", str(root / "data")]) == 0
    shutil.copytree(root / "data" / "split0", ws / "data" / "split0")
    (ws / "config.json").write_text(json.dumps({"scene": SCENE, "train": TRAIN}))
    train = ["train", "--config", str(ws / "config.json"), "--variant", "amp_gamma",
             "--data", str(ws / PLACES["@manifest"])]
    assert main(train + ["--out", str(ws / "model.ckpt")]) == 0
    assert main(train + ["--out", str(ws / "snapshot.ckpt"), "--stop-after", "1"]) == 0
    return ws


def _outcome(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse's own exit
        return exc.code
    except Exception as exc:  # an escape is the finding
        return f"{type(exc).__name__}: {exc}"


def _argv(case, name, pairs):
    fresh = iter(range(len(pairs)))

    def path(value):
        if value == "@new":
            return str(case / f"out{next(fresh)}")
        return str(case / PLACES[value]) if value in PLACES else value

    return [COMMAND.get(name, name)] + [a for flag, value in pairs for a in (flag, path(value))]


def _run(template, case, name, pairs, edit=None):
    """Copy the workspace to ``case``, let ``edit`` change the copy, run the
    argv; the outcome, and the argv as a readable finding."""
    shutil.copytree(template, case)
    if edit:
        edit(case)
    argv = _argv(case, name, pairs)
    code = _outcome(argv)
    shutil.rmtree(case)
    return code, " ".join(repr(a) if not a or " " in a else a for a in argv).replace(str(case), "<ws>")


def _draw(rng, flag):
    return rng.choice(VALUES.get(flag, PATHS + ["@new"]))


def _mutate_argv(rng, pairs):
    pairs = list(pairs)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(pairs))
        flag, value = pairs[i]
        kind = rng.choice(("drop", "duplicate", "swap", "value"))
        # without --config, or --resume's snapshot config, the full-size defaults run
        if kind == "drop" and flag not in ("--config", "--resume"):
            del pairs[i]
        elif kind == "duplicate":
            pairs.append((flag, _draw(rng, flag)))
        elif kind == "swap":
            j = rng.randrange(len(pairs))
            pairs[i], pairs[j] = (flag, pairs[j][1]), (pairs[j][0], value)
        elif kind == "value":
            pairs[i] = (flag, _draw(rng, flag))
    return pairs


def _mutate_config(rng, doc):
    """The bytes of a config file with one change to ``doc`` that keeps every
    size small."""
    kind = rng.choice(("value", "value", "value", "unknown_key", "unknown_section",
                       "section_type", "root_type", "text"))
    section = rng.choice(("scene", "train"))
    if kind == "value":
        doc[section][rng.choice(sorted(doc[section]))] = rng.choice(CONFIG_VALUES)
    elif kind == "unknown_key":
        doc[section][rng.choice(("bogus", "_comment", "Steps"))] = 1
    elif kind == "unknown_section":
        doc[rng.choice(("protocol", "_comment", ""))] = {}
    elif kind == "section_type":
        doc[section] = rng.choice(CONFIG_VALUES[:4])
    elif kind == "root_type":
        doc = [doc]
    text = json.dumps(doc).encode()
    if kind == "text":
        return rng.choice((text[: rng.randrange(len(text))], text.replace(b":", b": \xff", 1),
                           text + b"}", b""))
    return text


def _mutate_manifest(rng, doc):
    kind = rng.choice(("scene_path", "scene_path", "value", "drop"))
    split = rng.choice(("train", "support_pool", "test"))
    if kind == "scene_path":
        entry = rng.choice(doc["splits"][split])
        entry[rng.choice(("image", "mask"))] = rng.choice(SCENE_PATHS)
        return doc
    entry = rng.randrange(len(doc["splits"][split]))
    cls = rng.randrange(len(doc["classes"]))
    where = rng.choice([
        ("classes",), ("classes", cls), ("classes", cls, "id"), ("classes", cls, "name"),
        ("classes", cls, "role"), ("split_index",), ("seed",), ("splits",), ("splits", split),
        ("splits", split, entry), ("splits", split, entry, "novel_id"),
        ("splits", split, entry, "image"),
    ])
    *parents, key = where
    node = doc
    for step in parents:
        node = node[step]
    if kind == "drop":
        if isinstance(node, dict):
            node.pop(key, None)
        else:
            del node[key]
    else:
        node[key] = rng.choice(MANIFEST_VALUES)
    return doc


def _check(findings):
    assert findings == [], f"{len(findings)} finding(s):\n" + "\n".join(findings)


def _finding(code, argv):
    return None if code in DOCUMENTED_EXITS else f"{code!r} <- {argv}"


@pytest.mark.parametrize("name", sorted(VALID))
def test_argv_mutations_exit_with_a_documented_code(template, tmp_path, name):
    # the unmutated argv runs first: it must succeed
    rng = random.Random(f"argv {name}")
    code, argv = _run(template, tmp_path / "valid", name, VALID[name])
    assert code == 0, argv
    findings = []
    for i in range(12 if name == "synth" else 30):
        code, argv = _run(template, tmp_path / f"case{i}", name, _mutate_argv(rng, VALID[name]))
        findings.append(_finding(code, argv))
    _check([f for f in findings if f])


@pytest.mark.parametrize("name", ["synth", "train", "ablate"])
def test_config_mutations_exit_with_a_documented_code(template, tmp_path, name):
    rng = random.Random(f"config {name}")
    findings = []
    for i in range(12 if name == "synth" else 25):
        def edit(case):
            path = case / "config.json"
            path.write_bytes(_mutate_config(rng, json.loads(path.read_text())))

        code, argv = _run(template, tmp_path / f"case{i}", name, VALID[name], edit)
        findings.append(_finding(code, argv))
    _check([f for f in findings if f])


@pytest.mark.parametrize("name", ["train", "register", "eval", "fs", "ablate"])
def test_manifest_mutations_exit_with_a_documented_code(template, tmp_path, name):
    rng = random.Random(f"manifest {name}")
    findings = []
    for i in range(30):
        def edit(case):
            path = case / PLACES["@manifest"]
            path.write_text(json.dumps(_mutate_manifest(rng, json.loads(path.read_text()))))

        code, argv = _run(template, tmp_path / f"case{i}", name, VALID[name], edit)
        findings.append(_finding(code, argv))
    _check([f for f in findings if f])


@pytest.mark.parametrize("trials", ["0", "-1", "x", "", "1.5", "nan", "1,2", "1"])
def test_gradcheck_trials_exit_with_a_documented_code(trials):
    # valid audits cost about a second each, so only "1" runs one
    code = _outcome(["gradcheck", "--trials", trials])
    assert code == (0 if trials == "1" else 2)


# argvs whose every data input (model, manifest, snapshot) is missing
MISSING = {
    "synth": [("--config", "@config"), ("--out", "@new")],
    "train": [("--config", "@config"), ("--data", "@absent"), ("--out", "@new")],
    "resume": [("--data", "@absent"), ("--resume", "@absent"), ("--out", "@new")],
    "register": [("--model", "@absent"), ("--data", "@absent"), ("--shots", "1"), ("--out", "@new")],
    "eval": [("--model", "@absent"), ("--data", "@absent"), ("--report", "@new")],
    "fs": [("--model", "@absent"), ("--data", "@absent"), ("--protocol", "fs"), ("--shots", "1"),
           ("--report", "@new")],
    "ablate": [("--config", "@config"), ("--data", "@absent"), ("--cache", "@new"), ("--out", "@new")],
    "gradcheck": [],
}
# flags each command must reject, appended to its argv (a repeated flag's
# last value wins); cross-input rules are among them
BAD_GAMMAS = [("--gamma", g) for g in ("-0.1", "1.5", "nan", "inf", "x", "")]
BAD_FLAGS = {
    "train": [("--stop-after", v) for v in ("-1", "x", "")] + [("--variant", "x")],
    "resume": [("--stop-after", v) for v in ("-1", "x")] + [("--variant", "x"), ("--config", "@config")],
    "register": [("--shots", v) for v in ("0", "-1", "x", "", "1.5")]
    + [("--seed", v) for v in ("-1", "x", "")] + BAD_GAMMAS,
    "eval": [("--shots", v) for v in ("0", "x")] + [("--seeds", v) for v in (",", "", "-1", "x", "1;2")]
    + [("--episodes", v) for v in ("0", "-1", "x")] + [("--protocol", "x")] + BAD_GAMMAS,
    "fs": [("--seeds", "1,2"), ("--episodes", "0"), ("--shots", "0"), ("--gamma", "1.5")],
    "ablate": [("--shots-list", v) for v in ("0", ",", "x", "1,-5")]
    + [("--seeds", v) for v in (",", "-1", "1.5")] + [("--variants", v) for v in (",", "x", "capl,x", "")],
    "gradcheck": [("--trials", v) for v in ("0", "-1", "x", "", "2.5")],
}
# the README's Configuration rules: a value out of each range
BAD_RANGES = {
    "train": {"batch_size": [3], "steps": [-1], "lr": [0, -1.0], "seed": [-1], "embed_dim": [1, 0],
              "backbone_layers": [0]},
    "scene": {"height": [9], "width": [0], "num_foreground": [3, 6], "shapes_min": [-1],
              "shapes_max": [0], "cooc_prob": [1.5], "cooc_partner_offset": [1],
              "context_tint": [-0.1, 1.5], "noise": [-0.1], "train_scenes": [-1],
              "support_per_class": [-1], "test_scenes": [-1], "seed": [-1]},
}
WRONG_TYPES = ["x", None, [], {}, True, float("nan"), float("inf")]


def _bad_configs(rng):
    """Config files every command that reads one must reject: each range
    rule, a seeded wrong type per field, and bad documents."""
    good = {"scene": SCENE, "train": TRAIN}
    docs = [
        {**good, section: {**good[section], key: value}}
        for section, keys in BAD_RANGES.items()
        for key, values in keys.items()
        for value in values
    ]
    docs += [
        {**good, section: {**good[section], key: rng.choice(WRONG_TYPES)}}
        for section in ("scene", "train")
        for key in sorted(BAD_RANGES[section])
    ]
    docs += [{**good, "protocol": {}}, {**good, "train": {**TRAIN, "bogus": 1}},
             {**good, "scene": 5}, {**good, "train": []}, [good]]
    return [json.dumps(d).encode() for d in docs] + [b'{"scene": {,}}', b'{"seed": "\xff"}']


def _bad_cases(name, rng):
    cases = [(MISSING[name] + [bad], None) for bad in BAD_FLAGS.get(name, [])]
    if name in ("synth", "train", "ablate"):
        cases += [(MISSING[name], config) for config in _bad_configs(rng)]
    if name == "fs":
        cases.append(([p for p in MISSING[name] if p[0] != "--shots"], None))
    return cases


@pytest.mark.parametrize("name", sorted(MISSING))
def test_a_bad_flag_or_config_exits_2_with_every_data_input_missing(tmp_path, name):
    # no workspace copy: each case holds only its config, so exit 2 rather
    # than 3 shows the flags and the config are checked before any data file
    rng = random.Random(f"missing {name}")
    findings = []
    for i, (pairs, config) in enumerate(_bad_cases(name, rng)):
        case = tmp_path / f"case{i}"
        case.mkdir()
        (case / "config.json").write_bytes(config or json.dumps({"scene": SCENE, "train": TRAIN}).encode())
        argv = _argv(case, name, pairs)
        code = _outcome(argv)
        left = sorted(p.name for p in case.iterdir())
        if code != 2 or left != ["config.json"]:
            shown = " ".join(argv).replace(str(case), "<ws>")
            findings.append(f"{code!r}, left {left} <- {shown} with config {config!r}")
        shutil.rmtree(case)
    _check(findings)
