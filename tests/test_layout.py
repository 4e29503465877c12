"""Package-wide invariants that keep one implementation per concept."""

import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "protoseg"


def _source() -> str:
    return "\n".join(p.read_text() for p in sorted(SRC.glob("*.py")))


def test_one_atomic_writer_and_no_thread_pool():
    text = _source()
    assert text.count("os.replace(") == 1
    assert "concurrent.futures" not in text


def test_one_json_file_reader():
    assert _source().count("json.load(") == 1
