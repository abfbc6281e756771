"""``scripts/src_lines.py``: the four line categories of a module add up to its line count."""

import importlib
import subprocess

src_lines = importlib.import_module("scripts.src_lines")


def test_categories_of_a_sample():
    text = '"""Module\n\ndoc."""\n\n# a comment\ndef f():\n    """One line."""\n    return 1  # trailing\n'
    assert src_lines.classify(text) == {"code": 2, "docstring": 4, "comment": 1, "blank": 1}


def test_categories_sum_to_each_module_line_count():
    modules = sorted(src_lines.SRC.glob("*.py"))
    assert modules
    for path in modules:
        text = path.read_text()
        assert sum(src_lines.classify(text).values()) == text.count("\n"), path.name


def test_counts_at_a_ref_classify_that_ref_text():
    text = subprocess.run(
        ["git", "show", "HEAD:src/ccgl/config.py"], cwd=src_lines.ROOT, capture_output=True, text=True, check=True
    ).stdout
    assert src_lines.counts_at("HEAD")["config.py"] == src_lines.classify(text)
