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


def test_counts_at_a_ref_classify_that_ref_text(tmp_path, monkeypatch):
    # a one-commit repository of its own, so the test also runs in a copy that is not a git checkout
    text = (src_lines.SRC / "config.py").read_text()
    (tmp_path / "src" / "ccgl").mkdir(parents=True)
    (tmp_path / "src" / "ccgl" / "config.py").write_text(text)
    (tmp_path / "src" / "ccgl" / "notes.txt").write_text("not a module\n")
    identity = ["-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false"]
    for args in (["init", "-q"], ["add", "."], [*identity, "commit", "-qm", "one"]):
        subprocess.run(["git", *args], cwd=tmp_path, capture_output=True, check=True)
    (tmp_path / "src" / "ccgl" / "config.py").write_text("x = 1\n")  # the working tree no longer matches the commit
    monkeypatch.setattr(src_lines, "ROOT", tmp_path)
    assert src_lines.counts_at("HEAD") == {"config.py": src_lines.classify(text)}
