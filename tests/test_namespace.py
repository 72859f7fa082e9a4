"""The package's public namespace: every name in ``__all__`` exists, once, and
the README's library sketch runs against it."""

import json
from pathlib import Path

import strongbounds

ROOT = Path(__file__).resolve().parent.parent


def test_star_import_gives_exactly_all():
    namespace: dict = {}
    exec("from strongbounds import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(strongbounds.__all__)


def test_all_has_no_duplicates():
    assert len(strongbounds.__all__) == len(set(strongbounds.__all__))


def test_every_name_resolves():
    missing = [name for name in strongbounds.__all__ if not hasattr(strongbounds, name)]
    assert missing == []


def test_readme_library_sketch_runs(capsys, monkeypatch):
    """The code block under "## Library sketch" runs from the repo root and
    prints a JSON report."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library sketch\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    monkeypatch.chdir(ROOT)
    exec(compile(code, "README.md", "exec"), {})
    report = json.loads(capsys.readouterr().out)
    assert report["kind"] == "product-analysis" and report["mode"] == "both"
