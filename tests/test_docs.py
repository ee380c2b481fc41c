"""The documented surface: the README's Python session, its key table and the package exports."""

import itertools
from pathlib import Path

import sandlab
from sandlab import cli, torus_kinds  # noqa: F401  registers the torus kinds in cli._EXPERIMENTS


def readme_python_session() -> str:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    start = readme.index("```python\n") + len("```python\n")
    return readme[start : readme.index("```", start)]


def test_readme_python_session_runs_verbatim(capsys):
    exec(compile(readme_python_session(), "README.md", "exec"), {})
    status, gap = capsys.readouterr().out.split()
    # toppling meets the closed-form odometer up to the stopping tolerance
    assert status == "stabilized"
    assert float(gap) < 1e-5


def test_every_exported_name_imports():
    namespace = {}
    exec("from sandlab import *", namespace)  # raises if __all__ names a missing attribute
    assert set(sandlab.__all__) <= set(namespace)


def readme_key_table() -> dict:
    """(key, kind) -> (bound, sigma) from the README's key table, every row expanded over its kinds."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    lines = readme[readme.index("| key | kinds | bound | sigma |") :].splitlines()[2:]
    table = {}
    for line in itertools.takewhile(lambda s: s.startswith("|"), lines):
        key, kinds, bound, sigma = (cell.strip().strip("`") or None for cell in line.strip("|").split("|"))
        for kind in cli.KINDS if kinds == "every kind" else kinds.replace("`", "").split(", "):
            assert (key, kind) not in table, f"{key} listed twice for {kind}"
            table[key, kind] = (bound, sigma)
    return table


def test_readme_key_table_is_the_schema():
    schema = {(k.name, kind): (k.bound, k.regime)
              for kind, (keys, _) in cli._EXPERIMENTS.items() for k in keys if k.bound or k.regime}
    assert readme_key_table() == schema
