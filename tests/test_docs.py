"""The documented surface: the README's Python session and the package exports."""

from pathlib import Path

import sandlab


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
