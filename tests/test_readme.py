import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_tour_runs():
    """The README's library quick tour executes against the current API."""
    tour = README.read_text(encoding="utf-8").split("## Library quick tour", 1)[1]
    code = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    namespace: dict = {}
    exec(compile(code, "README quick tour", "exec"), namespace)
    assert namespace["sol"].ell_star_0.norm == 19
