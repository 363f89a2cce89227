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


def test_scenario_key_table_is_the_parsers():
    """The README's scenario key table lists exactly the keys parse_scenario takes."""
    from meanexp.scenario import FIELD_FACTORS, SCHEMA_KEYS

    section = README.read_text(encoding="utf-8").split("## Scenario files", 1)[1].split("\n## ", 1)[0]
    rows = [[cell.strip().strip("`") for cell in line.strip("|").split("|")]
            for line in section.splitlines() if line.startswith("| ")]
    listed = sorted(("" if obj == "top level" else obj, key) for obj, key, *_ in rows[2:])
    factors = [("field", key) for keys in FIELD_FACTORS.values() for key in keys]
    assert listed == sorted([(obj, key) for obj, keys in SCHEMA_KEYS.items() for key in keys] + factors)
