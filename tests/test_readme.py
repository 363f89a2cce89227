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


def _scenario_key_rows():
    """The cells of the README's scenario key table, header rows dropped."""
    section = README.read_text(encoding="utf-8").split("## Scenario files", 1)[1].split("\n## ", 1)[0]
    rows = [[cell.strip().strip("`") for cell in line.strip("|").split("|")]
            for line in section.splitlines() if line.startswith("| ")]
    return rows[2:]


def test_scenario_key_table_is_the_parsers():
    """The README's scenario key table lists exactly the keys parse_scenario takes."""
    from meanexp.scenario import FIELD_FACTORS, SCHEMA_KEYS

    listed = sorted(("" if obj == "top level" else obj, key) for obj, key, *_ in _scenario_key_rows())
    factors = [("field", key) for keys in FIELD_FACTORS.values() for key in keys]
    assert listed == sorted([(obj, key) for obj, keys in SCHEMA_KEYS.items() for key in keys] + factors)


def test_readme_states_the_norm_cap():
    """Each `m·10^k (arith.MAX_NORM_BOUND)` in the README is the cap's value,
    and the tv.norm_bound row gives it as its top."""
    from meanexp.arith import MAX_NORM_BOUND

    cap = re.compile(r"(\d+)·10([⁰¹²³⁴⁵⁶⁷⁸⁹]+)\s+\(`arith\.MAX_NORM_BOUND`\)")
    digits = str.maketrans("⁰¹²³⁴⁵⁶⁷⁸⁹", "0123456789")
    stated = [int(m) * 10 ** int(k.translate(digits)) for m, k in cap.findall(README.read_text(encoding="utf-8"))]
    assert stated and set(stated) == {MAX_NORM_BOUND}
    row = next(desc for obj, key, desc, *_ in _scenario_key_rows() if (obj, key) == ("tv", "norm_bound"))
    assert cap.search(row) and row.startswith("an integer from 2 to ")
