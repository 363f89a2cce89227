"""SHA-256 digests of the package's output, to compare interpreters byte for byte.

    python3 scripts/report_digests.py

Prints one line per output, ``<sha256>  <name>``:

- ``dump_report`` of the six packaged examples, and of the ``x1_num = 0.03``
  rung of example 1 (T and ``tv.sigma_fixed`` removed), about 9,400
  ``tv.prefix`` rows;
- the exit code and stdout of a fixed list of CLI commands, each as text,
  with ``--json``, and with ``--json --precision 4``.

The package is imported from the ``src`` directory next to this script, so
any interpreter that can run the package runs it.  Two interpreters that
print the same lines wrote the same bytes.  Standard library only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from meanexp import cli, scenario  # noqa: E402

PACKAGED = ("example1", "example2", "example3", "example4", "example5", "intro")

COMMANDS = [
    ["mean-exponent", "--shape", "p:2,exps:3,1"],
    ["genus-bound", "--rho", "6", "--r1", "1", "--r2", "0", "--delta", "1"],
    ["gs-check", "--d", "16", "--r-upper", "48"],
    ["critere", "--rho", "8", "--t-dec", "0", "--t-total", "1"],
    ["propgroup", "series", "--d", "4", "--r", "4", "--N", "40"],
    ["propgroup", "ranks", "--d", "4", "--r", "4", "--p", "3", "--N", "200"],
    # rows up to n = 11 are exact, those above in the float-log regime
    ["propgroup", "witnesses", "--d", "4", "--r", "4", "--p", "3", "--N", "14", "--eps", "0.5"],
    ["propgroup", "witnesses", "--d", "5", "--r", "2", "--p", "2", "--N", "40", "--eps", "0.3"],
    ["oracle", "class-group", "--disc", "-4620"],
    ["oracle", "class-group", "--disc", "-3299"],
    *(["paper-example", which] for which in ("1", "2", "3", "4", "5", "intro")),
]
MODES = {"text": [], "json": ["--json"], "precision": ["--json", "--precision", "4"]}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _rung() -> dict:
    path = Path(scenario.__file__).parent / "scenarios" / "example1.json"
    data = json.loads(path.read_text(encoding="utf-8"))
    data.pop("T", None)
    data["tv"].pop("sigma_fixed", None)
    data["tv"]["x1_num"] = 0.03
    return data


def digests() -> list[tuple[str, str]]:
    """(sha256, name) for every output, in a fixed order."""
    out = [(_digest(scenario.dump_report(cli.run_packaged_example(name))), f"dump_report {name}")
           for name in PACKAGED]
    out.append((_digest(scenario.dump_report(scenario.run_scenario_data(_rung()))), "dump_report example1 x1_num=0.03"))
    for argv in COMMANDS:
        for mode, flags in MODES.items():
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli.main(argv + flags)
            out.append((_digest(f"{code}\n{stdout.getvalue()}"), f"{mode}: meanexp {' '.join(argv)}"))
    return out


if __name__ == "__main__":
    for digest, name in digests():
        print(f"{digest}  {name}")
