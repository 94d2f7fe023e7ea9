"""Load a JSON analysis report and save it again: `python roundtrip.py REPORT.json`.

Writes report_to_json(report_from_dict(json.loads(REPORT))) to stdout. The
functions are looked up on `roughcm.report` at call time, so the traced run
records them.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from roughcm import report


def roundtrip(path: str) -> str:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    return report.report_to_json(report.report_from_dict(data))


if __name__ == "__main__":
    sys.stdout.write(roundtrip(sys.argv[1]))
