"""The artifact format every run and exporter writes.

CSV: one header line, comma-separated, LF line endings; strings as given,
booleans as 1/0, integers in full, every other number with 12 significant
digits. JSON: UTF-8, sorted keys, two-space indent, trailing newline.
"""
import json

import numpy as np


def _fmt(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.11e}"


def write_csv(path: str, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2, ensure_ascii=False)
        fh.write("\n")
