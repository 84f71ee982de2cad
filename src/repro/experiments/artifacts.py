"""Artifact persistence: write reproduced figures/tables to disk.

``repro reproduce-all`` persists every
:class:`~repro.experiments.figures.FigureOutput` as a text rendering plus
a machine-readable CSV under ``results/reproduce/figures/``, so runs
leave a reviewable record — the shape a downstream user expects from an
experiments repository.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import List, Union

from repro.experiments.figures import FigureOutput


def _flatten(row: dict) -> dict:
    """CSV cells must be scalars; nested dicts become JSON strings."""
    out = {}
    for key, value in row.items():
        if isinstance(value, (dict, list, tuple)):
            out[key] = json.dumps(value, sort_keys=True)
        else:
            out[key] = value
    return out


def rows_to_csv(rows: List[dict]) -> str:
    """Render figure rows as CSV (column union across rows, in first-seen
    order)."""
    if not rows:
        return ""
    fields: List[str] = []
    for row in rows:
        for key in row:
            if key not in fields:
                fields.append(key)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields)
    writer.writeheader()
    for row in rows:
        writer.writerow(_flatten(row))
    return buf.getvalue()


def write_figure(figure: FigureOutput, out_dir: Union[str, Path]) -> List[Path]:
    """Persist one figure as ``<name>.txt`` and ``<name>.csv``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    txt_path = out / f"{figure.name}.txt"
    txt_path.write_text(f"{figure.title}\n\n{figure.text}\n", encoding="utf-8")
    written = [txt_path]
    csv_text = rows_to_csv(figure.rows)
    if csv_text:
        csv_path = out / f"{figure.name}.csv"
        csv_path.write_text(csv_text, encoding="utf-8")
        written.append(csv_path)
    return written
