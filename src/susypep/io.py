"""Deterministic CSV/JSON writers and the output manifest.

CSV files carry one header line and full-precision values (17 significant
digits); JSON is written with sorted keys. Identical inputs therefore
produce byte-identical files, and every emitted file is recorded in a
manifest with the SHA-256 checksum of the bytes written.

A CSV body is formatted in one pass: the columns are stacked into a table,
and a row template of ``%.17g`` fields is repeated once per row and applied
with a single ``%`` to every value of the table in row order. ``"%.17g" % x``
and ``f"{x:.17g}"`` call the same float formatter, so each value gets the
same bytes as a per-value f-string (``-0``, ``nan``, ``inf`` and subnormals
included), at a fraction of the interpreter work.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np


class OutputWriter:
    """Writes files and finalizes a manifest of their checksums."""

    def __init__(self, out_dir):
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self._digests: dict[str, str] = {}

    def _write(self, name: str, text: str) -> Path:
        data = text.encode("utf-8")
        path = self.out_dir / name
        path.write_bytes(data)
        self._digests[name] = hashlib.sha256(data).hexdigest()
        return path

    def write_csv(self, name: str, header: list[str], columns: list[np.ndarray]) -> Path:
        cols = [np.asarray(col, dtype=float) for col in columns]
        if not cols or len(header) != len(cols):
            raise ValueError(f"{name}: need one header name per column, "
                             f"got {len(header)} for {len(cols)}")
        shapes = [col.shape for col in cols]
        if cols[0].ndim != 1 or len(set(shapes)) != 1:
            raise ValueError(f"{name}: columns must be 1-D and of equal length, got shapes {shapes}")
        table = np.column_stack(cols)
        row = ",".join(["%.17g"] * len(cols)) + "\n"
        body = (row * len(table)) % tuple(table.ravel().tolist())
        return self._write(name, ",".join(header) + "\n" + body)

    def write_json(self, name: str, payload) -> Path:
        return self._write(name, json.dumps(payload, indent=2, sort_keys=True) + "\n")

    def finalize_manifest(self) -> Path:
        entries = [{"path": name, "sha256": digest} for name, digest in sorted(self._digests.items())]
        path = self.out_dir / "manifest.json"
        path.write_text(
            json.dumps({"files": entries}, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        return path
