"""Deterministic CSV/JSON writers and the output manifest.

CSV files carry one header line and full-precision values (17 significant
digits); JSON is written with sorted keys. Identical inputs therefore
produce byte-identical files, and every emitted file is recorded in a
manifest with the SHA-256 checksum of the bytes written.
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
        rows = zip(*[np.asarray(col, dtype=float) for col in columns])
        lines = [",".join(header)]
        lines.extend(",".join(f"{val:.17g}" for val in row) for row in rows)
        return self._write(name, "\n".join(lines) + "\n")

    def write_json(self, name: str, payload) -> Path:
        return self._write(name, json.dumps(payload, indent=2, sort_keys=True) + "\n")

    def finalize_manifest(self) -> Path:
        entries = [{"path": name, "sha256": digest} for name, digest in sorted(self._digests.items())]
        path = self.out_dir / "manifest.json"
        path.write_text(
            json.dumps({"files": entries}, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        return path
