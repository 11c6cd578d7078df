"""Capture one op's outputs and compare them with a recorded reference.

Outputs are compared token by token: text must match exactly, integers
(policies, pass counts, row and certificate counts, seeds) must match
exactly, and floats must agree within the acceptance suite's 1e-6 (relative
to max(1, |value|)) plus the resolution the number was printed at.  The
measured ``wallclock_ms`` column of the experiment CSV is dropped first.
"""

from __future__ import annotations

import csv
import gzip
import io
import json
import re
from pathlib import Path

FLOAT_TOL = 1e-6

_NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")


def _drop_csv_column(text: str, column: str) -> str:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or column not in rows[0]:
        return text
    i = rows[0].index(column)
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(r[:i] + r[i + 1:] for r in rows)
    return out.getvalue()


def _report_summary(text: str) -> str:
    """The certificate report minus its per-certificate list, which repeats
    the CSV rows."""
    doc = json.loads(text)
    doc.pop("certificates", None)
    return json.dumps(doc, sort_keys=True)


_NORMALIZERS = {
    "experiment.csv": lambda text: _drop_csv_column(text, "wallclock_ms"),
    "certificates.json": _report_summary,
}


def capture(rc, stdout: str, out_dir: str | None, outputs, replacements) -> dict:
    """One op's observable result, with run-specific paths replaced by
    placeholders so it compares across checkouts."""

    def scrub(text: str) -> str:
        for path, token in replacements:
            text = text.replace(path, token)
        return text

    files = {}
    for name in outputs:
        path = Path(out_dir) / name
        text = path.read_text() if path.exists() else None
        if text is not None and name in _NORMALIZERS:
            text = _NORMALIZERS[name](text)
        files[name] = None if text is None else scrub(text)
    return {"rc": rc, "stdout": scrub(stdout), "files": files}


def _is_float(token: str) -> bool:
    return any(c in token for c in ".eE")


def _resolution(token: str) -> float:
    mantissa = re.split("[eE]", token)[0]
    if "." not in mantissa:
        return 0.0
    decimals = len(mantissa.split(".")[1])
    exponent = int(re.split("[eE]", token)[1]) if re.search("[eE]", token) else 0
    return 10.0 ** (exponent - decimals)


def text_mismatch(got: str | None, want: str | None) -> str | None:
    """None when the texts agree under the rules above, else a description
    of the first difference."""
    if got is None or want is None:
        return None if got is want else f"missing output (got {got is not None})"
    got_text, want_text = _NUMBER.split(got), _NUMBER.split(want)
    got_nums, want_nums = _NUMBER.findall(got), _NUMBER.findall(want)
    if got_text != want_text or len(got_nums) != len(want_nums):
        return "text differs"
    for g, w in zip(got_nums, want_nums):
        if _is_float(g) or _is_float(w):
            a, b = float(g), float(w)
            tol = FLOAT_TOL * max(1.0, abs(a), abs(b)) + _resolution(g) + _resolution(w)
            if not abs(a - b) <= tol:
                return f"float {g} != {w}"
        elif int(g) != int(w):
            return f"integer {g} != {w}"
    return None


def mismatch(got: dict, want: dict) -> str | None:
    """None when an op's captured result matches its reference."""
    if got["rc"] != want["rc"]:
        return f"exit code {got['rc']} != {want['rc']}"
    problem = text_mismatch(got["stdout"], want["stdout"])
    if problem:
        return f"stdout: {problem}"
    for name, text in want["files"].items():
        problem = text_mismatch(got["files"].get(name), text)
        if problem:
            return f"{name}: {problem}"
    return None


def load_refs(path: Path) -> dict:
    with gzip.open(path, "rt") as fh:
        return json.load(fh)


def save_refs(path: Path, refs: dict) -> None:
    payload = json.dumps(refs, sort_keys=True, indent=0).encode()
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
        fh.write(payload)
