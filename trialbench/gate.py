"""Correctness gate: the checks a run must pass before its numbers count.

Every function returns a list of human-readable violations (empty when the
rows pass), so the runner can report all of them at once and the tests can
assert on each rule separately.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Iterable, List, Sequence

from workloads import accuracy_floor

#: the simulated outcome of a trial; serial and batched rows must agree on
#: all of them, and repeats of one seed must reproduce them exactly
SIMULATED_FIELDS = ("rounds", "bits_sent", "accuracy", "correct_entries",
                    "total_entries", "entries_corrupted")

#: the fields the per-repeat digest covers
DIGEST_FIELDS = ("hash", "rounds", "bits_sent", "correct_entries",
                 "entries_corrupted")


def row_failure(row: Dict) -> str:
    """Why ``row`` counts as a failed trial, or ``""`` when it passed."""
    label = f"{row['trial']['protocol']}/{row['trial']['adversary']} " \
            f"{row['hash']}"
    if row.get("status") != "ok":
        return f"{label}: status {row.get('status')!r} " \
               f"({row.get('reason', 'no reason')})"
    if "fallback" in row:
        return f"{label}: fallback row ({row['fallback']})"
    floor = accuracy_floor(row["trial"]["protocol"])
    if row["accuracy"] < floor:
        return f"{label}: accuracy {row['accuracy']} below floor {floor}"
    return ""


def check_rows(rows: Iterable[Dict]) -> List[str]:
    """Status, fallback marker and accuracy floor of every trial row."""
    return [problem for problem in map(row_failure, rows) if problem]


def check_adversary_armed(rows: Sequence[Dict]) -> List[str]:
    """Every adversarial cell corrupted at least one entry on average; a
    silently disarmed adversary would make the run easier, not faster."""
    corrupted: Dict[tuple, List[int]] = {}
    for row in rows:
        trial = row["trial"]
        if trial["adversary"] == "null" or row.get("status") != "ok":
            continue
        cell = (trial["protocol"], trial["adversary"], trial["n"],
                trial["alpha"])
        corrupted.setdefault(cell, []).append(row["entries_corrupted"])
    return [f"cell {cell}: adversary corrupted nothing"
            for cell, counts in corrupted.items() if sum(counts) <= 0]


def digest(rows: Iterable[Dict]) -> str:
    """Order-independent digest of the simulated outcome of a repeat."""
    items = sorted(tuple(row.get(name) for name in DIGEST_FIELDS)
                   for row in rows)
    blob = json.dumps(items, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def check_digests(digests: Sequence[str]) -> List[str]:
    """All repeats of one seed must reproduce the same digest."""
    if len(set(digests)) > 1:
        return [f"digest differs across repeats of one seed: {list(digests)}"]
    return []


def check_parity(batched: Dict, serial: Dict) -> List[str]:
    """A vmap row and its serial re-run agree on every simulated field."""
    diffs = [f"{name}: vmap {batched.get(name)!r} != serial "
             f"{serial.get(name)!r}"
             for name in SIMULATED_FIELDS
             if batched.get(name) != serial.get(name)]
    if serial.get("status") != batched.get("status"):
        diffs.insert(0, f"status: vmap {batched.get('status')!r} != serial "
                        f"{serial.get('status')!r}")
    if diffs:
        return [f"serial/vmap parity {batched['hash']}: " + "; ".join(diffs)]
    return []
