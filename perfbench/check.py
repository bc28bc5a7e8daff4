"""Output checker: every cell a workload should write, judged one by one.

A cell is one bound at one n in one table.  It fails when

* its invocation exited non-zero, or the table, row or column is missing;
* a non-empty value is NaN or outside [0, 1];
* it is an exact-oracle value outside (0, 1];
* it is an oracle value at constant eps that exceeds the previous valid
  oracle value of the table (beta_n(eps) cannot grow with n);
* it is a Renyi bound on a row whose oracle cell is flagged valid, is itself
  flagged valid, and lies on the wrong side of the oracle by more than
  SOUND_RTOL: converses (renyi_converse, phase_converse) above it,
  achievability bounds (achievability, phase_achievability) below it;
* it is a converse and an achievability bound of the same row, both flagged
  valid, with the converse above the achievability bound by more than
  SOUND_RTOL (both cells fail; this check needs no oracle and no reference);
* it has a reference value and differs from it by more than REF_RTOL
  relative, or is empty where the reference is not (or the reverse).

Fano, Hellinger, Berry-Esseen and the smoothing bound get the range check
only: their literal forms can exceed the exact optimum by design.

The linear-space exact oracles (beta formed as 1 - P1(reject) from n + 1
terms) return rounding noise once beta is below |beta| <= n * ORACLE_FLOOR.
A failure is *known*, counted as failed but told apart from the new
failures that make the run incorrect, only when

* every check the cell fails involves an oracle value within that floor, and
* there is evidence that the true beta of the row is below the floor: the
  reference marks the row's oracle as FLOOR (it was within the floor at
  capture), or, where the reference has no entry for it, an oracle value in
  (0, 1] already checked for the same pair and eps at a smaller n is itself
  within the row's floor (beta_n(eps) cannot grow with n).  Such values are
  shared between the tables of a pass through ``seen``.

So an oracle that regresses to 0 where the reference holds a real value, or
on rows with no evidence of a tiny beta, makes the run incorrect.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field

SOUND_RTOL = 1.0e-9
REF_RTOL = 1.0e-6
ORACLE_FLOOR = 1.0e-14

# Reference entry of an oracle cell that was within the rounding floor at capture.
FLOOR = "floor"

LOWER = ("renyi_converse", "phase_converse")
UPPER = ("achievability", "phase_achievability")


@dataclass
class TableResult:
    """What the checker found in one table."""

    attempted: int = 0
    empty: int = 0
    failed: dict = field(default_factory=dict)  # (n, bound) -> which check failed
    details: dict = field(default_factory=dict)  # (n, bound) -> the values involved
    known: set = field(default_factory=set)  # (n, bound) failing only by the known floor defect

    @property
    def new_failures(self) -> int:
        return len(set(self.failed) - self.known)


def read_table(path: str) -> dict | None:
    """Rows of a CSV keyed by n, as {n: {column: text}}; None if unreadable."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return {int(r["n"]): r for r in csv.DictReader(fh)}
    except (OSError, ValueError, KeyError, csv.Error):
        return None


def _value(row: dict | None, bound: str):
    """(present, value-or-None, valid-flag) of one cell in a parsed row."""
    if row is None or f"{bound}_value" not in row:
        return False, None, False
    text = row[f"{bound}_value"]
    if text is None:
        return False, None, False
    if text == "":
        return True, None, row.get(f"{bound}_valid") == "true"
    try:
        return True, float(text), row.get(f"{bound}_valid") == "true"
    except ValueError:
        return True, math.nan, False


def check_table(
    table, path: str, exit_ok: bool, reference: dict | None = None, seen: dict | None = None
) -> TableResult:
    """Check one expected table against the CSV at ``path``.

    ``reference`` maps bound -> list of reference entries aligned with
    ``table.ns``: a float, "" for an empty cell, FLOOR for an oracle value
    within the rounding floor at capture, or None for no reference.
    ``seen`` maps (pair, eps text) -> [(n, oracle value in (0, 1])] and is
    extended with this table's oracle values.
    """
    res = TableResult(attempted=len(table.ns) * len(table.bounds))
    rows = read_table(path) if exit_ok else None
    if rows is None:
        reason = "exit" if not exit_ok else "missing table"
        res.failed = {(n, b): reason for n in table.ns for b in table.bounds}
        return res

    hard = set()  # cells with a failure the rounding floor does not explain
    below_floor = False  # evidence that the current row's true beta is below the floor

    def fail(n, b, reason, detail="", oracle=None):
        if (n, b) not in res.failed:
            res.failed[(n, b)] = reason
            res.details[(n, b)] = detail
        if below_floor and oracle is not None and abs(oracle) <= n * ORACLE_FLOOR:
            res.known.add((n, b))
        else:
            hard.add((n, b))

    seen = {} if seen is None else seen
    prev_oracle = None
    for i, n in enumerate(table.ns):
        row = rows.get(n)
        _, oracle, o_valid = _value(row, "np_exact") if "np_exact" in table.bounds else (False, None, False)
        key = (table.pair, row.get("eps") if row else None)
        ref_oracle = reference["np_exact"][i] if reference and "np_exact" in reference else None
        if ref_oracle is not None:
            below_floor = ref_oracle == FLOOR
        elif oracle is not None and abs(oracle) <= n * ORACLE_FLOOR:
            below_floor = any(m < n and v <= n * ORACLE_FLOOR for m, v in seen.get(key, ()))
        else:
            below_floor = False
        valid_values = {}
        for b in table.bounds:
            present, v, valid = _value(row, b)
            if not present:
                fail(n, b, "missing cell")
                continue
            if v is None:
                res.empty += 1
            elif math.isnan(v) or not 0.0 <= v <= 1.0:
                fail(n, b, "not a probability", repr(v), oracle=v if b == "np_exact" else None)
            ref = reference[b][i] if reference is not None and b in reference else None
            if ref is not None and ref != FLOOR:
                if (ref == "") != (v is None) or (
                    v is not None and ref != "" and not abs(v - ref) <= REF_RTOL * abs(ref)
                ):
                    fail(n, b, "differs from reference", f"{v!r} vs {ref!r}")
            if v is None or math.isnan(v):
                continue
            if valid:
                valid_values[b] = v
            if b == "np_exact":
                if not 0.0 < v <= 1.0:
                    fail(n, b, "oracle beta outside (0, 1]", repr(v), oracle=v)
                    continue
                seen.setdefault(key, []).append((n, v))
                if table.regime == "constant":
                    if prev_oracle is not None and v > prev_oracle * (1.0 + SOUND_RTOL):
                        fail(n, b, "oracle beta grew with n", f"{prev_oracle!r} to {v!r}", oracle=v)
                    prev_oracle = v
            elif o_valid and oracle is not None and valid:
                if b in LOWER and v > oracle * (1.0 + SOUND_RTOL):
                    fail(n, b, "converse above oracle", f"{v!r} > {oracle!r}", oracle=oracle)
                elif b in UPPER and v < oracle * (1.0 - SOUND_RTOL):
                    fail(n, b, "achievability below oracle", f"{v!r} < {oracle!r}", oracle=oracle)
        for lo in LOWER:
            for up in UPPER:
                if lo in valid_values and up in valid_values and (
                    valid_values[lo] > valid_values[up] * (1.0 + SOUND_RTOL)
                ):
                    detail = f"{lo} {valid_values[lo]!r} > {up} {valid_values[up]!r}"
                    fail(n, lo, "converse above achievability", detail)
                    fail(n, up, "converse above achievability", detail)
    res.known -= hard
    return res


def check_invocation(inv, outdir: str, exit_ok: bool, references: dict, seen: dict) -> list[TableResult]:
    """Check every table of one invocation written under ``outdir``; ``seen`` as in check_table."""
    return [
        check_table(t, os.path.join(outdir, t.name + ".csv"), exit_ok, reference_for(references, t), seen)
        for t in inv.tables
    ]


def reference_for(references: dict, table) -> dict | None:
    """The reference columns of ``table`` if one was captured for these inputs."""
    ref = references.get(table.name)
    if ref is None or ref["pair"] != table.pair or tuple(ref["ns"]) != tuple(table.ns):
        return None
    return ref["values"]


def reference_entries(table, path: str) -> dict:
    """Reference columns of the table at ``path``.

    A cell that fails any check gets no reference (None); an oracle value
    within the rounding floor gets the FLOOR marker instead of its value.
    """
    res = check_table(table, path, True)
    rows = read_table(path)
    values = {}
    for b in table.bounds:
        col = []
        for n in table.ns:
            present, v, _ = _value(rows.get(n), b)
            if b == "np_exact" and v is not None and abs(v) <= n * ORACLE_FLOOR:
                col.append(FLOOR)
            elif (n, b) in res.failed or not present:
                col.append(None)
            else:
                col.append("" if v is None else v)
        values[b] = col
    return {"pair": table.pair, "ns": list(table.ns), "values": values}
