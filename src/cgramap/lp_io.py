"""LP-format export and the external solver bridge.

Variable names flatten the structured id with '!' separators, so
f!add0!pe_1_1.alu!0 is the placement var for op add0 on that unit.
Export is canonical: terms sorted by declaration index, fixed sign and
spacing rules, rows named r<i>_<tag>, lines wrapped below 200 columns.
Equal models therefore export byte-identical text. The bridge writes
that text, runs the solver and reads back a solution file by variable
name; nothing reads LP text back.
"""

from __future__ import annotations

import math
import shlex
import subprocess
import tempfile
import time
from pathlib import Path

from .ilp import VarId
from .solver import FEASIBLE, INFEASIBLE, TIMEOUT, SolveResult, check_assignment

_MAX_LINE = 200


class ExternalSolverError(Exception):
    pass


def var_name(var: VarId) -> str:
    parts = [var.cls]
    for part in var.idx:
        if isinstance(part, tuple):
            parts.extend(str(x) for x in part)
        else:
            parts.append(str(part))
    return "!".join(parts)


def parse_var_name(name: str) -> VarId:
    """Rebuild the structured id; the canonical f/e/p/y shapes regain
    their nested node keys."""
    parts = name.split("!")
    cls = parts[0]
    vals = tuple(int(p) if p.isdigit() else p for p in parts[1:])
    if cls == "f" and len(vals) == 3:
        return VarId("f", (vals[0], (vals[1], vals[2])))
    if cls == "e" and len(vals) == 6:
        return VarId("e", (vals[0], (vals[1], vals[2]),
                           vals[3], (vals[4], vals[5])))
    if cls == "p" and len(vals) == 5:
        return VarId("p", ((vals[0], vals[1]), (vals[2], vals[3]), vals[4]))
    if cls == "y" and len(vals) == 4:
        return VarId("y", ((vals[0], vals[1]), (vals[2], vals[3])))
    return VarId(cls, vals)


def _wrap(parts, indent=" ") -> list[str]:
    lines = []
    cur = indent
    for part in parts:
        if len(cur) + len(part) + 1 > _MAX_LINE and cur != indent:
            lines.append(cur)
            cur = indent
        cur += (" " if cur != indent else "") + part
    lines.append(cur)
    return lines


def _term_parts(terms, order) -> list[str]:
    parts = []
    for i, (coef, var) in enumerate(sorted(terms, key=lambda t: order[t[1]])):
        mag = f"{abs(coef)} " if abs(coef) != 1 else ""
        if i == 0:
            sign = "- " if coef < 0 else ""
        else:
            sign = "- " if coef < 0 else "+ "
        parts.append(f"{sign}{mag}{var_name(var)}")
    return parts


def export_lp(model) -> str:
    order = {v: i for i, v in enumerate(model.variables)}
    out = [f"\\ variant {getattr(model, 'variant', 'combined')}"]
    out.append("Minimize")
    obj = model.objective or ()
    parts = _term_parts(obj, order) if obj else []
    out.extend(_wrap(["obj:"] + parts))
    out.append("Subject To")
    for i, con in enumerate(model.constraints):
        parts = _term_parts(con.terms, order)
        parts.append(con.relation)
        parts.append(str(con.rhs))
        out.extend(_wrap([f"r{i}_{con.tag}:"] + parts))
    out.append("Binaries")
    out.extend(_wrap([var_name(v) for v in model.variables]))
    out.append("End")
    return "\n".join(out) + "\n"


def parse_solution(text: str):
    """Read '<name> <value>' lines; a lone 'infeasible' marks the verdict."""
    assignment = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) == 1 and fields[0].lower() == "infeasible":
            return None
        if len(fields) != 2:
            raise ExternalSolverError(f"unparsable solution line {raw!r}")
        try:
            value = float(fields[1])
        except ValueError:
            raise ExternalSolverError(f"bad value in line {raw!r}") from None
        if abs(value - round(value)) > 1e-6 or round(value) not in (0, 1):
            raise ExternalSolverError(f"non-binary value in line {raw!r}")
        assignment[parse_var_name(fields[0])] = int(round(value))
    return assignment


def solve_external(model, command: str, cfg) -> SolveResult:
    """Run a solver command with {lp} and {sol} placeholders and
    re-validate whatever it claims."""
    if "{lp}" not in command or "{sol}" not in command:
        raise ExternalSolverError("command needs {lp} and {sol} placeholders")
    t0 = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="cgramap_lp_") as tmp:
        lp_path = Path(tmp) / "model.lp"
        sol_path = Path(tmp) / "model.sol"
        lp_path.write_text(export_lp(model))
        argv = shlex.split(command.format(lp=lp_path, sol=sol_path))
        # subprocess takes None, not inf, for no limit
        timeout = None if math.isinf(cfg.time_limit) else cfg.time_limit
        try:
            proc = subprocess.run(argv, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            return SolveResult(TIMEOUT, None, 0, time.monotonic() - t0)
        except OSError as exc:
            raise ExternalSolverError(f"failed to launch: {exc}") from None
        if proc.returncode != 0:
            raise ExternalSolverError(
                f"solver exited {proc.returncode}: {proc.stderr.strip()[:200]}")
        if not sol_path.exists():
            raise ExternalSolverError("solver wrote no solution file")
        assignment = parse_solution(sol_path.read_text())
    wall = time.monotonic() - t0
    if assignment is None:
        return SolveResult(INFEASIBLE, None, 0, wall)
    full = {v: assignment.get(v, 0) for v in model.variables}
    extra = set(assignment) - set(model.variables)
    if extra:
        raise ExternalSolverError(
            f"solution names unknown variable {var_name(sorted(extra)[0])}")
    bad = check_assignment(model.constraints, full)
    if bad:
        raise ExternalSolverError(f"claimed solution violates {bad[0]}")
    return SolveResult(FEASIBLE, full, 0, wall)
