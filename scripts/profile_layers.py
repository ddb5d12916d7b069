#!/usr/bin/env python3
"""Sums CATT_PROFILE launch lines per kernel into a layer table.

    CATT_PROFILE=1 build/bench/fig9_factor_sweep 2> fig9_profile.log
    scripts/profile_layers.py fig9_profile.log [more.log ...]

Reads every `[profile] kernel=... trace_gen_ms=...` line (other profile
lines are skipped) and prints, per kernel and in total: launches, trace
generation, its symbolize and render parts, VM time (trace generation
minus symbolize minus render), timing, warps rendered/executed and
patch events (memory events re-rendered per block because their block
delta is not line-aligned; "-" when the log predates the counter). Times
are in milliseconds. Reads stdin when no file is given.
"""
import re
import sys
from collections import OrderedDict

FIELD = re.compile(r"(\w+)=(\S+)")
COLUMNS = ("launches", "trace_gen_ms", "symbolize_ms", "render_ms", "vm_ms",
           "timing_ms", "warps_rendered", "warps_executed", "patch_events")


def parse(lines):
    """Returns {kernel: {column: sum}} in first-seen kernel order."""
    rows = OrderedDict()
    for line in lines:
        at = line.find("[profile] kernel=")
        if at < 0 or "trace_gen_ms=" not in line:
            continue
        f = dict(FIELD.findall(line[at:]))
        row = rows.setdefault(f["kernel"], {c: 0.0 for c in COLUMNS})
        gen = float(f["trace_gen_ms"])
        sym = float(f.get("symbolize_us", 0)) / 1000.0
        ren = float(f.get("render_us", 0)) / 1000.0
        row["launches"] += 1
        row["trace_gen_ms"] += gen
        row["symbolize_ms"] += sym
        row["render_ms"] += ren
        row["vm_ms"] += gen - sym - ren
        row["timing_ms"] += float(f["timing_ms"])
        row["warps_rendered"] += int(f.get("warps_rendered", 0))
        row["warps_executed"] += int(f.get("warps_executed", 0))
        if "patch_events" in f and row["patch_events"] is not None:
            row["patch_events"] += int(f["patch_events"])
        else:
            row["patch_events"] = None
    return rows


def fmt(col, v):
    if v is None:
        return "-"
    return "%.1f" % v if col.endswith("_ms") else "%d" % v


def main(argv):
    lines = []
    if len(argv) > 1:
        for path in argv[1:]:
            with open(path, errors="replace") as fh:
                lines.extend(fh)
    else:
        lines = sys.stdin.readlines()
    rows = parse(lines)
    if not rows:
        print("profile_layers: no CATT_PROFILE launch lines found", file=sys.stderr)
        return 1
    total = {c: 0.0 for c in COLUMNS}
    for row in rows.values():
        for c in COLUMNS:
            total[c] = None if total[c] is None or row[c] is None else total[c] + row[c]
    order = sorted(rows, key=lambda k: -(rows[k]["trace_gen_ms"] + rows[k]["timing_ms"]))
    table = [("kernel",) + COLUMNS]
    table += [(k,) + tuple(fmt(c, rows[k][c]) for c in COLUMNS) for k in order]
    table.append(("TOTAL",) + tuple(fmt(c, total[c]) for c in COLUMNS))
    widths = [max(len(r[i]) for r in table) for i in range(len(table[0]))]
    for r in table:
        print("  ".join(r[0].ljust(widths[0]) if i == 0 else r[i].rjust(widths[i])
                        for i in range(len(r))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
