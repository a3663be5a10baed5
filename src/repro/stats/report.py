"""Plain-text report formatting for simulation results.

Produces the same rows/series the paper's figures report, as aligned text
tables (this reproduction is terminal-first; no plotting dependencies).
"""

from __future__ import annotations

from repro.isa.opclass import Unit
from repro.stats.counters import SimStats


def format_run(stats: SimStats, label: str = "") -> str:
    """One-run summary block."""
    lines = []
    if label:
        lines.append(f"== {label} ==")
    lines.append(f"cycles               {stats.cycles}")
    if stats.ff_jumps:
        lines.append(
            f"ff skipped           {stats.ff_cycles_skipped} cycles in "
            f"{stats.ff_jumps} jumps "
            f"({stats.ff_cycles_skipped / stats.cycles * 100:.1f}% of cycles)"
        )
    lines.append(f"committed            {stats.committed}")
    lines.append(f"IPC                  {stats.ipc:.3f}")
    lines.append(f"load miss ratio      {stats.load_miss_ratio * 100:.1f}%")
    lines.append(f"store miss ratio     {stats.store_miss_ratio * 100:.1f}%")
    lines.append(f"perceived FP lat     {stats.perceived_fp_latency:.2f} cyc")
    lines.append(f"perceived INT lat    {stats.perceived_int_latency:.2f} cyc")
    lines.append(f"bus utilization      {stats.bus_utilization * 100:.1f}%")
    lines.append(
        f"memory traffic       {stats.line_fills} fills, "
        f"{stats.writebacks} writebacks, "
        f"{stats.blocked_requests} blocked, "
        f"{stats.mshr_alloc_failures} MSHR-full"
    )
    for name, row in stats.level_stats.items():
        line = (
            f"{name + ' level':<21}{row.get('hits', 0)} hits, "
            f"{row.get('misses', 0)} misses "
            f"({stats.level_miss_rate(name) * 100:.1f}% of fills), "
            f"{row.get('writebacks', 0)} writebacks"
        )
        if row.get("mshr_failures"):
            line += f", {row['mshr_failures']} MSHR-full"
        lines.append(line)
    if stats.prefetch_fills or stats.prefetch_dropped:
        lines.append(
            f"prefetch             {stats.prefetch_fills} fills, "
            f"{stats.prefetch_hits} useful "
            f"({stats.prefetch_coverage * 100:.0f}% coverage), "
            f"{stats.prefetch_dropped} dropped"
        )
    lines.append(f"mispredict rate      {stats.mispredict_rate * 100:.2f}%")
    lines.append(f"average slip         {stats.average_slip:.1f} instrs")
    for unit in (Unit.AP, Unit.EP):
        frac = stats.slot_fractions(unit)
        merged_wp_idle = frac["wrong_path"] + frac["idle"]
        lines.append(
            f"{unit.name} slots: useful {frac['useful'] * 100:5.1f}%  "
            f"wait-mem {frac['wait_mem'] * 100:5.1f}%  "
            f"wait-FU {frac['wait_fu'] * 100:5.1f}%  "
            f"other {frac['other'] * 100:5.1f}%  "
            f"wrong-path/idle {merged_wp_idle * 100:5.1f}%"
        )
    return "\n".join(lines)


def format_table(
    headers: list[str],
    rows: list[list],
    title: str = "",
    float_fmt: str = "{:.2f}",
) -> str:
    """Render an aligned text table."""
    def fmt(v):
        if isinstance(v, float):
            return float_fmt.format(v)
        return str(v)

    cells = [[fmt(v) for v in row] for row in rows]
    widths = [
        max(len(headers[c]), *(len(r[c]) for r in cells)) if cells else len(headers[c])
        for c in range(len(headers))
    ]
    out = []
    if title:
        out.append(title)
    out.append("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    out.append("  ".join("-" * w for w in widths))
    for r in cells:
        out.append("  ".join(v.rjust(w) for v, w in zip(r, widths)))
    return "\n".join(out)
