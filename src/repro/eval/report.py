"""ASCII rendering of the paper's tables and figures."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.eval.categories import CategoryCoverage
from repro.eval.coverage import BIN_LABELS, BinCoverage
from repro.obs.metrics import STAGES

__all__ = [
    "render_figure1",
    "render_table1",
    "render_table2",
    "render_coverage_at_k",
    "render_metrics",
    "fmt_pct",
]


def fmt_pct(value: Optional[float]) -> str:
    if value is None:
        return "   - "
    return f"{100 * value:5.1f}%"


def render_figure1(
    series: Dict[str, List[BinCoverage]], title: str = "Figure 1"
) -> str:
    """Per-model coverage across human-proof token-length bins."""
    lines = [title, ""]
    header = f"{'model':28}" + "".join(f"{label:>8}" for label in BIN_LABELS)
    lines.append(header)
    lines.append("-" * len(header))
    for name, bins in series.items():
        cells = []
        for b in bins:
            cells.append(
                f"{fmt_pct(b.coverage):>8}" if b.total else f"{'—':>8}"
            )
        lines.append(f"{name:28}" + "".join(cells))
    # Bin populations, once.
    any_bins = next(iter(series.values()))
    lines.append(
        f"{'(n per bin)':28}"
        + "".join(f"{b.total:>8}" for b in any_bins)
    )
    return "\n".join(lines)


def render_table1(
    rows_by_model: Dict[str, List[CategoryCoverage]],
    title: str = "Table 1",
) -> str:
    lines = [title, ""]
    categories = [r.category for r in next(iter(rows_by_model.values()))]
    header = f"{'model':24}" + "".join(f"{c:>22}" for c in categories)
    lines.append(header)
    lines.append("-" * len(header))
    for model, rows in rows_by_model.items():
        cells = []
        for row in rows:
            cells.append(
                f"{fmt_pct(row.actual)} / {fmt_pct(row.expected):>7}".rjust(22)
            )
        lines.append(f"{model:24}" + "".join(cells))
    lines.append("(each cell: actual / expected coverage)")
    return "\n".join(lines)


def render_table2(rows: Sequence[dict], title: str = "Table 2") -> str:
    lines = [title, ""]
    header = (
        f"{'model':24}{'proved':>16}{'stuck':>16}{'fuelout':>16}"
        f"{'similarity':>16}{'length':>18}"
    )
    lines.append(header)
    lines.append("-" * len(header))

    def arrow_pct(pair) -> str:
        a, b = pair
        return f"{100 * a:4.1f}%->{100 * b:4.1f}%"

    def arrow_val(pair) -> str:
        a, b = pair
        if a is None or b is None:
            return "-"
        return f"{a:.3f}->{b:.3f}"

    def arrow_len(pair) -> str:
        a, b = pair
        if a is None or b is None:
            return "-"
        return f"{a:5.1f}%->{b:5.1f}%"

    for row in rows:
        lines.append(
            f"{row['model']:24}"
            f"{arrow_pct(row['proved']):>16}"
            f"{arrow_pct(row['stuck']):>16}"
            f"{arrow_pct(row['fuelout']):>16}"
            f"{arrow_val(row['similarity']):>16}"
            f"{arrow_len(row['length_pct']):>18}"
        )
    lines.append("(each cell: without hints -> with hints)")
    return "\n".join(lines)


def render_coverage_at_k(
    series: Dict[str, Dict[int, float]], title: str = "coverage@k"
) -> str:
    """Per-setting coverage@k table over sampled attempts.

    ``series`` maps a row label (e.g. ``"gpt-4o hints"``) to the
    ``{k: coverage}`` dict from
    :func:`repro.eval.coverage.coverage_at_k`.
    """
    lines = [title, ""]
    ks = sorted({k for cov in series.values() for k in cov})
    header = f"{'setting':28}" + "".join(f"{'@' + str(k):>10}" for k in ks)
    lines.append(header)
    lines.append("-" * len(header))
    for label, cov in series.items():
        cells = "".join(
            f"{fmt_pct(cov[k]):>10}" if k in cov else f"{'—':>10}"
            for k in ks
        )
        lines.append(f"{label:28}{cells}")
    return "\n".join(lines)


def render_metrics(snapshot: dict, title: str = "Instrumentation") -> str:
    """Per-stage timing + counter report from a ``Metrics`` snapshot.

    Stage rows carry span names, :data:`repro.obs.metrics.STAGES`
    first in tree order; a container's seconds include its children's."""
    lines = [title, ""]
    stages = snapshot.get("stages", {})
    if stages:
        header = f"{'stage':16}{'calls':>10}{'seconds':>12}{'ms/call':>12}"
        lines.append(header)
        lines.append("-" * len(header))
        ordered = [s for s in STAGES if s in stages] + sorted(
            s for s in stages if s not in STAGES
        )
        for stage in ordered:
            cell = stages[stage]
            calls = cell.get("calls", 0)
            seconds = cell.get("seconds", 0.0)
            per_call = 1000.0 * seconds / calls if calls else 0.0
            lines.append(
                f"{stage:16}{calls:>10}{seconds:>12.3f}{per_call:>12.2f}"
            )
    counters = snapshot.get("counters", {})
    verdicts = {
        name[len("verdict."):]: count
        for name, count in counters.items()
        if name.startswith("verdict.")
    }
    if verdicts:
        total = sum(verdicts.values())
        lines.append("")
        lines.append(f"{'verdict':16}{'count':>10}{'share':>12}")
        lines.append("-" * 38)
        for verdict in sorted(verdicts, key=verdicts.get, reverse=True):
            count = verdicts[verdict]
            lines.append(
                f"{verdict:16}{count:>10}{fmt_pct(count / total):>12}"
            )
    caches: Dict[str, Dict[str, int]] = {}
    for name, count in counters.items():
        if name.startswith("kernel.cache.") and name.count(".") == 3:
            _, _, cache_name, field = name.split(".")
            caches.setdefault(cache_name, {})[field] = count
    if caches:
        lines.append("")
        header = f"{'kernel cache':16}{'hits':>10}{'misses':>10}{'hit rate':>12}"
        lines.append(header)
        lines.append("-" * len(header))
        for cache_name in sorted(caches):
            cell = caches[cache_name]
            hits = cell.get("hits", 0)
            misses = cell.get("misses", 0)
            total = hits + misses
            rate = fmt_pct(hits / total) if total else fmt_pct(None)
            lines.append(
                f"{cache_name:16}{hits:>10}{misses:>10}{rate:>12}"
            )
    resilience = {
        name: count
        for name, count in sorted(counters.items())
        if name.startswith(("llm.", "executor.")) or name == "tasks.crashed"
    }
    if resilience:
        lines.append("")
        header = f"{'resilience':26}{'count':>10}"
        lines.append(header)
        lines.append("-" * len(header))
        for name, count in resilience.items():
            lines.append(f"{name:26}{count:>10}")
    other = {
        name: count
        for name, count in sorted(counters.items())
        if not name.startswith(("verdict.", "kernel.cache.", "llm.", "executor."))
        and name != "tasks.crashed"
    }
    if other:
        lines.append("")
        for name, count in other.items():
            lines.append(f"{name:26}{count:>10}")
    return "\n".join(lines)
