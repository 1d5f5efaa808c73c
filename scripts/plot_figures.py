#!/usr/bin/env python3
"""Replot the paper figures from bench CSV output.

Usage:
    mkdir -p out && CANB_CSV_DIR=out ./build/bench/fig2_allpairs_replication
    CANB_CSV_DIR=out ./build/bench/fig6_cutoff_replication
    python3 scripts/plot_figures.py out

Produces one stacked-bar PNG per panel CSV (matplotlib required), in the
style of the paper's Figures 2 and 6: execution time per timestep broken
into Computation / Broadcast / Skew / Shift / Reduce / Re-assign, one bar
per replication factor.

BENCH_*.json files in the directory are also summarized. They are the
versioned layout written by obs::BenchJsonWriter ({"schema_version": N,
"manifest": {...}, "rows": [...]}, N >= 2).
"""
import csv
import json
import sys
from pathlib import Path

PHASES = ["compute", "bcast", "skew", "shift", "reduce", "reassign"]
COLORS = {
    "compute": "#4878d0",
    "bcast": "#ee854a",
    "skew": "#6acc64",
    "shift": "#d65f5f",
    "reduce": "#956cb4",
    "reassign": "#8c613c",
}


def plot_panel(csv_path: Path, out_dir: Path) -> None:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    with open(csv_path) as f:
        rows = list(csv.DictReader(f))
    if not rows:
        print(f"  {csv_path.name}: empty, skipped")
        return

    labels = [r["label"] for r in rows]
    fig, ax = plt.subplots(figsize=(0.9 + 0.7 * len(rows), 3.6))
    bottom = [0.0] * len(rows)
    for phase in PHASES:
        vals = [float(r.get(phase, 0) or 0) for r in rows]
        if not any(vals):
            continue
        ax.bar(labels, vals, bottom=bottom, label=phase, color=COLORS[phase], width=0.7)
        bottom = [b + v for b, v in zip(bottom, vals)]
    ax.set_ylabel("Execution time per timestep (s)")
    ax.set_xlabel("Replication factor")
    ax.set_title(csv_path.stem)
    ax.legend(fontsize=8)
    ax.margins(y=0.1)
    plt.xticks(rotation=45, ha="right", fontsize=8)
    plt.tight_layout()
    out = out_dir / f"{csv_path.stem}.png"
    plt.savefig(out, dpi=140)
    plt.close(fig)
    print(f"  {out}")


def load_bench(path: Path):
    """Loads a bench JSON file written by obs::BenchJsonWriter.

    Returns (meta, rows): meta has "bench", "unit", "schema_version", and
    "manifest" keys; rows is the flat list of result dicts.
    """
    with open(path) as f:
        doc = json.load(f)
    meta = {
        "bench": doc.get("bench", path.stem),
        "unit": doc.get("unit", ""),
        "schema_version": doc["schema_version"],
        "manifest": doc.get("manifest", {}),
    }
    return meta, doc.get("rows", [])


def summarize_bench(path: Path) -> None:
    meta, rows = load_bench(path)
    machine = meta["manifest"].get("machine", "")
    extra = f", machine={machine}" if machine else ""
    print(
        f"  {path.name}: {meta['bench']} v{meta['schema_version']}, "
        f"{len(rows)} rows in {meta['unit']}{extra}"
    )


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__)
        return 2
    csv_dir = Path(sys.argv[1])
    csvs = sorted(csv_dir.glob("fig*.csv"))
    benches = sorted(csv_dir.glob("BENCH_*.json"))
    if not csvs and not benches:
        print(f"no fig*.csv or BENCH_*.json files in {csv_dir}; "
              "run the benches with CANB_CSV_DIR set")
        return 1
    if benches:
        print(f"found {len(benches)} bench result files:")
        for path in benches:
            summarize_bench(path)
    if csvs:
        print(f"plotting {len(csvs)} panels:")
        for path in csvs:
            plot_panel(path, csv_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
