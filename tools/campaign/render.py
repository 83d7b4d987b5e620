#!/usr/bin/env python3
"""Prints the tables of a sweep campaign from its merged artifact.

    python3 tools/campaign/render.py CAMPAIGN_<name>.json [...]

Each committed spec under bench/specs/ has one layout here, chosen by the
artifact's "campaign" name: the Fig. 5/6 panels (one row per load, one
column per mode), the workload makespan panels (one row per workload kind)
and the headline, hotspot, threshold and system-size tables. Rows that an
overrides entry tells apart (workload kind, hotspot fraction, thresholds,
system size) are labelled from the point's "variant".

Tables are aligned like util::TablePrinter: each column is as wide as its
longest cell in bytes plus two, and a dash rule follows the header. Every
cell of a table must be exactly one point of the artifact; a campaign with
failed points, or with several seeds for one cell, is refused.

Exit status: 0 printed, 1 the campaign has failed points, 2 the artifact
cannot be rendered.
"""

import json
import sys


class RenderError(Exception):
    """The artifact has no layout or does not fit it."""


def fixed(value, digits):
    return f"{value:.{digits}f}"


def table(header, rows):
    widths = [max(len(cell.encode()) for cell in column) for column in zip(header, *rows)]

    def line(cells):
        return "".join(
            cell + " " * (width + 2 - len(cell.encode()))
            for cell, width in zip(cells, widths)) + "\n"

    rule = "-" * sum(width + 2 for width in widths) + "\n"
    return line(header) + rule + "".join(line(row) for row in rows)


def coordinates(point):
    """The point's identity: its sweep coordinates and its variant keys."""
    coords = {k: point.get(k) for k in ("pattern", "mode", "load", "seed")}
    coords.update(point.get("variant", {}))
    return coords


def axis(points, name):
    """Distinct values of one coordinate, in the artifact's (spec) order."""
    return list(dict.fromkeys(coordinates(p).get(name) for p in points))


def pick(points, where):
    """The one point whose coordinates match every entry of `where`."""
    found = [p for p in points
             if all(coordinates(p).get(k) == v for k, v in where.items())]
    if len(found) != 1:
        raise RenderError(f"{len(found)} points match {where}, expected 1")
    return found[0]


def figure(name):
    panels = [
        ("accepted throughput (fraction of N_c)", "throughput_xNc"),
        ("average latency (cycles)", "latency_avg_cycles"),
        ("active optical power (mW) — the paper's power panel", "active_power_avg_mw"),
        ("total optical power incl. lit-idle lanes (mW)", "power_avg_mw"),
    ]

    def render(points):
        (pattern,) = axis(points, "pattern")
        modes = axis(points, "mode")
        out = ""
        for title, metric in panels:
            rows = [[fixed(load, 1)] +
                    [fixed(pick(points, {"mode": m, "load": load})[metric], 3) for m in modes]
                    for load in axis(points, "load")]
            out += f"\n== {name} ({pattern}): {title} ==\n"
            out += table(["load(xN_c)"] + modes, rows)
        return out

    return render


def workload(name):
    panels = [
        ("makespan (cycles to completion; horizon if incomplete)", "makespan_cycles"),
        ("worst phase (cycles)", "worst_phase_cycles"),
        ("accepted throughput (fraction of N_c over the makespan)", "throughput_xNc"),
        ("active optical power (mW)", "active_power_avg_mw"),
    ]

    def render(points):
        modes = axis(points, "mode")
        out = ""
        for title, metric in panels:
            rows = [[kind] +
                    [fixed(pick(points, {"mode": m, "workload.kind": kind})[metric], 3)
                     for m in modes]
                    for kind in sorted(axis(points, "workload.kind"))]
            out += f"\n== {name}: {title} ==\n"
            out += table(["workload"] + modes, rows)
        return out

    return render


def headline(points):
    rows = []
    for pattern in sorted(axis(points, "pattern")):
        np_b = pick(points, {"pattern": pattern, "mode": "NP-B"})
        p_b = pick(points, {"pattern": pattern, "mode": "P-B"})
        thru_delta = 100.0 * (p_b["throughput_xNc"] / np_b["throughput_xNc"] - 1.0)
        saved = 100.0 * (1.0 - p_b["power_avg_mw"] / np_b["power_avg_mw"])
        rows.append([pattern, fixed(np_b["throughput_xNc"], 3),
                     fixed(p_b["throughput_xNc"], 3), fixed(thru_delta, 1) + "%",
                     fixed(np_b["power_avg_mw"], 0), fixed(p_b["power_avg_mw"], 0),
                     fixed(saved, 1) + "%"])
    return ("\n== Headline claim (abstract): P-B vs NP-B at 0.5 x N_c ==\n" +
            table(["pattern", "NP-B thru", "P-B thru", "thru delta", "NP-B mW", "P-B mW",
                   "power saved"], rows) +
            "(paper claims 25%-50% power saved at <5% throughput loss)\n")


def hotspot(points):
    modes = axis(points, "mode")
    rows = []
    for fraction in axis(points, "workload.hotspot_fraction"):
        cells = [pick(points, {"mode": m, "workload.hotspot_fraction": fraction})
                 for m in modes]
        rows.append([fixed(fraction, 2)] +
                    [fixed(p["throughput_xNc"], 3) + " | " + fixed(p["active_power_avg_mw"], 0)
                     for p in cells])
    return ("\n== Extension: hotspot traffic @ 0.4 N_c (accepted xN_c | active mW) ==\n" +
            table(["hotspot fraction"] + modes, rows) +
            "(the receive-side bottleneck at the hot board limits the DBR gain:\n"
            " lanes can be added but the hot node's ejection channel cannot)\n")


def thresholds(points):
    keys = ("reconfig.l_min", "reconfig.l_max", "reconfig.b_max")
    rows = []
    for values in sorted({tuple(p["variant"][k] for k in keys) for p in points}):
        point = pick(points, dict(zip(keys, values)))
        rows.append([fixed(v, 2) for v in values] +
                    [fixed(point["throughput_xNc"], 3), fixed(point["latency_avg_cycles"], 1),
                     fixed(point["power_avg_mw"], 0)])
    return ("\n== Ablation: DPM/DBR thresholds (P-B, uniform @ 0.5 N_c) ==\n" +
            table(["L_min", "L_max", "B_max", "thru (xN_c)", "latency (cyc)", "power (mW)"],
                  rows) +
            "(paper operating point: L_min 0.7, L_max 0.9, B_max 0.3)\n")


def scale(points):
    rows = []
    for boards, nodes in {(p["variant"]["system.boards"], p["variant"]["system.nodes_per_board"])
                          for p in points}:
        def at(pattern, mode):
            return pick(points, {"pattern": pattern, "mode": mode, "system.boards": boards,
                                 "system.nodes_per_board": nodes})

        c_base, c_reconf = at("complement", "NP-NB"), at("complement", "NP-B")
        u_base, u_pb = at("uniform", "NP-NB"), at("uniform", "P-B")
        gain = (c_reconf["throughput_xNc"] / c_base["throughput_xNc"]
                if c_base["throughput_xNc"] > 0 else 0.0)
        saved = 1.0 - u_pb["power_avg_mw"] / u_base["power_avg_mw"]
        kept = u_pb["throughput_xNc"] / u_base["throughput_xNc"]
        rows.append([f"R(1,{boards},{nodes})={boards * nodes}", fixed(gain, 2) + "x",
                     fixed(100 * saved, 1) + "%", fixed(100 * kept, 1) + "%"])
    # Rows sort by label text (R(1,16,4) first), the order this table has
    # always printed in.
    return ("\n== Ablation: system size R(1,B,D) @ 0.5 N_c ==\n" +
            table(["system", "complement NP-B gain", "uniform P-B power saved",
                   "uniform P-B thru kept"], sorted(rows)))


LAYOUTS = {
    "figure_5_uniform": figure("Figure 5 / uniform"),
    "figure_5_complement": figure("Figure 5 / complement"),
    "figure_6_butterfly": figure("Figure 6 / butterfly"),
    "figure_6_shuffle": figure("Figure 6 / perfect shuffle"),
    "hpc_kernels": workload("HPC kernels"),
    "ml_collectives": workload("ML collectives"),
    "headline_claim": headline,
    "hotspot": hotspot,
    "ablation_thresholds": thresholds,
    "ablation_scale": scale,
}


def render(doc):
    """The tables of one merged campaign artifact, as text."""
    name = doc.get("campaign")
    if name not in LAYOUTS:
        raise RenderError(f"no layout for campaign {name!r}")
    return LAYOUTS[name](doc["points"])


def main(argv=None):
    paths = sys.argv[1:] if argv is None else argv
    if not paths:
        print("usage: render.py CAMPAIGN_<name>.json [...]", file=sys.stderr)
        return 2
    for path in paths:
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            if doc.get("points_failed"):
                print(f"render: {path} has {doc['points_failed']} failed point(s)",
                      file=sys.stderr)
                return 1
            text = render(doc)
        except (OSError, ValueError, KeyError, RenderError) as exc:
            print(f"render: {path}: {exc}", file=sys.stderr)
            return 2
        sys.stdout.buffer.write(text.encode())
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
