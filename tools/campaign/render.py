#!/usr/bin/env python3
"""Prints the tables of a sweep campaign from its merged artifact.

    python3 tools/campaign/render.py CAMPAIGN_<name>.json [...]

Each committed spec under bench/specs/ but differential.json (a check,
not a table) has one layout here, chosen by the artifact's "campaign" name: the Fig. 5/6 panels (one row per load, one
column per mode), the workload makespan panels (one row per workload kind),
the headline, hotspot, threshold, system-size, R_w, flexibility and DPM
tables, and the fault, self-healing and brownout retention tables. Rows and
columns that an overrides entry tells apart (workload kind, hotspot
fraction, thresholds, system size, window, lane cap, DPM strategy, fault
plan, power cap) are labelled from the point's "variant"; the fail count
and the MTTR are read from its fault.events.

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


def rw(points):
    rows = []
    for window in sorted(axis(points, "reconfig.window")):
        p = pick(points, {"reconfig.window": window})
        rows.append([str(window), fixed(p["throughput_xNc"], 3),
                     fixed(p["latency_avg_cycles"], 1), fixed(p["power_avg_mw"], 0),
                     str(p["dvs_level_changes"]), str(p["lane_grants"])])
    return ("\n== Ablation: reconfiguration window R_w (P-B, shuffle @ 0.6 N_c) ==\n" +
            table(["R_w (cycles)", "thru (xN_c)", "latency (cyc)", "power (mW)",
                   "DVS changes", "lane moves"], rows) +
            "(paper: optimum R_w = 2000 cycles)\n")


def flexibility(points):
    rows = []
    # Cap 0 (unlimited) sorts first.
    for cap in sorted(axis(points, "reconfig.max_lanes_per_flow")):
        p = pick(points, {"reconfig.max_lanes_per_flow": cap})
        rows.append([str(cap) if cap else "unlimited", fixed(p["throughput_xNc"], 3),
                     fixed(p["latency_avg_cycles"], 1), fixed(p["active_power_avg_mw"], 0),
                     str(p["lane_grants"])])
    return ("\n== Extension: limited reconfiguration flexibility "
            "(P-B, complement @ 0.6 N_c) ==\n" +
            table(["max lanes/flow", "thru (xN_c)", "latency (cyc)", "active power (mW)",
                   "lane grants"], rows) +
            "(throughput should scale ~linearly with the cap until it covers "
            "the offered load; a transmitter with fewer laser ports is cheaper)\n")


def dpm_label(point):
    variant = coordinates(point)
    strategy = variant["reconfig.dpm_strategy"]
    if strategy == "hysteresis":
        return f"hysteresis K={variant['reconfig.hysteresis_windows']}"
    if strategy == "ewma":
        return f"ewma a={variant['reconfig.ewma_alpha']:g}"
    return "threshold (paper)"


def dpm_strategy(points):
    rows = [[dpm_label(p), fixed(p["throughput_xNc"], 3), fixed(p["latency_avg_cycles"], 1),
             fixed(p["power_avg_mw"], 0), fixed(p["active_power_avg_mw"], 0),
             str(p["dvs_level_changes"])] for p in points]
    # Rows sort by label text, the order this table has always printed in.
    return ("\n== Extension: power scaling techniques (P-B, shuffle @ 0.5 N_c) ==\n" +
            table(["strategy", "thru (xN_c)", "latency (cyc)", "total power (mW)",
                   "active power (mW)", "DVS changes"], sorted(rows)) +
            "(threshold = the paper's rule; hysteresis trades reaction speed for\n"
            " fewer 65-cycle transition stalls; EWMA follows the trend)\n")


def lane_fails(point):
    """The lane_fail events of the point's fault.events, each split at ':'."""
    events = (coordinates(point).get("fault.events") or "").split()
    return [e[len("lane_fail@"):].split(":") for e in events if e.startswith("lane_fail@")]


def mttr(point):
    """Cycles from the first lane failure to its repair (0 when fault-free)."""
    for at, *fields in lane_fails(point):
        repairs = [int(f[1:]) for f in fields if f.startswith("r")]
        if not repairs:
            raise RenderError(f"lane_fail@{at} has no repair time")
        return repairs[0] - int(at)
    return 0


def retention(title, points, column, label, tail):
    """The retention table and the cells its detail table lists.

    One row per load: the accepted throughput at each value of `column`, in
    spec order, then the last value's over the baseline's (value 0). Also
    returns the (load, value, point) cells off the baseline, in row order.
    """
    columns = list(dict.fromkeys(column(p) for p in points))
    loads = axis(points, "load")

    def cell(load, value):
        found = [p for p in points if p["load"] == load and column(p) == value]
        if len(found) != 1:
            raise RenderError(f"{len(found)} points at load {load} and {value!r}, expected 1")
        return found[0]

    rows = []
    for load in loads:
        base = cell(load, 0)["throughput_xNc"]
        thru = [cell(load, value)["throughput_xNc"] for value in columns]
        rows.append([fixed(load, 1)] + [fixed(t, 3) for t in thru] +
                    [fixed(thru[-1] / base, 3) if base > 0 else "-"])
    text = (f"\n== {title} ==\n" +
            table(["load(xN_c)"] + [label(value) for value in columns] + [tail(columns[-1])],
                  rows))
    return text, [(load, value, cell(load, value))
                  for load in loads for value in columns if value != 0]


def fault_resilience(points):
    text, cells = retention(
        "Fault resilience (uniform, P-B): throughput retention", points,
        lambda p: len(lane_fails(p)),
        lambda n: f"{n} fail" + ("" if n == 1 else "s"), lambda n: f"retention@{n}")
    rows = [[fixed(load, 1), str(fails)] +
            [str(p["fault"][k]) for k in ("packets_rehomed", "reroutes_completed",
                                          "worst_time_to_reroute", "degraded_windows")]
            for load, fails, p in cells]
    return (text + "\n== Recovery latency (cycles to replacement grant) ==\n" +
            table(["load(xN_c)", "fails", "rehomed pkts", "reroutes done", "worst t-t-r",
                   "degraded windows"], rows))


def self_healing(points):
    text, cells = retention(
        "Self-healing (uniform, P-B): throughput retention vs MTTR", points, mttr,
        lambda m: f"mttr={m / 1000:g}k" if m else "fault-free",
        lambda m: f"retention@{m / 1000:g}k")
    rows = [[fixed(load, 1), str(m)] +
            [str(p["fault"][k]) for k in ("worst_downtime", "worst_readmission_wait",
                                          "crc_dropped", "arq_retransmits", "arq_dead_letters")]
            for load, m, p in cells]
    return (text + "\n== Recovery arc (cycles) and ARQ overhead ==\n" +
            table(["load(xN_c)", "mttr", "downtime", "readmit wait", "crc drops", "arq retx",
                   "dead letters"], rows))


def power_cap(point):
    return coordinates(point).get("monitor.power_cap_mw") or 0


def cap_label(cap):
    return fixed(cap, 0) + "mW" if cap else "uncapped"


def brownout(points):
    text, cells = retention(
        "Brownout (uniform, P-B): throughput under a power cap", points, power_cap,
        cap_label, lambda _: "retention@tightest")
    rows = []
    for load, cap, p in cells:
        st = p["resilience"]
        rows.append([fixed(load, 1), cap_label(cap), st["peak_stage"], str(st["steps_down"]),
                     str(st["lanes_slept"]), str(st["lanes_shed"]),
                     fixed(p["power_avg_mw"], 2), str(st["suppressed_violations"])])
    return (text + "\n== Ladder depth and power held per cap ==\n" +
            table(["load(xN_c)", "cap", "peak stage", "steps down", "lanes slept", "lanes shed",
                   "power(mW)", "suppressed"], rows))


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
    "ablation_rw": rw,
    "ablation_flexibility": flexibility,
    "ablation_dpm_strategy": dpm_strategy,
    "fault_resilience": fault_resilience,
    "self_healing": self_healing,
    "brownout": brownout,
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
