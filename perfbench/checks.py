"""Output checks made apart from the program.

Every evaluator here is written from the paper's definitions, not from
the program's code paths: a cube covers a minterm when every literal
agrees; a GNOR row pulls low when any of its devices conducts (PASS
conducts on a 1, INVERT on a 0); an output column is the NOR of the
rows it taps, inverted for positive-phase outputs.  Defects follow the
crosspoint fault table of the paper's fault-tolerance section: a
stuck-on device conducts always, a stuck-off or PG-leak device never.

Each ``check_*`` returns a list of problems; an empty list means the
op's outputs are correct.  Nothing is compared against a saved copy of
earlier output.
"""

from __future__ import annotations

import math
from collections import Counter
from types import SimpleNamespace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Cell areas in L^2 of the paper's three technologies.
CELL_L2 = {"flash": 40, "eeprom": 100, "cnfet": 60}

#: Table 1 as published: benchmark -> (Flash, EEPROM, CNFET) in L^2.
TABLE1_PUBLISHED = {
    "max46": (34960, 87400, 27600),
    "apla": (32000, 80000, 33000),
    "t2": (104000, 260000, 102960),
}


# ----------------------------------------------------------------------
# evaluators
# ----------------------------------------------------------------------
def minterms(n_inputs: int) -> np.ndarray:
    return np.arange(1 << n_inputs, dtype=np.int64)


def _cube_care_value(inputs: int, n_inputs: int) -> Optional[Tuple[int, int]]:
    """(care mask, value mask) of a cube's input part; None when void.

    Field of variable ``i`` (bits ``2i``, ``2i+1``): ``01`` literal 0,
    ``10`` literal 1, ``11`` free, ``00`` void.
    """
    care = value = 0
    for i in range(n_inputs):
        field = (inputs >> (2 * i)) & 3
        if field == 0:
            return None
        if field == 1:
            care |= 1 << i
        elif field == 2:
            care |= 1 << i
            value |= 1 << i
    return care, value


def cover_table(cover, n_inputs: int) -> np.ndarray:
    """Output bitmask of ``cover`` on every minterm (int64 array)."""
    m = minterms(n_inputs)
    out = np.zeros(m.shape, dtype=np.int64)
    for cube in cover.cubes:
        cv = _cube_care_value(cube.inputs, n_inputs)
        if cv is None or not cube.outputs:
            continue
        care, value = cv
        hit = (m & care) == value
        out[hit] |= cube.outputs
    return out


def _row_masks(config) -> Tuple[List[int], List[int]]:
    """Per product row: inputs whose device conducts on 1 / on 0."""
    on_one, on_zero = [], []
    for row in config.and_plane:
        a = b = 0
        for i, device in enumerate(row):
            if device.name == "PASS":
                a |= 1 << i
            elif device.name == "INVERT":
                b |= 1 << i
        on_one.append(a)
        on_zero.append(b)
    return on_one, on_zero


def gnor_table(config, rows: Optional[Dict[int, int]] = None,
               cols: Optional[Dict[int, int]] = None,
               defects: Optional[Dict[Tuple[int, int], str]] = None,
               n_input_columns: Optional[int] = None) -> np.ndarray:
    """Switch-level NOR-NOR response of a GNOR configuration.

    Without ``rows`` the array is healthy and every logical row is
    present.  With ``rows`` (logical row -> physical row), ``cols``
    (logical input -> physical column) and ``defects`` ((physical row,
    physical column) -> defect name), only the placed rows exist, and
    each device sitting on a defective crosspoint conducts always
    (``stuck_on``) or never (anything else).  Output ``k`` sits on
    physical column ``n_input_columns + k``.
    """
    n, n_out = config.n_inputs, config.n_outputs
    m = minterms(n)
    on_one, on_zero = _row_masks(config)
    placed = (range(config.n_products) if rows is None
              else sorted(rows))
    defects = defects or {}
    row_values: Dict[int, np.ndarray] = {}
    or_stuck_on = [False] * n_out
    or_dropped: Dict[int, set] = {}
    for r in placed:
        a, b = on_one[r], on_zero[r]
        dead = False
        if rows is not None:
            q = rows[r]
            for i in range(n):
                defect = defects.get((q, cols[i]))
                if defect == "stuck_on":
                    dead = True
                elif defect is not None:
                    a &= ~(1 << i)
                    b &= ~(1 << i)
            for k in range(n_out):
                defect = defects.get((q, n_input_columns + k))
                if defect == "stuck_on":
                    or_stuck_on[k] = True
                elif defect is not None:
                    or_dropped.setdefault(r, set()).add(k)
        if dead:
            row_values[r] = np.zeros(m.shape, dtype=bool)
        else:
            row_values[r] = ((m & a) == 0) & ((~m & b) == 0)
    out = np.zeros(m.shape, dtype=np.int64)
    for k in range(n_out):
        pulled = np.full(m.shape, or_stuck_on[k])
        for r in placed:
            if config.or_plane[k][r].name != "DROP" and \
                    k not in or_dropped.get(r, ()):
                pulled |= row_values[r]
        nor = ~pulled
        value = ~nor if config.output_inverted[k] else nor
        out |= value.astype(np.int64) << k
    return out


def mismatches(actual: np.ndarray, expected: np.ndarray,
               dc: Optional[np.ndarray] = None) -> int:
    """(minterm, output) pairs that differ outside the DC mask."""
    diff = actual ^ expected
    if dc is not None:
        diff &= ~dc
    return int(np.bitwise_count(diff.astype(np.uint64)).sum())


# ----------------------------------------------------------------------
# compile_cells
# ----------------------------------------------------------------------
def check_compile(expected: np.ndarray, dc: Optional[np.ndarray], cover,
                  config, areas: Dict[str, float]) -> List[str]:
    problems = []
    n = cover.n_inputs
    bad = mismatches(cover_table(cover, n), expected, dc)
    if bad:
        problems.append(f"minimized cover differs on {bad} pairs")
    bad = mismatches(gnor_table(config), expected, dc)
    if bad:
        problems.append(f"GNOR planes differ on {bad} pairs")
    p, i, o = len(cover), cover.n_inputs, cover.n_outputs
    if config.n_products != p:
        problems.append("GNOR rows differ from cover products")
    want = {"flash": CELL_L2["flash"] * p * (2 * i + o),
            "eeprom": CELL_L2["eeprom"] * p * (2 * i + o),
            "cnfet": CELL_L2["cnfet"] * p * (i + o)}
    for tech, value in want.items():
        if areas[tech] != value:
            problems.append(f"{tech} area {areas[tech]} != {value}")
    return problems


def check_table1(area_of) -> List[str]:
    """``area_of(name) -> (flash, eeprom, cnfet)`` vs the paper."""
    problems = []
    for name, published in TABLE1_PUBLISHED.items():
        got = tuple(area_of(name))
        if got != published:
            problems.append(f"Table 1 {name}: {got} != {published}")
    return problems


# ----------------------------------------------------------------------
# table2_flow
# ----------------------------------------------------------------------
def _net_terminals(net, placement) -> set:
    base = net.name.split("#", 1)[0]
    terms = set()
    if net.source is not None:
        terms.add(placement.sites[net.source])
        if base in placement.pads:
            terms.add(placement.pads[base])  # primary-output pad
    elif base in placement.pads:
        terms.add(placement.pads[base])
    for sink in net.sinks:
        terms.add(placement.sites[sink])
    return terms


def check_fabric_run(run) -> List[str]:
    problems = []
    fabric, netlist = run.fabric, run.netlist
    width, height = fabric.width, fabric.height
    sites = run.placement.sites
    if set(sites) != set(netlist.blocks):
        problems.append("placed blocks differ from the netlist's blocks")
    if len(set(sites.values())) != len(sites):
        problems.append("two blocks share a site")
    for x, y in sites.values():
        if not (0 <= x < width and 0 <= y < height):
            problems.append(f"block off the grid at {(x, y)}")
            break
    edges_counted = 0
    for net in netlist.nets:
        routed = run.routing.routed.get(net.name)
        edges = list(routed.edges) if routed is not None else []
        edges_counted += len(edges)
        terms = _net_terminals(net, run.placement)
        adjacency: Dict[tuple, List[tuple]] = {}
        for a, b in edges:
            if abs(a[0] - b[0]) + abs(a[1] - b[1]) != 1:
                problems.append(f"net {net.name}: non-adjacent edge")
                break
            adjacency.setdefault(a, []).append(b)
            adjacency.setdefault(b, []).append(a)
        if len(terms) < 2:
            continue
        if not edges:
            problems.append(f"net {net.name}: unrouted")
            continue
        start = next(iter(terms))
        seen = {start}
        stack = [start]
        while stack:
            for nxt in adjacency.get(stack.pop(), ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        if seen != set(adjacency) | {start}:
            problems.append(f"net {net.name}: edges not connected")
        if not terms <= seen:
            problems.append(f"net {net.name}: a terminal is not reached")
    if run.total_wirelength != edges_counted:
        problems.append(f"wirelength {run.total_wirelength} != "
                        f"{edges_counted} counted edges")
    occupancy = 100.0 * len(netlist.blocks) / (width * height)
    if abs(run.occupancy_percent - occupancy) > 1e-9:
        problems.append(f"occupancy {run.occupancy_percent} != {occupancy}")
    return problems


def check_emulation(report, clb_area_factor: float = 0.5) -> List[str]:
    problems = []
    for label in ("standard", "cnfet"):
        problems += [f"{label}: {p}"
                     for p in check_fabric_run(getattr(report, label))]
    std, amb = report.standard.fabric, report.cnfet.fabric
    # half-area CLBs on the same die: the grid side grows by
    # 1/sqrt(factor), rounded to whole tiles, so occupancy halves
    if amb.clb.area_l2 != std.clb.area_l2 * clb_area_factor:
        problems.append("CNFET CLB is not half the standard CLB")
    if abs(amb.width - std.width / math.sqrt(clb_area_factor)) > 0.5:
        problems.append(f"CNFET grid side {amb.width} is not "
                        f"{std.width}/sqrt({clb_area_factor}) rounded")
    ratio = report.cnfet.occupancy_percent / report.standard.occupancy_percent
    if abs(ratio - (std.width * std.height) / (amb.width * amb.height)) > 1e-9:
        problems.append(f"CNFET/standard occupancy ratio {ratio:.4f}")
    return problems


# ----------------------------------------------------------------------
# yield_*
# ----------------------------------------------------------------------
def wilson(successes: int, n: int, z: float = 1.96) -> Tuple[float, float]:
    """Wilson score interval, written from its textbook formula."""
    p = successes / n
    z2 = z * z
    center = (p + z2 / (2 * n)) / (1 + z2 / n)
    half = z / (1 + z2 / n) * math.sqrt(p * (1 - p) / n + z2 / (4 * n * n))
    return max(0.0, center - half), min(1.0, center + half)


def _defect_names(defect_map) -> Dict[Tuple[int, int], str]:
    return {(q, c): d.value for (q, c), d in defect_map.defects.items()}


def _adjacency(config, defects, cols, n_input_columns, n_rows) -> np.ndarray:
    """Which logical row may sit on which physical row.

    A stuck-on device on any column the row uses (the placed input
    columns and every output column) conducts always: fatal for any
    row.  Any other defect is fatal only where the row programs a
    conducting device.
    """
    n, n_out = config.n_inputs, config.n_outputs
    checked = [cols[i] for i in range(n)] + \
        [n_input_columns + k for k in range(n_out)]
    dead = np.zeros(n_rows, dtype=bool)
    off = np.zeros((n_rows, n + n_out), dtype=bool)
    for (q, c), defect in defects.items():
        if c in checked:
            j = checked.index(c)
            if defect == "stuck_on":
                dead[q] = True
            else:
                off[q, j] = True
    needs = np.zeros((config.n_products, n + n_out), dtype=bool)
    for r in range(config.n_products):
        for i in range(n):
            needs[r, i] = config.and_plane[r][i].name != "DROP"
        for k in range(n_out):
            needs[r, n + k] = config.or_plane[k][r].name != "DROP"
    clash = (needs.astype(np.int32) @ off.T.astype(np.int32)) > 0
    return ~clash & ~dead[None, :]


def _matching_size(adjacency: np.ndarray) -> int:
    # imported here: the program never loads scipy, so an eager import
    # would add its load time and memory to the run's set-up figures
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_bipartite_matching
    graph = csr_matrix(adjacency.astype(np.int8))
    match = maximum_bipartite_matching(graph, perm_type="column")
    return int((match >= 0).sum())


def check_repairs(batches: Sequence[dict], golden: np.ndarray,
                  n_inputs: int, n_outputs: int
                  ) -> Tuple[List[str], List[Tuple[str, bool]]]:
    """Re-verify every captured repair outcome.

    Returns the problems found and each outcome's ``(status, exact)``,
    where ``exact`` is the benchmark's own verdict: the re-evaluated
    array computes the golden function.
    """
    problems: List[str] = []
    total_pairs = (1 << n_inputs) * max(n_outputs, 1)
    seen: List[Tuple[str, bool]] = []
    for batch in batches:
        config, fabric = batch["config"], batch["fabric"]
        nic = fabric.n_input_columns
        for t, outcome in enumerate(batch["outcomes"]):
            defects = _defect_names(batch["defect_maps"][t])
            status = outcome.status
            if status == "reminimized":
                placed = batch["alt"]
                if placed is None:
                    problems.append("reminimized without an alternative")
                    seen.append((status, False))
                    continue
            elif status == "degraded":
                kept = sorted(outcome.row_assignment)
                placed = _subset(config, kept)
            else:
                placed = config
            rows = (outcome.row_assignment if status != "degraded" else
                    {j: outcome.row_assignment[r]
                     for j, r in enumerate(sorted(outcome.row_assignment))})
            table = gnor_table(placed, rows, outcome.col_assignment,
                               defects, nic)
            errors = mismatches(table, golden)
            seen.append((status, errors == 0))
            if outcome.exact and errors:
                problems.append(f"sample {t} ({status}): repaired array "
                                f"differs on {errors} pairs")
            if not outcome.exact:
                fraction = 1.0 - errors / total_pairs
                if abs(fraction - outcome.correct_fraction) > 1e-12:
                    problems.append(f"sample {t}: correct fraction "
                                    f"{outcome.correct_fraction} != "
                                    f"{fraction}")
            if status == "clean":
                continue
            matched_config = placed if status == "reminimized" else config
            adjacency = _adjacency(matched_config, defects,
                                   outcome.col_assignment, nic,
                                   fabric.n_physical_rows)
            assignment = outcome.row_assignment
            if len(set(assignment.values())) != len(assignment) or any(
                    not adjacency[r, q] for r, q in assignment.items()):
                problems.append(f"sample {t}: row assignment is not a "
                                f"matching of compatible rows")
            best = _matching_size(adjacency)
            if len(assignment) != best:
                problems.append(f"sample {t}: matched {len(assignment)} "
                                f"rows, maximum matching is {best}")
    return problems, seen


def _subset(config, kept: List[int]):
    """The configuration restricted to ``kept`` rows, as plain data."""
    return SimpleNamespace(
        n_inputs=config.n_inputs, n_outputs=config.n_outputs,
        n_products=len(kept),
        and_plane=[config.and_plane[r] for r in kept],
        or_plane=[[row[r] for r in kept] for row in config.or_plane],
        output_inverted=config.output_inverted)


def check_yield_report(report,
                       outcomes: Sequence[Tuple[str, bool]]) -> List[str]:
    """The report's counts against the re-verified repair outcomes."""
    problems = []
    n = report.samples
    if len(outcomes) != n:
        problems.append(f"{len(outcomes)} repair outcomes for {n} samples")
    statuses = Counter(status for status, _exact in outcomes)
    if Counter(report.status_counts) != statuses:
        problems.append(f"status counts {report.status_counts} != "
                        f"{dict(statuses)} of the repair outcomes")
    exact = sum(1 for _status, ok in outcomes if ok)
    if report.repaired_successes != exact:
        problems.append(f"{report.repaired_successes} repaired successes, "
                        f"{exact} outcomes compute the golden function")
    if report.status_counts.get("clean", 0) != report.raw_successes:
        problems.append("raw successes differ from clean samples")
    if not 0 <= report.raw_successes <= report.repaired_successes <= n:
        problems.append("raw <= repaired <= samples does not hold")
    for got, successes in ((report.raw_interval(), report.raw_successes),
                           (report.repaired_interval(),
                            report.repaired_successes)):
        want = wilson(successes, n)
        if abs(got[0] - want[0]) > 1e-9 or abs(got[1] - want[1]) > 1e-9:
            problems.append(f"Wilson interval {got} != {want}")
    return problems
