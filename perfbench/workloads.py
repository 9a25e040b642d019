"""The four workloads: their inputs, their ops and their checks.

A run repeats *rounds*.  Every round holds the same kinds of ops in
the same order, on inputs drawn afresh from ``(seed, round, slot)``, so
no input or store key repeats within a run while the op mix stays the
same from round to round.  Quality-of-result figures come from the
first ``MIN_ROUNDS`` rounds, which every run completes, so they are
deterministic at a fixed seed whatever the run's length.

Ops call the program through module attributes (``emulate.run_emulation``
rather than a copied ``run_emulation``), so the traced run's wrappers,
which replace the program's own bindings, see every call.
"""

from __future__ import annotations

import random
import statistics
from typing import Dict, List

import numpy as np

import checks
import repro
import repro.workloads as program_workloads
from repro.bench import mcnc
from repro.fpga import emulate
from repro.logic.cover import Cover
from repro.logic.cube import Cube
from repro.logic.function import BooleanFunction
from repro.robustness import repair, yield_engine
from repro.store.service import get_service


#: Quality-of-result metrics and their units.  Each workload reports the
#: ones it produces; the others print 1 there (no metric may read 0).
QOR_UNITS = {"pla_products": "count", "routed_wirelength": "count",
             "fmax_mhz": "MHz", "repaired_samples": "count"}


class Workload:
    name = ""
    #: Percentile reported as ``op_tail_ms``: the highest with at least
    #: ten ops beyond it in a run of ``MIN_ROUNDS`` rounds (50 when a
    #: run holds fewer than forty ops: then there is no tail).
    TAIL_PCT = 50
    #: Rounds a run completes even when ``--seconds`` has passed.
    MIN_ROUNDS = 1

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        """Program work every round's inputs draw from (part of set-up)."""

    def oracles(self) -> List[str]:
        """Build the checks' reference tables (benchmark work, not timed
        as set-up); returns problems found in the program's outputs."""
        return []

    def install(self, rebind) -> None:
        """Hook the program where the checks need to see inside an op."""

    def check_round(self) -> List[str]:
        """Checks made once per round rather than per op."""
        return []

    def round_inputs(self, round_index: int) -> List[dict]:
        raise NotImplementedError

    def warmup_input(self) -> dict:
        raise NotImplementedError

    def run(self, item: dict):
        raise NotImplementedError

    def check(self, item: dict, output) -> List[str]:
        raise NotImplementedError

    def qor_values(self, output) -> Dict[str, float]:
        """The quality-of-result figures of one op's output."""
        return {}

    def qor(self, values: List[Dict[str, float]]) -> Dict[str, float]:
        """QoR metrics from the ``qor_values`` of every op of the first
        ``MIN_ROUNDS`` rounds: summed over the ops."""
        return {name: float(sum(v[name] for v in values))
                for name in (values[0] if values else {})}


# ----------------------------------------------------------------------
# compile_cells
# ----------------------------------------------------------------------
#: Generated cells compiled every round (inputs re-labelled per round).
#: ``lt5 gt5 addc3 eq7`` take about as long as each other and sit just
#: below the median op, so the median falls between two tight groups
#: of ops rather than in a gap whose edges move from seed to seed.
CELLS = ("add4", "add5", "addc3", "addc4", "cmp4", "cmp5", "lt5", "lt6",
         "eq6", "eq7", "eq8", "gt5", "gt6", "gt7", "pop6", "pop7", "pop8",
         "clf-majority9-perceptron", "clf-blobs12-perceptron",
         "clf-mux6-dlist")

#: Random PLAs per round: (inputs, outputs, product terms, DC cubes),
#: around the sizes of the Table 1 functions.
RANDOM_PLAS = ((9, 1, 46, 0), (10, 12, 25, 3), (17, 16, 52, 0),
               (12, 4, 35, 4), (14, 8, 40, 0), (11, 3, 30, 2))


def _relabel_cover(cover, perm: List[int], flips: int):
    """Move variable ``i`` to ``perm[i]``, complemented where flipped."""
    n = cover.n_inputs
    out = Cover(n, cover.n_outputs)
    for cube in cover.cubes:
        inputs = 0
        for i in range(n):
            field = (cube.inputs >> (2 * i)) & 3
            if (flips >> i) & 1:
                field = ((field & 1) << 1) | (field >> 1)
            inputs |= field << (2 * perm[i])
        out.append(Cube(n, inputs, cube.outputs, cube.n_outputs))
    return out


def _cell_expected(spec: str, old: np.ndarray) -> np.ndarray:
    """Expected output masks of a cell on its original minterms."""
    info = program_workloads.parse_workload(spec)
    family = info["family"]
    if family == "clf":
        model = program_workloads.train_model(info["dataset"],
                                              info["algorithm"])
        if hasattr(model, "weights"):
            score = np.zeros(old.shape, dtype=np.int64)
            for i, w in enumerate(model.weights):
                score += w * ((old >> i) & 1)
            return (score >= model.theta).astype(np.int64)
        label = np.full(old.shape, model.default, dtype=np.int64)
        decided = np.zeros(old.shape, dtype=bool)
        for mask, cls in model.rules:
            cv = checks._cube_care_value(mask, model.n_features)
            if cv is None:
                continue
            hit = ((old & cv[0]) == cv[1]) & ~decided
            label[hit] = cls
            decided |= hit
        return label
    w = info["width"]
    a = old & ((1 << w) - 1)
    b = (old >> w) & ((1 << w) - 1)
    if family in ("add", "addc"):
        cin = (old >> (2 * w)) & 1 if family == "addc" else 0
        return a + b + cin
    lt, eq, gt = (a < b), (a == b), (a > b)
    if family == "cmp":
        return lt.astype(np.int64) | eq.astype(np.int64) << 1 | \
            gt.astype(np.int64) << 2
    if family in ("lt", "eq", "gt"):
        return {"lt": lt, "eq": eq, "gt": gt}[family].astype(np.int64)
    if family == "pop":
        return np.bitwise_count((old & ((1 << w) - 1)).astype(np.uint64)
                                ).astype(np.int64)
    raise ValueError(f"no oracle for {spec}")


class CompileCells(Workload):
    name = "compile_cells"
    TAIL_PCT = 90
    MIN_ROUNDS = 4

    def setup(self) -> None:
        self.raw = {spec: program_workloads.raw_function(spec)
                    for spec in CELLS}
        self.seen = set()

    def oracles(self) -> List[str]:
        self.expected = {}
        problems = []
        for spec, fn in self.raw.items():
            self.expected[spec] = _cell_expected(
                spec, checks.minterms(fn.n_inputs))
            # the generator's own cover must already be the function
            bad = checks.mismatches(checks.cover_table(fn.on_set,
                                                       fn.n_inputs),
                                    self.expected[spec])
            if bad:
                problems.append(f"raw cell {spec} is wrong on {bad} pairs")
        return problems

    def _cell_input(self, spec: str, rng: random.Random) -> dict:
        fn = self.raw[spec]
        n = fn.n_inputs
        while True:
            perm = list(range(n))
            rng.shuffle(perm)
            flips = rng.getrandbits(n)
            on = _relabel_cover(fn.on_set, perm, flips)
            key = (spec, tuple(sorted((c.inputs, c.outputs)
                                      for c in on.cubes)))
            if key not in self.seen:
                self.seen.add(key)
                break
        function = BooleanFunction(on, _relabel_cover(fn.dc_set, perm, flips),
                                   name=f"{spec}~{self.seed}")
        # the generators hand espresso an exact OFF-set, as
        # repro.workloads does for its own compiles
        function._off_set = _relabel_cover(fn.off_set, perm, flips)
        return {"kind": "cell", "spec": spec, "function": function,
                "perm": perm, "flips": flips}

    def _random_input(self, dims, seed: int) -> dict:
        n, o, p, dc = dims
        function = BooleanFunction.random(n, o, p, seed=seed,
                                          name=f"rand{n}x{o}x{p}",
                                          dc_cubes=dc)
        return {"kind": "random", "spec": function.name,
                "function": function}

    def round_inputs(self, round_index: int) -> List[dict]:
        rng = random.Random(self.seed * 1_000_003 + round_index)
        items = [self._cell_input(spec, rng) for spec in CELLS]
        for slot, dims in enumerate(RANDOM_PLAS):
            items.append(self._random_input(
                dims, (self.seed * 7919 + round_index) * 64 + slot))
        return items

    def warmup_input(self) -> dict:
        return self._random_input((12, 4, 35, 4), -(self.seed * 64 + 1))

    def run(self, item: dict):
        cover = get_service().minimize(item["function"])
        config = repro.map_cover_to_gnor(cover)
        dims = (cover.n_inputs, cover.n_outputs, len(cover))
        areas = {"flash": repro.pla_area(repro.FLASH, *dims),
                 "eeprom": repro.pla_area(repro.EEPROM, *dims),
                 "cnfet": repro.pla_area(repro.CNFET_AMBIPOLAR, *dims)}
        return cover, config, areas

    def check(self, item: dict, output) -> List[str]:
        cover, config, areas = output
        function = item["function"]
        n = function.n_inputs
        if item["kind"] == "cell":
            m = checks.minterms(n)
            old = np.zeros(m.shape, dtype=np.int64)
            for i, pos in enumerate(item["perm"]):
                old |= (((m >> pos) & 1) ^ ((item["flips"] >> i) & 1)) << i
            expected = self.expected[item["spec"]][old]
            dc = None
        else:
            expected = checks.cover_table(function.on_set, n)
            dc = checks.cover_table(function.dc_set, n)
        return checks.check_compile(expected, dc, cover, config, areas)

    def check_round(self) -> List[str]:
        """The Table 1 trio through the same area entry point."""
        def area_of(name):
            s = mcnc.get_benchmark(name)
            return tuple(repro.pla_area(t, s.inputs, s.outputs, s.products)
                         for t in (repro.FLASH, repro.EEPROM,
                                   repro.CNFET_AMBIPOLAR))
        return checks.check_table1(area_of)

    def qor_values(self, output) -> Dict[str, float]:
        return {"pla_products": len(output[0])}


# ----------------------------------------------------------------------
# table2_flow
# ----------------------------------------------------------------------
class Table2Flow(Workload):
    name = "table2_flow"
    TAIL_PCT = 50  # a run holds 18-24 emulations: no tail to report
    MIN_ROUNDS = 9
    PER_ROUND = 2

    def round_inputs(self, round_index: int) -> List[dict]:
        base = 100 + (self.seed * 1009 + round_index) * self.PER_ROUND
        return [{"seed": base + j} for j in range(self.PER_ROUND)]

    def warmup_input(self) -> dict:
        return {"seed": 50}

    def run(self, item: dict):
        return emulate.run_emulation(seed=item["seed"], jobs=1)

    def check(self, item: dict, output) -> List[str]:
        return checks.check_emulation(output)

    def qor_values(self, output) -> Dict[str, float]:
        return {"routed_wirelength": output.standard.total_wirelength +
                output.cnfet.total_wirelength,
                "fmax_mhz": output.cnfet.frequency_mhz}

    def qor(self, values):
        return {"routed_wirelength": float(sum(v["routed_wirelength"]
                                               for v in values)),
                "fmax_mhz": statistics.median(v["fmax_mhz"]
                                              for v in values)}


# ----------------------------------------------------------------------
# yield_repair / yield_verify
# ----------------------------------------------------------------------
class _Capture:
    """Records each repair pass's inputs and outcomes for the checks.

    Wraps every binding of ``repair_config_batch`` and of the repair
    pass's re-minimization step; the values pass through unchanged.
    """

    def __init__(self):
        self.batches: List[dict] = []
        self._alt = None

    def install(self, rebind) -> None:
        batch_fn = repair.repair_config_batch
        alt_fn = repair._reminimized_config

        def repair_config_batch(config, fabric, defect_maps, golden,
                                *args, **kwargs):
            self._alt = None
            outcomes = batch_fn(config, fabric, defect_maps, golden,
                                *args, **kwargs)
            self.batches.append({"config": config, "fabric": fabric,
                                 "defect_maps": list(defect_maps),
                                 "outcomes": outcomes, "alt": self._alt})
            return outcomes

        def reminimized_config(*args, **kwargs):
            self._alt = alt_fn(*args, **kwargs)
            return self._alt

        rebind(batch_fn, repair_config_batch)
        rebind(alt_fn, reminimized_config)

    def take(self) -> List[dict]:
        batches, self.batches = self.batches, []
        return batches


class _YieldWorkload(Workload):
    BENCHMARK = ""
    SAMPLES = 0
    PER_ROUND = 6
    #: Defect rates; empty means the program's defaults.
    RATES: Dict[str, float] = {}

    def oracles(self) -> List[str]:
        function = mcnc.benchmark_function(
            mcnc.get_benchmark(self.BENCHMARK), seed=0)
        self.n_inputs, self.n_outputs = function.n_inputs, function.n_outputs
        self.golden = checks.cover_table(function.on_set, function.n_inputs)
        return []

    def install(self, rebind) -> None:
        self.capture = _Capture()
        self.capture.install(rebind)

    def _settings(self, seed: int):
        return yield_engine.YieldSettings(benchmark=self.BENCHMARK,
                                          samples=self.SAMPLES, seed=seed,
                                          **self.RATES)

    def round_inputs(self, round_index: int) -> List[dict]:
        base = (self.seed * 1009 + round_index) * self.PER_ROUND
        return [{"settings": self._settings(base + j)}
                for j in range(self.PER_ROUND)]

    def warmup_input(self) -> dict:
        return {"settings": self._settings(-1)}

    def run(self, item: dict):
        self.capture.take()
        report = yield_engine.estimate_yield(item["settings"], jobs=1)
        return report, self.capture.take()

    def check(self, item: dict, output) -> List[str]:
        report, batches = output
        problems, outcomes = checks.check_repairs(
            batches, self.golden, self.n_inputs, self.n_outputs)
        return problems + checks.check_yield_report(report, outcomes)

    def qor_values(self, output) -> Dict[str, float]:
        return {"repaired_samples": output[0].repaired_successes}


class YieldRepair(_YieldWorkload):
    name = "yield_repair"
    BENCHMARK = "workload:clf-majority9-perceptron"
    SAMPLES = 8
    # half the default rates: still ~60 % of samples need a remap, but
    # a sample beyond repair (which adds a re-minimization to its op)
    # is rare, so op times do not split into two clusters
    RATES = {"p_stuck_off": 0.0007, "p_stuck_on": 0.0003}
    PER_ROUND = 8
    TAIL_PCT = 90
    MIN_ROUNDS = 13

    def oracles(self) -> List[str]:
        problems = super().oracles()
        # the compiled classifier must be its trained model
        spec = program_workloads.strip_prefix(self.BENCHMARK)
        bad = checks.mismatches(self.golden, _cell_expected(
            spec, checks.minterms(self.n_inputs)))
        if bad:
            problems.append(f"{spec} compiles wrong on {bad} pairs")
        return problems


class YieldVerify(_YieldWorkload):
    name = "yield_verify"
    BENCHMARK = "t2"
    SAMPLES = 8
    TAIL_PCT = 80
    MIN_ROUNDS = 9


WORKLOADS = {cls.name: cls for cls in (CompileCells, Table2Flow,
                                       YieldRepair, YieldVerify)}
