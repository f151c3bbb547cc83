"""The four seeded workloads: their inputs, one op each, its output check and layer probes.

Every workload generates its maps from the seed, writes them as CSV files
and hands cogmap only those files (or the maps loaded from them).  ``run_op``
is the timed unit of work; ``check`` compares its output with the
independent references in ``oracles``; ``probe`` is the traced run's extra
per-layer timing of the public calls the op itself does not make.  Why each
workload exists is written down in README.md beside this file.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import oracles

# dense_cells: (n, density, visits per cycle).  The complete smaller map is
# visited twice so that the median op is one of its ops, whose path count does
# not depend on the seed, and not one of the random map of the same cost.
SIZES = {
    "full": {
        "dense_cells": [(7, 0.7, 1), (7, 1.0, 2), (8, 0.7, 1), (8, 1.0, 1)],
        "chain_n": 40,
        "chain_maps": 5,
        "spectral_n": 60,
        "spectral_pairs": 8,
    },
    "tiny": {
        "dense_cells": [(4, 0.7, 1), (4, 1.0, 2), (5, 0.7, 1), (5, 1.0, 1)],
        "chain_n": 12,
        "chain_maps": 5,
        "spectral_n": 12,
        "spectral_pairs": 2,
    },
}

GOLDEN_TOL = 0.005  # the tests' tolerance on 3-decimal golden values
EIGEN_TOL = 0.01  # the tests' tolerance on eigenvalue magnitudes
ORACLE_RTOL = 1e-9
SUBPROCESS_TIMEOUT_S = 120


class Mismatch(Exception):
    """An op's output disagrees with the reference."""


def need(ok: bool, message: str) -> None:
    if not ok:
        raise Mismatch(message)


def _weights_uniform(rng, size) -> np.ndarray:
    """Weights uniform in +-3, redrawn until none is exactly 0."""
    w = rng.uniform(-3.0, 3.0, size)
    while np.any(w == 0.0):
        w[w == 0.0] = rng.uniform(-3.0, 3.0, int(np.sum(w == 0.0)))
    return w


def _random_map(rng, n: int, density: float) -> np.ndarray:
    """Exactly round(density * n(n-1)) edges at uniformly chosen off-diagonal cells."""
    w = np.zeros((n, n))
    cells = np.flatnonzero(~np.eye(n, dtype=bool))
    chosen = rng.choice(cells, size=round(density * cells.size), replace=False)
    w.flat[chosen] = _weights_uniform(rng, chosen.size)
    return w


def _reachable(w: np.ndarray) -> np.ndarray:
    """(i, j) true iff a path of length >= 1 leads from i to j (breadth-first)."""
    n = w.shape[0]
    out = np.zeros((n, n), dtype=bool)
    succ = [np.flatnonzero(w[i]).tolist() for i in range(n)]
    for s in range(n):
        frontier = list(succ[s])
        while frontier:
            v = frontier.pop()
            if not out[s, v]:
                out[s, v] = True
                frontier.extend(succ[v])
    return out


def _pick(rng, items, k):
    idx = rng.choice(len(items), size=min(k, len(items)), replace=False)
    return [items[int(i)] for i in sorted(idx)]


def _magnitudes_agree(got, want) -> bool:
    """Descending magnitude lists within EIGEN_TOL; a magnitude missing from one
    list (an eigenvalue one solver put at exactly zero) is compared with 0."""
    got, want = sorted(got, reverse=True), sorted(want, reverse=True)
    pad = max(len(got), len(want))
    got, want = got + [0.0] * (pad - len(got)), want + [0.0] * (pad - len(want))
    return all(abs(x - y) <= EIGEN_TOL for x, y in zip(got, want))


def _impulse_or_refusal(cm, m):
    try:
        return cm.impulse_general_influence(m)
    except cm.MethodNotApplicableError as exc:
        return exc


def _main_captured(cm_cli, argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cm_cli.main(argv)


class Workload:
    """Seeded inputs, the timed op, its output check and the traced probes."""

    name = ""
    whole_cycles = True  # the timed loop ends only after a complete cycle of ops
    in_process = True  # ops call cogmap in this process, so setup imports it
    op_spans: frozenset = frozenset()  # span names an op records; probes skip these

    def __init__(self, seed: int, size: str, root: Path, workdir: Path):
        self.rng = np.random.default_rng(seed)
        self.size = SIZES[size]
        self.root = root
        self.workdir = workdir
        self.inputs: dict[str, tuple[Path, np.ndarray]] = {}
        self.cm = None
        self.maps = {}
        self.env = dict(os.environ)
        self.env.pop("COGMAP_THREADS", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p
        )
        self._oracle: dict = {}
        self._first_z: dict = {}
        self.generate()
        self.keys = list(self.inputs)

    # -- inputs ---------------------------------------------------------
    def generate(self) -> None:
        raise NotImplementedError

    def write(self, key: str, w: np.ndarray) -> None:
        path = self.workdir / f"{key}.csv"
        path.write_text("".join(",".join(repr(float(v)) for v in row) + "\n" for row in w))
        self.inputs[key] = (path, w)

    def load_program(self) -> None:
        """Import cogmap and load every written map through its CSV reader."""
        import cogmap

        self.cm = cogmap
        for key, (path, w) in self.inputs.items():
            m = cogmap.load_map(path)
            need(np.array_equal(m.weights, w), f"{key}: map read back differs from the one written")
            self.maps[key] = m

    def oracle(self, fn, key, *args):
        """``fn(weights of input key, *args)``, computed once, outside any timed region."""
        memo = (fn, key, args)
        if memo not in self._oracle:
            self._oracle[memo] = fn(self.inputs[key][1], *args)
        return self._oracle[memo]

    # -- ops ------------------------------------------------------------
    @property
    def cycle(self) -> int:
        return len(self.keys)

    def op_key(self, i: int) -> str:
        return self.keys[i % len(self.keys)]

    def map_keys(self, i: int) -> list[str]:
        """Inputs op ``i`` runs on."""
        return [self.op_key(i)]

    def run_op(self, i: int, call):
        raise NotImplementedError

    def check(self, i: int, out) -> None:
        raise NotImplementedError

    def check_matrix(self, key: str, Z, report) -> None:
        """Sampled entries against the oracle, scores and ranking against |Z| row sums."""
        w = self.inputs[key][1]
        n = w.shape[0]
        need(Z.shape == (n, n), f"{key}: Z has shape {Z.shape}")
        first = self._first_z.setdefault(key, Z.tobytes())
        need(Z.tobytes() == first, f"{key}: Z differs from an earlier op on the same map")
        need(not np.any(np.diagonal(Z)), f"{key}: nonzero diagonal")
        for a, b in self.samples[key]:
            want = self.oracle(oracles.pair_influence, key, a, b)
            got = float(Z[a, b])
            need(
                math.isclose(got, want, rel_tol=ORACLE_RTOL, abs_tol=1e-12),
                f"{key}: Z[{a},{b}] = {got!r}, oracle {want!r}",
            )
        rows = [sum(abs(v) for v in r) for r in Z.tolist()]
        need(
            all(math.isclose(s, r, rel_tol=1e-12, abs_tol=1e-12) for s, r in zip(report.scores, rows)),
            f"{key}: scores are not the |Z| row sums",
        )
        order = tuple(i + 1 for i in sorted(range(n), key=lambda i: (-rows[i], i)))
        need(tuple(report.ranking) == order, f"{key}: ranking {report.ranking} != {order}")

    def check_pair(self, key, a, b, paths, kosko) -> None:
        w = self.inputs[key][1]
        want = self.oracle(oracles.simple_paths, key, a, b)
        need(list(paths.paths) == want, f"{key}: paths {a}->{b} differ from the oracle")
        weakest = [min(w[p, q] for p, q in zip(path, path[1:])) for path in want]
        need(list(kosko.per_path) == want, f"{key}: kosko paths {a}->{b} differ")
        need(list(kosko.per_path.values()) == weakest, f"{key}: weakest links {a}->{b} differ")
        need(kosko.total == (max(weakest) if weakest else None), f"{key}: kosko total {a}->{b}")

    # -- traced run -----------------------------------------------------
    def path_key(self, key: str) -> str:
        """Input the path and influence layers are probed on."""
        return key

    def exit_code(self, i: int) -> int:
        """Exit code the op's command line is expected to end with."""
        return 0

    def cli_argv(self, i: int) -> list[str]:
        key = self.op_key(i)
        a, b = self.pairs[key]
        path = str(self.inputs[key][0])
        return ["paths", path, "--from", str(a + 1), "--to", str(b + 1), "--format", "json"]

    def probe(self, i: int, call) -> None:
        """Time, on the op's inputs, each layer call the op itself does not make."""
        cm = self.cm
        key = self.op_key(i)

        def todo(name):
            return name not in self.op_spans

        for mkey in self.map_keys(i):
            m = call("maps.load", cm.load_map, self.inputs[mkey][0])
            call("eigen.eigenvalues", cm.eigenvalues, m.weights)
            call("impulse.stability", cm.stability_check, m)
            if todo("impulse.scores"):
                call("impulse.scores", _impulse_or_refusal, cm, m)
        pm = self.maps[self.path_key(key)]
        reach = call("maps.closure", cm.reachability_closure, pm)
        pairs = [(a, b) for a, b in zip(*np.nonzero(reach)) if a != b]
        sets = call(
            "paths.enumerate",
            lambda: [cm.enumerate_with_budget(pm, int(a), int(b)) for a, b in pairs],
        )
        mu = cm.max_abs_weight(pm)
        call(
            "influence.accumulate",
            lambda: [cm.pair_influence(pm, s.source, s.target, mu, s) for s in sets],
        )
        Z = None
        for threads in (1, 2):
            if todo(f"influence.matrix_t{threads}"):
                Z = call(f"influence.matrix_t{threads}", cm.influence_matrix, pm, threads=threads)
        if todo("influence.scores"):
            call("influence.scores", cm.general_influence, Z)
        a, b = self.pairs[self.path_key(key)]
        if todo("paths.list"):
            call("paths.list", cm.enumerate_simple_paths, pm, a, b)
        if todo("kosko.total"):
            call("kosko.total", cm.total_influence, pm, a, b)
        call("cli.interp", subprocess.run, [sys.executable, "-c", "pass"], check=True)
        call(
            "cli.import",
            subprocess.run,
            [sys.executable, "-c", "import cogmap.cli"],
            env=self.env,
            check=True,
            timeout=SUBPROCESS_TIMEOUT_S,
        )
        import cogmap.cli

        code = call("cli.main", _main_captured, cogmap.cli, self.cli_argv(i))
        need(code == self.exit_code(i), f"in-process cli exited {code}")

    def counts(self) -> tuple[dict, dict]:
        """Work counts of the seed's inputs; they depend on nothing but the seed."""
        cm = self.cm
        steps = refused = 0
        for key in self.keys:
            m = self.maps[key]
            if cm.stability_check(m).stable:
                for v in range(m.n):
                    steps += cm.simulate(m, np.eye(m.n)[v]).steps
            else:
                refused += 1
        paths, pairs = {}, {}
        for pkey in dict.fromkeys(self.path_key(k) for k in self.keys):
            m = self.maps[pkey]
            reach = cm.reachability_closure(m)
            todo = [(int(a), int(b)) for a, b in zip(*np.nonzero(reach)) if a != b]
            pairs[pkey] = len(todo)
            paths[pkey] = sum(cm.enumerate_with_budget(m, a, b).count for a, b in todo)
        totals = {
            "paths.paths": sum(paths.values()),
            "influence.pairs": sum(pairs.values()),
            "impulse.steps": steps,
            "impulse.refused": refused,
        }
        return totals, paths


class DensePaths(Workload):
    """All-pairs scoring and one-pair listing on small dense maps."""

    name = "dense_paths"
    op_spans = frozenset(
        {"influence.matrix_t1", "influence.matrix_t2", "influence.scores", "paths.list", "kosko.total"}
    )

    def generate(self):
        self.pairs, self.samples, self.schedule = {}, {}, []
        for n, density, visits in self.size["dense_cells"]:
            key = f"n{n}_d{density}"
            self.schedule += [key] * visits
            w = _random_map(self.rng, n, density)
            self.write(key, w)
            reach = _reachable(w)
            pairs = [(a, b) for a in range(n) for b in range(n) if a != b and reach[a, b]]
            self.pairs[key] = _pick(self.rng, pairs, 1)[0]
            self.samples[key] = _pick(self.rng, pairs, 4)

    @property
    def cycle(self):
        return 2 * len(self.schedule)

    def op_key(self, i):
        # each visit to a map is two consecutive ops, threads=1 then threads=2
        return self.schedule[(i // 2) % len(self.schedule)]

    def run_op(self, i, call):
        cm = self.cm
        key = self.op_key(i)
        m = self.maps[key]
        a, b = self.pairs[key]
        threads = 1 + i % 2
        Z = call(f"influence.matrix_t{threads}", cm.influence_matrix, m, threads=threads)
        report = call("influence.scores", cm.general_influence, Z)
        paths = call("paths.list", cm.enumerate_simple_paths, m, a, b)
        kosko = call("kosko.total", cm.total_influence, m, a, b)
        return Z, report, paths, kosko

    def check(self, i, out):
        key = self.op_key(i)
        Z, report, paths, kosko = out
        self.check_matrix(key, Z, report)
        self.check_pair(key, *self.pairs[key], paths, kosko)


class SparseChain(Workload):
    """All-pairs scoring on long chains with a few forward shortcuts."""

    name = "sparse_chain"
    op_spans = frozenset({"influence.matrix_t1", "influence.scores"})

    def generate(self):
        self.pairs, self.samples = {}, {}
        n = self.size["chain_n"]
        for k in range(self.size["chain_maps"]):
            w = np.zeros((n, n))
            w[np.arange(n - 1), np.arange(1, n)] = _weights_uniform(self.rng, n - 1)
            shortcuts = [(i, j) for i in range(n) for j in range(i + 2, n)]
            for i, j in _pick(self.rng, shortcuts, n // 10):
                w[i, j] = _weights_uniform(self.rng, 1)[0]
            key = f"chain{k}"
            self.write(key, w)
            reach = _reachable(w)
            pairs = [(a, b) for a in range(n) for b in range(n) if a != b and reach[a, b]]
            self.pairs[key] = _pick(self.rng, pairs, 1)[0]
            self.samples[key] = _pick(self.rng, pairs, 4) + [(n - 1, 0)]

    def run_op(self, i, call):
        cm = self.cm
        Z = call("influence.matrix_t1", cm.influence_matrix, self.maps[self.op_key(i)], threads=1)
        return Z, call("influence.scores", cm.general_influence, Z)

    def check(self, i, out):
        self.check_matrix(self.op_key(i), *out)


class Spectral(Workload):
    """Impulse scoring on larger maps, half of them stable and half refused.

    One op scores a stable map and is refused on an unstable one, so every op
    does the same kind of work and the median op is not the boundary between
    a fast refusal and a slower simulation.
    """

    name = "spectral"
    op_spans = frozenset({"impulse.scores"})

    def generate(self):
        n = self.size["spectral_n"]
        for k in range(self.size["spectral_pairs"]):
            for stable in (True, False):
                while True:
                    w = _random_map(self.rng, n, 0.2)
                    if stable:
                        w *= 0.8 / float(np.max(np.abs(np.linalg.eigvals(w))))
                    if oracles.verdict(w)[0] == stable:
                        break
                self.write(f"{'stable' if stable else 'unstable'}{k}", w)
        self.fixture = self.root / "src" / "cogmap" / "fixtures" / "sanitation.csv"

    def load_program(self):
        super().load_program()
        self.maps["sanitation"] = self.cm.load_map(self.fixture)
        self.pairs = {"sanitation": (0, 6)}

    @property
    def cycle(self):
        return len(self.keys) // 2

    def map_keys(self, i):
        k = i % self.cycle
        return [f"stable{k}", f"unstable{k}"]

    def op_key(self, i):
        return "+".join(self.map_keys(i))

    def run_op(self, i, call):
        return [call("impulse.scores", _impulse_or_refusal, self.cm, self.maps[key]) for key in self.map_keys(i)]

    def check(self, i, out):
        for key, res in zip(self.map_keys(i), out):
            self.check_one(key, res)

    def check_one(self, key, out):
        stable, mags = self.oracle(oracles.verdict, key)
        if isinstance(out, self.cm.MethodNotApplicableError):
            need(not stable, f"{key}: refused, but numpy finds the map stable")
            need(not out.verdict.stable, f"{key}: refusal carries a stable verdict")
            need(_magnitudes_agree(out.verdict.magnitudes, mags), f"{key}: magnitudes differ from numpy's")
            return
        need(stable, f"{key}: scored, but numpy finds the map unstable")
        want, tol = self.oracle(oracles.neumann_scores, key)
        need(
            len(out.scores) == len(want) and all(abs(x - y) <= tol for x, y in zip(out.scores, want)),
            f"{key}: impulse scores differ from the Neumann closed form",
        )
        order = tuple(v + 1 for v in sorted(range(len(want)), key=lambda v: (-out.scores[v], v)))
        need(tuple(out.ranking) == order, f"{key}: ranking does not follow the scores")

    def path_key(self, key):
        # paths on these maps number in the astronomic range; probe that layer on a fixture
        return "sanitation"

    def cli_argv(self, i):
        key = self.map_keys(i)[(i // self.cycle) % 2]  # stable and unstable maps in turn
        return ["stability", str(self.inputs[key][0]), "--format", "json"]


FIXTURES = (
    "four_stable",
    "four_unstable",
    "four_heavy",
    "city_waste",
    "electricity",
    "sanitation",
    "sanitation_doubled",
)
SUBCOMMANDS = {
    "analyze": [],
    "compare": [],
    "scale-check": ["--eta", "2"],
    "stability": [],
    "impulse": ["--scores"],
    "paths": None,  # takes the seeded --from/--to
    "kosko": None,
}


class CliFixtures(Workload):
    """Whole `python -m cogmap` processes on the bundled fixtures."""

    name = "cli_fixtures"
    whole_cycles = False
    in_process = False
    op_spans = frozenset()

    def generate(self):
        src = self.root / "src" / "cogmap" / "fixtures"
        self.golden, self.pairs = {}, {}
        for name in FIXTURES:
            dest = self.workdir / f"{name}.csv"
            shutil.copyfile(src / f"{name}.csv", dest)
            self.inputs[name] = (dest, oracles.read_csv_weights(dest))
            self.golden[name] = json.loads((src / "golden" / f"{name}.json").read_text())
            n = self.inputs[name][1].shape[0]
            self.pairs[name] = tuple(int(v) for v in self.rng.choice(n, size=2, replace=False))
        self.combos = [(f, s) for f in FIXTURES for s in SUBCOMMANDS]
        self.rng.shuffle(self.combos)

    @property
    def cycle(self):
        return len(self.combos)

    def op_key(self, i):
        return self.combos[i % len(self.combos)][0]

    def cli_argv(self, i):
        fixture, sub = self.combos[i % len(self.combos)]
        extra = SUBCOMMANDS[sub]
        if extra is None:
            a, b = self.pairs[fixture]
            extra = ["--from", str(a + 1), "--to", str(b + 1)]
        return [sub, str(self.inputs[fixture][0]), *extra, "--format", "json"]

    def exit_code(self, i):
        fixture, sub = self.combos[i % len(self.combos)]
        return 4 if sub == "impulse" and not self.golden[fixture]["stable"] else 0

    def run_op(self, i, call):
        return call(
            "cli.run",
            subprocess.run,
            [sys.executable, "-m", "cogmap", *self.cli_argv(i)],
            capture_output=True,
            text=True,
            env=self.env,
            cwd=self.workdir,
            timeout=SUBPROCESS_TIMEOUT_S,
        )

    def check(self, i, proc):
        fixture, sub = self.combos[i % len(self.combos)]
        gold = self.golden[fixture]
        w = self.inputs[fixture][1]
        need(proc.returncode == self.exit_code(i), f"{fixture} {sub}: exit {proc.returncode}: {proc.stderr[-300:]}")
        if proc.returncode == 4:
            need(not self.oracle(oracles.verdict, fixture)[0], f"{fixture}: refused, but numpy finds it stable")
            return
        doc = json.loads(proc.stdout)
        if sub == "analyze":
            self._check_influence(fixture, gold, w, doc["influence"])
            self._check_report(gold, doc["scores"], doc["ranking"])
        elif sub == "compare":
            acc = doc["accumulated"]
            self._check_report(gold, acc["scores"], acc["ranking"])
            need(doc["stable"] == gold["stable"], f"{fixture}: compare verdict")
            if gold["stable"]:
                self._check_impulse(fixture, gold, w, doc["impulse"])
                agree = doc["impulse"]["ranking"] == acc["ranking"]
                need(doc["rankings_agree"] == agree, f"{fixture}: rankings_agree")
            else:
                need(doc["impulse"] is None and doc["rankings_agree"] is None, f"{fixture}: impulse part")
        elif sub == "scale-check":
            self._check_report(gold, doc["base_scores"], doc["base_ranking"])
            chk = doc["checks"][0]
            need(chk["eta"] == 2.0 and chk["ranking_identical"], f"{fixture}: scale-check ranking")
            need(chk["max_rel_deviation"] <= ORACLE_RTOL, f"{fixture}: scale-check deviation")
            recorded = gold.get("scaled_scores", {}).get("2")
            flagged = set(gold.get("scaled_score_deviations", {}).get("2", []))
            for v, (got, base) in enumerate(zip(chk["scores"], doc["base_scores"])):
                if recorded and v + 1 not in flagged:
                    need(abs(got - recorded[v]) <= GOLDEN_TOL, f"{fixture}: x2 score of {v + 1}")
                else:
                    need(math.isclose(got, 2 * base, rel_tol=ORACLE_RTOL), f"{fixture}: x2 score of {v + 1}")
        elif sub == "stability":
            need(doc["stable"] == gold["stable"], f"{fixture}: stability verdict")
            need(
                _magnitudes_agree(doc["magnitudes"], gold["eigenvalue_magnitudes"]),
                f"{fixture}: eigenvalue magnitudes",
            )
        elif sub == "impulse":
            self._check_impulse(fixture, gold, w, doc)
        else:
            a, b = self.pairs[fixture]
            want = self.oracle(oracles.simple_paths, fixture, a, b)
            got = [tuple(v - 1 for v in e["vertices"]) for e in doc["paths"]]
            need(got == want, f"{fixture} {sub}: paths {a + 1}->{b + 1} differ from the oracle")
            weights = [[float(w[p, q]) for p, q in zip(path, path[1:])] for path in want]
            if sub == "paths":
                need(doc["count"] == len(want), f"{fixture}: path count")
                need([e["weights"] for e in doc["paths"]] == weights, f"{fixture}: path weights")
            else:
                weakest = [min(ws) for ws in weights]
                need([e["weakest"] for e in doc["paths"]] == weakest, f"{fixture}: weakest links")
                need(doc["total"] == (max(weakest) if weakest else None), f"{fixture}: kosko total")

    def _check_influence(self, fixture, gold, w, Z) -> None:
        """Golden cells within 0.005; cells flagged as recording slips, or maps
        without a golden matrix, against the oracle."""
        recorded = gold.get("influence")
        flagged = {(r - 1, c - 1) for r, c in gold.get("influence_deviations", [])}
        n = w.shape[0]
        for a in range(n):
            for b in range(n):
                if recorded is not None and (a, b) not in flagged:
                    need(abs(Z[a][b] - recorded[a][b]) <= GOLDEN_TOL, f"{fixture}: Z[{a + 1},{b + 1}]")
                elif a != b:
                    want = self.oracle(oracles.pair_influence, fixture, a, b)
                    need(
                        math.isclose(Z[a][b], want, rel_tol=ORACLE_RTOL, abs_tol=1e-12),
                        f"{fixture}: Z[{a + 1},{b + 1}] vs oracle",
                    )

    @staticmethod
    def _check_report(gold, scores, ranking) -> None:
        flagged = set(gold.get("score_deviations", []))
        for v, (got, want) in enumerate(zip(scores, gold["scores"])):
            need(v + 1 in flagged or abs(got - want) <= GOLDEN_TOL, f"{gold['name']}: score of {v + 1}")
        need(list(ranking) == list(gold["ranking"]), f"{gold['name']}: ranking {ranking}")

    def _check_impulse(self, fixture, gold, w, doc) -> None:
        need(doc["ranking"] == gold["impulse_ranking"], f"{fixture}: impulse ranking")
        if "impulse_scores" in gold:
            want, tol = gold["impulse_scores"], GOLDEN_TOL
        else:
            want, tol = self.oracle(oracles.neumann_scores, fixture)
        need(
            len(doc["scores"]) == len(want) and all(abs(x - y) <= tol for x, y in zip(doc["scores"], want)),
            f"{fixture}: impulse scores",
        )


WORKLOADS = {cls.name: cls for cls in (DensePaths, SparseChain, CliFixtures, Spectral)}
