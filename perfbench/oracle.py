"""Independent oracle and output checks for the benchmark.

The oracle works from the generator's clean arrays (``truth.npz``), never
from the program's parse of the TSV files, and shares no code with
``poprank``: it recomputes page PageRank, the block-weighted prior and the
PPF-weighted fixed point with its own numpy iteration, converged far
tighter than the program's default tolerance.

Each ``check_*`` function parses one CLI output and returns
``(errors, values)``: a list of human-readable failures (empty when the
output is correct) and the quality values the benchmark reports
(``score_err_l1``, ``violation_frac``, ``tv_distance``).
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

EPSILON = 0.15
DAMPING = 0.85
ORACLE_TOL = 1e-13
ORACLE_MAX_ITER = 5_000
# The program stops at an L1 step of 1e-10; its distance to the true fixed
# point is a few 1e-10. A score off by 1e-6 anywhere must fail.
SCORE_ERR_LIMIT = 1e-7
SUM_LIMIT = 1e-9
# Pairs closer than this in the oracle's scores may flip either way in the
# program's scores, so the violation recount accepts them as either.
TIE_BAND = 1e-9
TV_REPORT_LIMIT = 1e-12
CACHE_FILE = "oracle.npz"


def _iterate(step, start: np.ndarray) -> np.ndarray:
    r = start
    for _ in range(ORACLE_MAX_ITER):
        new = step(r)
        if float(np.abs(new - r).sum()) < ORACLE_TOL:
            return new
        r = new
    raise RuntimeError("oracle iteration did not converge")


class Truth:
    """The clean corpus as the generator made it, with the oracle's solvers."""

    def __init__(self, arrays):
        self.a = {k: np.asarray(v) for k, v in dict(arrays).items()}
        self.n = int(self.a["num_objects"])
        self.papers = int(self.a["num_papers"])
        self._prior: np.ndarray | None = None

    @classmethod
    def load(cls, corpus: Path) -> tuple["Truth", np.ndarray]:
        """The corpus's truth and the oracle's scores under the planted
        factors, both as the generator computed and cached them."""
        with np.load(corpus / "truth.npz") as arrays:
            truth = cls({k: arrays[k] for k in arrays.files})
        with np.load(corpus / CACHE_FILE) as cached:
            truth._prior = cached["prior"]
            return truth, cached["planted"]

    @property
    def relations(self) -> list[str]:
        return [k[4:] for k in self.a if k.startswith("src_")]

    def object_id(self, type_name: str, key: str) -> int:
        """Generator id of a report's (type, key), or -1 if it names no object."""
        if type_name == "paper" and key[:1] == "p" and key[1:].isdigit():
            i = int(key[1:])
            return i if i < self.papers else -1
        if type_name == "author" and key[:1] == "a" and key[1:].isdigit():
            i = int(key[1:])
            return self.papers + i if i < self.n - self.papers else -1
        return -1

    def page_rank(self) -> np.ndarray:
        n = int(self.a["num_pages"])
        src, tgt = self.a["page_src"], self.a["page_tgt"]
        out_degree = np.bincount(src, minlength=n)
        share = 1.0 / out_degree[src]
        dangling = out_degree == 0

        def step(r):
            spread = np.bincount(tgt, weights=r[src] * share, minlength=n)
            return DAMPING * (spread + r[dangling].sum() / n) + (1.0 - DAMPING) / n

        r = _iterate(step, np.full(n, 1.0 / n))
        return r / r.sum()

    def prior(self) -> np.ndarray:
        if self._prior is None:
            pages, objs = self.a["map_pages"], self.a["map_objs"]
            weights = np.where(np.isnan(self.a["map_weights"]), 1.0, self.a["map_weights"])
            page_total = np.bincount(pages, weights=weights)
            raw = np.bincount(objs, weights=self.page_rank()[pages] * weights / page_total[pages],
                              minlength=self.n)
            self._prior = raw / raw.sum()
        return self._prior

    def fixed_point(self, gamma: dict[str, float]) -> np.ndarray:
        """Stationary scores of the restart walk: from each object, pick a
        followable relation with probability proportional to its factor,
        then one of its links uniformly; restart to the prior with
        probability EPSILON, and always from an object with nothing to follow."""
        prior = self.prior()
        weight_sum = np.zeros(self.n)
        parts = []
        for name in self.relations:
            g = float(gamma[name])
            src, tgt = self.a[f"src_{name}"], self.a[f"tgt_{name}"]
            if g <= 0.0 or src.size == 0:
                continue
            degree = np.bincount(src, minlength=self.n)
            weight_sum += g * (degree > 0)
            parts.append((g, src, tgt, degree))
        src = np.concatenate([p[1] for p in parts])
        tgt = np.concatenate([p[2] for p in parts])
        prob = np.concatenate([g / weight_sum[s] / d[s] for g, s, _, d in parts])
        dangling = weight_sum == 0.0
        walk = 1.0 - EPSILON

        def step(r):
            moved = np.bincount(tgt, weights=r[src] * prob, minlength=self.n)
            return walk * (moved + r[dangling].sum() * prior) + EPSILON * prior

        r = _iterate(step, prior)
        return r / r.sum()


def parse_report(text: str) -> tuple[dict[str, str], list[list[str]]]:
    meta: dict[str, str] = {}
    rows = []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("\t")
            meta[key] = value
        elif line:
            rows.append(line.split("\t"))
    return meta, rows


def _float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


def _object_rows(truth: Truth, rows: list[list[str]], width: int, errors: list[str]) -> np.ndarray:
    """Generator ids of the rows (rank, type, key, ...), checking that they
    are numbered 1..n and name every object exactly once."""
    if len(rows) != truth.n:
        errors.append(f"report has {len(rows)} rows, corpus has {truth.n} objects")
    if any(len(row) != width for row in rows):
        errors.append(f"report rows must have {width} fields")
        return np.full(truth.n, -1)
    if [row[0] for row in rows] != [str(i) for i in range(1, len(rows) + 1)]:
        errors.append("rank column is not 1..n in order")
    ids = np.array([truth.object_id(row[1], row[2]) for row in rows], np.int64)
    if ids.size and (ids.min() < 0 or np.unique(ids).size != ids.size):
        errors.append("report rows do not name each object exactly once")
    return ids


def _check_scores(truth: Truth, ids: np.ndarray, scores: np.ndarray, expected: np.ndarray,
                  errors: list[str]) -> float:
    if not np.all(np.isfinite(scores)):
        errors.append("report has non-finite scores")
        return math.inf
    if abs(float(scores.sum()) - 1.0) > SUM_LIMIT:
        errors.append(f"scores sum to {float(scores.sum())!r}, not 1")
    if np.any(np.diff(scores) > 0.0):
        errors.append("rows are not in descending score order")
    if ids.size != truth.n or ids.min() < 0:
        return math.inf
    err = float(np.abs(scores - expected[ids]).sum())
    if not err <= SCORE_ERR_LIMIT:
        errors.append(f"score L1 error {err:.3e} exceeds {SCORE_ERR_LIMIT:.0e}")
    return err


def _converged(meta: dict[str, str], errors: list[str], *names: str) -> None:
    for name in names:
        if meta.get(f"{name}-converged") != "true":
            errors.append(f"{name} did not report convergence")


def check_rank(truth: Truth, expected: np.ndarray, text: str) -> tuple[list[str], dict]:
    errors: list[str] = []
    meta, rows = parse_report(text)
    if meta.get("command") != "rank":
        errors.append("report is not a rank report")
    _converged(meta, errors, "pagerank", "poprank")
    ids = _object_rows(truth, rows, 4, errors)
    if errors:
        return errors, {"score_err_l1": math.inf}
    scores = np.array([_float(row[3]) for row in rows])
    return errors, {"score_err_l1": _check_scores(truth, ids, scores, expected, errors)}


def check_simulate(truth: Truth, expected: np.ndarray, text: str, steps: int,
                   burn_in: int, tv_limit: float) -> tuple[list[str], dict]:
    errors: list[str] = []
    meta, rows = parse_report(text)
    if meta.get("command") != "simulate":
        errors.append("report is not a simulate report")
    _converged(meta, errors, "poprank")
    ids = _object_rows(truth, rows, 6, errors)
    if errors:
        return errors, {"score_err_l1": math.inf, "tv_distance": math.inf}
    analytic = np.array([_float(row[3]) for row in rows])
    empirical = np.array([_float(row[4]) for row in rows])
    counts = np.array([int(row[5]) for row in rows], np.int64)
    err = _check_scores(truth, ids, analytic, expected, errors)
    counted = steps - burn_in
    if int(counts.sum()) != counted:
        errors.append(f"visit counts sum to {int(counts.sum())}, not steps - burn_in = {counted}")
    if not np.array_equal(empirical, counts / counted):
        errors.append("empirical column is not counts / (steps - burn_in)")
    tv = 0.5 * float(np.abs(empirical - analytic).sum())
    if abs(tv - _float(meta.get("tv-distance", "nan"))) > TV_REPORT_LIMIT:
        errors.append(f"reported tv-distance {meta.get('tv-distance')} != recomputed {tv!r}")
    if not tv <= tv_limit:
        errors.append(f"tv-distance {tv:.4f} exceeds {tv_limit} for {steps} steps")
    return errors, {"score_err_l1": err, "tv_distance": tv}


def check_learn(truth: Truth, text: str, budget: int) -> tuple[list[str], dict]:
    """``text`` is the ppf file ``learn --out`` writes: metadata plus factors."""
    errors: list[str] = []
    meta, rows = parse_report(text)
    gamma = {row[0]: _float(row[1]) for row in rows if len(row) == 2}
    expert = truth.a["expert"]
    pairs = expert.size * (expert.size - 1) // 2
    try:
        violations = int(meta["violations"])
        total = int(meta["total-pairs"])
        evaluations = int(meta["evaluations"])
    except (KeyError, ValueError):
        return ["learn output lacks violations, total-pairs or evaluations"], {"violation_frac": math.inf}
    if meta.get("command") != "learn":
        errors.append("output is not a learn result")
    if total != pairs:
        errors.append(f"total-pairs {total} != {pairs} expert pairs")
    if not 0 < evaluations <= budget:
        errors.append(f"evaluations {evaluations} outside 1..{budget}")
    if sorted(gamma) != sorted(truth.relations) or not all(0.01 <= g <= 1.0 for g in gamma.values()):
        errors.append(f"learned factors {gamma} do not cover {truth.relations} within [0.01, 1]")
        return errors, {"violation_frac": violations / max(total, 1)}
    scores = truth.fixed_point(gamma)
    high, low = np.triu_indices(expert.size, 1)
    gap = scores[expert[high]] - scores[expert[low]]
    certain = int(np.count_nonzero(gap < -TIE_BAND))
    near = int(np.count_nonzero(np.abs(gap) <= TIE_BAND))
    if not certain <= violations <= certain + near:
        errors.append(f"reported {violations} violations, oracle counts {certain} (+{near} near-ties)")
    return errors, {"violation_frac": violations / total}


def check_diagnostics(stderr: str, planted: dict) -> list[str]:
    """The ``diag`` lines must report exactly the dirt the generator planted."""
    lines = [line.split("\t")[1:] for line in stderr.splitlines() if line.startswith("diag\t")]
    merge = [dict(f.split("=", 1) for f in fields[1:]) for fields in lines if fields[0] == "merge"]
    counts = {
        "records": int(merge[0]["records"]) if merge else None,
        "objects": int(merge[0]["objects"]) if merge else None,
        "conflicts": int(merge[0]["conflicts"]) if merge else None,
        "links_dropped": sum(1 for f in lines if f[0] == "link-dropped"),
        "link_duplicates": sum(int(f[1].split("=")[1]) for f in lines if f[0] == "link-duplicates"),
        "hyperlink_duplicates": sum(int(f[1].split("=")[1]) for f in lines
                                    if f[0] == "hyperlink-duplicates"),
    }
    errors = [f"diag {name}={got}, generator planted {planted[name]}"
              for name, got in counts.items() if got != planted[name]]
    if any(f[0] == "map-dropped" for f in lines):
        errors.append("diag reports dropped map entries; the generator planted none")
    return errors
