"""Seeded inputs, request rounds and output checks for the three workloads.

A workload run is a closed loop over an endless sequence of rounds. Round r
is built from ``random.Random(f"{workload}:{seed}:{r}")`` and holds a fixed
multiset of request shapes (sizes, caps, trial counts); the seed chooses
the values inside each stratum, rotations, jitter, per-request game seeds
and the order. Keeping the shapes fixed per round makes the cost of a round
the same for every seed, so the spread between seeds measures the program,
not the draw. Round 0 also carries the once-per-run requests (the paper's
N = 131, ``table``) and the malformed-input share.

Input files are written by :func:`generate` in a separate process (see
``setup_inputs.py``); the request loop reads only ``manifest.json`` and
hands povmquad file paths and argv.
"""
from __future__ import annotations

import json
import math
import random
import shutil
from pathlib import Path

import numpy as np
from povmquad import (
    FinitePovm,
    SphericalQuadrature,
    ingest_pointset,
    povm_to_json,
    product_rule,
)

# Exit codes documented by the povmquad CLI.
DOCUMENTED_EXIT_CODES = frozenset({0, 1, 2, 3, 64, 65})

# construct: the N of one round as (lo, hi, count) strata; the seed picks N
# inside a stratum. Every round has the same shapes, and whole rounds are
# timed, so the sorted latencies of a run repeat the same blocks: the median
# falls among the five N = 15 requests and the tail (eleventh largest) among
# the three N = 40 ones, where the scalar probes dominate. The median is
# not put among the N <= 9 requests: their cost is mostly interpreter
# overhead and file I/O, which vary most with the load of a shared host.
CONSTRUCT_STRATA = ((1, 9, 4), (15, 15, 5), (22, 22, 1), (30, 30, 1), (40, 40, 3))
# Warm-up round only: the first N past the size branches of the code
# (N > 50 log-binomial Dicke rows in the operator check; N > 64 exp/log
# powers) and the paper's N = 131, which also skips the operator check
# (N > 60).
CONSTRUCT_ANCHORS = (51, 65, 131)

# certify: product-rule orders ingested every round (count per round; the
# copies of a multi-copy order alternate plain and rotated), two jittered
# non-exact sets and a bundled grid at a high cap. Six requests cost less
# than the six order-36 ones and nine cost more, so the median falls in the
# upper half of the order-36 block. The tail falls among the order-80 rules
# (n = 3321, ingest-bound) and the cap-400 grid (recurrence-bound), which
# cost about the same.
CERTIFY_ORDERS = {1: 1, 4: 1, 9: 1, 16: 1, 25: 1, 36: 6, 49: 1, 56: 1, 64: 1, 76: 1, 80: 3}
CERTIFY_JITTER_ORDERS = (20, 44)
CERTIFY_HIGH_CAP = 400
# Warm-up round only: both copies of the paper's order-131 rule (n = 8712),
# where the O(n^2) duplicate scan of ingest dominates, and a bundled grid at
# cap 600.
CERTIFY_LARGE_ORDERS = (131,)
CERTIFY_TOP_CAP = 600
# Strength of the bundled grids (Lebedev-Laikov orders; designs by symmetry).
GRID_STRENGTH = {
    "design_0002.txt": 1,
    "design_0004.txt": 2,
    "design_0006.txt": 3,
    "design_0012.txt": 5,
    "lebedev_0006.txt": 3,
    "lebedev_0014.txt": 5,
    "lebedev_0026.txt": 7,
    "lebedev_0038.txt": 9,
    "lebedev_0050.txt": 11,
    "lebedev_0074.txt": 13,
    "lebedev_0086.txt": 15,
}
SIGNED_GRIDS = frozenset({"lebedev_0074.txt"})
# `table` column "lebedev": smallest bundled rule of exact order N.
LEBEDEV_COUNTS = {3: 6, 5: 14, 7: 26, 9: 38, 11: 50, 13: 74, 15: 86}

# simulate: POVM files per N, one from the product rule of order N and one
# from a different rule of the same N with another element count. Trials
# per file are set so every request of one N does the same overlap work.
# Each file runs REPEATS[N] times per round: six requests cost less than
# the four N = 10 ones and eight cost more, so the median falls in the
# upper half of the N = 10 block, and the tail among the N = 30 requests.
SIMULATE_COPIES = (1, 3, 10, 20, 30)
SIMULATE_ALT_GRID = {1: "design_0004.txt", 3: "design_0006.txt", 10: "lebedev_0050.txt"}
SIMULATE_WORK = {1: 40_000, 3: 200_000, 10: 1_000_000, 20: 3_000_000, 30: 8_000_000}
SIMULATE_REPEATS = {1: 1, 3: 2, 10: 2, 20: 2, 30: 2}

# Rounds replayed by the traced run (a fixed request set, so counts repeat);
# round 0 is the warm-up round with the once-per-run requests.
TRACE_ROUNDS = {"construct": 1, "certify": 2, "simulate": 6}

SMOKE_CONSTRUCT_STRATA = ((1, 4, 2), (5, 8, 1))
SMOKE_CERTIFY_ORDERS = {4: 1, 9: 2}
SMOKE_SIMULATE_COPIES = (1, 3)
SMOKE_TRIALS = 500


def _product_rule_count(order: int) -> int:
    return (order + 1) * ((order + 2) // 2)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _xyz(q):
    st = np.sin(q.theta)
    return np.stack((st * np.cos(q.phi), st * np.sin(q.phi), np.cos(q.theta)), axis=1)


def _point_lines(xyz, weights):
    return [f"{_fmt(x)} {_fmt(y)} {_fmt(z)} {_fmt(w)}" for (x, y, z), w in zip(xyz, weights)]


def _write_lines(path: Path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def _rotation(rng):
    """Rotation matrix from a random unit quaternion."""
    a, b, c, d = rng.normal(size=4)
    norm = math.sqrt(a * a + b * b + c * c + d * d)
    a, b, c, d = a / norm, b / norm, c / norm, d / norm
    return np.array(
        [
            [a * a + b * b - c * c - d * d, 2 * (b * c - a * d), 2 * (b * d + a * c)],
            [2 * (b * c + a * d), a * a - b * b + c * c - d * d, 2 * (c * d - a * b)],
            [2 * (b * d - a * c), 2 * (c * d + a * b), a * a - b * b - c * c + d * d],
        ]
    )


def _povm_json(copies: int, q) -> str:
    """POVM file of the rule q for `copies`, c_k = (N+1) w_k / (4 pi)."""
    c = (copies + 1) / (4.0 * math.pi) * q.weights
    return povm_to_json(FinitePovm(copies=copies, c=c, theta=q.theta, phi=q.phi))


def _bad_povm_files(out: Path, rng) -> dict:
    """The three malformed POVM files of ROADMAP item 5."""
    base = json.loads(_povm_json(3, product_rule(3)))
    payloads = {
        "n_not_int": dict(base, n="x"),
        "N_fractional": dict(base, N=base["N"] - float(rng.uniform(0.1, 0.9))),
    }
    # NaN on the last element: the sampler's cumulative sums then hide it
    # and `simulate` exits 0 (ROADMAP item 5's silent wrong verdict).
    bad = json.loads(json.dumps(base))
    bad["elements"][-1]["c"] = float("nan")
    payloads["c_nan"] = bad
    paths = {}
    for kind, payload in payloads.items():
        paths[kind] = f"bad_{kind}.json"
        (out / paths[kind]).write_text(json.dumps(payload, indent=1) + "\n", encoding="ascii")
    return paths


def _construct_files(out: Path, rng, grids: Path, smoke: bool) -> dict:
    return {"bad_povm": _bad_povm_files(out, rng)}


def _certify_files(out: Path, rng, grids: Path, smoke: bool) -> dict:
    counts = dict(SMOKE_CERTIFY_ORDERS if smoke else CERTIFY_ORDERS)
    if not smoke:
        counts.update(dict.fromkeys(CERTIFY_LARGE_ORDERS, 0))
    rules = []
    for order, count in counts.items():
        q = product_rule(order)
        xyz = _xyz(q)
        names = {"plain": f"pr_{order:03d}.txt", "rotated": f"pr_{order:03d}_rot.txt"}
        _write_lines(out / names["plain"], _point_lines(xyz, q.weights))
        _write_lines(out / names["rotated"], _point_lines(xyz @ _rotation(rng).T, q.weights))
        rules.append({"order": order, "n": q.n, "count": count, **names})
    jitter = []
    for order in () if smoke else CERTIFY_JITTER_ORDERS:
        q = product_rule(order)
        xyz = _xyz(q) + rng.normal(scale=1e-3, size=(q.n, 3))
        xyz /= np.sqrt((xyz * xyz).sum(axis=1))[:, None]
        jitter.append({"order": order, "file": f"jitter_{order:03d}.txt"})
        _write_lines(out / jitter[-1]["file"], _point_lines(xyz, q.weights))
    for name in GRID_STRENGTH:
        shutil.copyfile(grids / name, out / name)
    # Malformed point files, each one edit away from a small valid rule.
    q = product_rule(6)
    rows = _point_lines(_xyz(q), q.weights)
    i, j = sorted(int(k) for k in rng.choice(np.arange(1, len(rows)), size=2, replace=False))
    x, y, z, w = (float(v) for v in rows[i].split())
    off_unit = _point_lines([(1.001 * x, 1.001 * y, 1.001 * z)], [w])
    bad = {
        "duplicate": rows[:j] + [rows[i]] + rows[j:],
        "off_unit": rows[:i] + off_unit + rows[i + 1:],
        "columns": rows[:j] + [rows[j] + " 0.5"] + rows[j + 1:],
    }
    for kind, lines in bad.items():
        _write_lines(out / f"bad_{kind}.txt", lines)
    return {
        "rules": rules,
        "jitter": jitter,
        "grids": sorted(GRID_STRENGTH),
        "bad_points": {kind: f"bad_{kind}.txt" for kind in bad},
    }


def _simulate_files(out: Path, rng, grids: Path, smoke: bool) -> dict:
    povms = []
    for copies in SMOKE_SIMULATE_COPIES if smoke else SIMULATE_COPIES:
        alt = SIMULATE_ALT_GRID.get(copies)
        if alt is not None:
            lines = (grids / alt).read_text(encoding="ascii").splitlines()
            mode = "explicit" if alt.startswith("lebedev") else "uniform"
            other = ingest_pointset(lines, mode, label=alt)
        else:
            # No bundled grid is exact to this order: a randomly rotated
            # product rule of the next order has more elements and no
            # latitude rings.
            q = product_rule(copies + 1)
            xyz = _xyz(q) @ _rotation(rng).T
            theta = np.arccos(np.clip(xyz[:, 2], -1.0, 1.0))
            phi = np.mod(np.arctan2(xyz[:, 1], xyz[:, 0]), 2 * math.pi)
            other = SphericalQuadrature(theta, phi, q.weights)
        for kind, q in (("product", product_rule(copies)), ("alt", other)):
            name = f"povm_{copies:02d}_{kind}.json"
            (out / name).write_text(_povm_json(copies, q), encoding="ascii")
            povms.append({"N": copies, "n": q.n, "file": name})
    return {"povms": povms, "bad_povm": _bad_povm_files(out, rng)}


_FILES = {"construct": _construct_files, "certify": _certify_files, "simulate": _simulate_files}


def generate(workload: str, seed: int, out: Path, grids: Path, smoke: bool = False) -> dict:
    """Write the workload's input files and manifest.json into `out`."""
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(random.Random(f"{workload}:{seed}:files").getrandbits(63))
    manifest = {"workload": workload, "seed": seed, "smoke": smoke}
    manifest.update(_FILES[workload](out, rng, grids, smoke))
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n", encoding="ascii")
    return manifest


# ---------------------------------------------------------------- requests
#
# A request is {"label": str, "steps": [(argv, check), ...]}; its latency is
# the wall time of all its steps. A check is a tuple whose first item names
# the rule in :func:`check_step`.


def _request(label, *steps):
    return {"label": label, "steps": list(steps)}


def _malformed(label, argv):
    return _request(f"malformed:{label}", (argv, ("malformed",)))


def _construct_round(rng, work: Path, manifest, r: int):
    strata = SMOKE_CONSTRUCT_STRATA if manifest["smoke"] else CONSTRUCT_STRATA
    sizes = [rng.randint(lo, hi) for lo, hi, count in strata for _ in range(count)]
    if r == 0 and not manifest["smoke"]:
        sizes += list(CONSTRUCT_ANCHORS)
    requests = []
    for copies in sizes:
        out = str(work / f"out_{copies:03d}.json")
        label = "anchor" if copies > 50 else ("small" if copies <= 9 else "mid")
        if copies == CONSTRUCT_STRATA[-1][0] and not manifest["smoke"]:
            label = "top"
        requests.append(
            _request(
                label,
                (["construct", str(copies), "--out", out], ("construct", copies)),
                (["score", out], ("score", copies)),
            )
        )
    if r == 0:
        bad = manifest["bad_povm"]
        for kind in sorted(bad):
            requests.append(_malformed(f"povm_{kind}", ["score", str(work / bad[kind])]))
        argvs = [
            ["construct", "0"],
            ["construct", str(rng.randint(2, 9)) + ".5"],
            ["construct", str(rng.randint(1, 9)), "--format", "xml"],
            ["score"],
        ]
        for argv in rng.sample(argvs, 2):
            requests.append(_malformed("argv", argv))
    rng.shuffle(requests)
    return requests


def _certify_request(rng, path: str, known: int, cap: int, label: str, signed=False):
    extra = ["--signed"] if signed else []
    if rng.random() < 0.5:
        return _request(
            label, (["strength", path, "--cap", str(cap)] + extra, ("strength", known, cap))
        )
    expect = known if rng.random() < 0.75 else known + 1
    argv = ["certify", path, "--lmax", str(cap), "--expect", str(expect)] + extra
    return _request(label, (argv, ("certify", known, cap, expect)))


def _certify_round(rng, work: Path, manifest, r: int):
    requests = []
    for rule in manifest["rules"]:
        order, count = rule["order"], rule["count"]
        copies = [rule["plain"], rule["rotated"]]
        if count == 0:  # a large rule: both copies, warm-up round only
            names = copies if r == 0 else []
        elif count == 1:
            names = [rng.choice(copies)]
        else:
            rng.shuffle(copies)
            names = [copies[k % 2] for k in range(count)]
        for name in names:
            cap = order + rng.randint(1, 3)
            label = "large" if count == 0 else "rule"
            requests.append(_certify_request(rng, str(work / name), order, cap, label))
    caps = [] if manifest["smoke"] else [CERTIFY_HIGH_CAP]
    if r == 0 and not manifest["smoke"]:
        caps.append(CERTIFY_TOP_CAP)
    for cap in caps:
        name = rng.choice(manifest["grids"])
        requests.append(
            _certify_request(
                rng, str(work / name), GRID_STRENGTH[name], cap, "highcap",
                signed=name in SIGNED_GRIDS,
            )
        )
    for item in manifest["jitter"]:
        order = item["order"]
        # A jittered rule is exact for no order; asking for the order of
        # the rule it came from must fail verification (exit 1).
        argv = ["certify", str(work / item["file"]), "--lmax", str(order + 2),
                "--expect", str(order)]
        requests.append(_request("jitter", (argv, ("certify", 0, order + 2, order))))
    if r == 0:
        requests.append(_request("table", (["table", "--nmax", "15"], ("table", 15))))
        bad = manifest["bad_points"]
        for kind in sorted(bad):
            argv = ["certify", str(work / bad[kind]), "--lmax", "8"]
            requests.append(_malformed(f"points_{kind}", argv))
        good = str(work / manifest["rules"][0]["plain"])
        argvs = [
            ["certify", good, "--lmax", "0"],
            ["strength", good, "--cap", "x"],
            ["certify", good, "--weights", "bogus"],
            ["certify"],
        ]
        for argv in rng.sample(argvs, 2):
            requests.append(_malformed("argv", argv))
    rng.shuffle(requests)
    return requests


def _simulate_round(rng, work: Path, manifest, r: int):
    requests = []
    for item in manifest["povms"]:
        copies = item["N"]
        trials = SMOKE_TRIALS if manifest["smoke"] else SIMULATE_WORK[copies] // item["n"]
        for _ in range(SIMULATE_REPEATS[copies]):
            argv = ["simulate", str(work / item["file"]), "--trials", str(trials),
                    "--seed", str(rng.getrandbits(63))]
            requests.append(_request(f"N{copies}", (argv, ("simulate", copies, trials))))
    if r == 0:
        bad = manifest["bad_povm"]
        for kind in sorted(bad):
            argv = ["simulate", str(work / bad[kind]), "--trials", "1000", "--seed", "1"]
            requests.append(_malformed(f"povm_{kind}", argv))
        good = str(work / manifest["povms"][0]["file"])
        argvs = [
            ["simulate", good, "--trials", "1000"],
            ["simulate", good, "--trials", "0", "--seed", "3"],
            ["simulate", good, "--trials", "1000", "--seed", "-5"],
        ]
        for argv in rng.sample(argvs, 2):
            requests.append(_malformed("argv", argv))
    rng.shuffle(requests)
    return requests


_ROUNDS = {
    "construct": _construct_round,
    "certify": _certify_round,
    "simulate": _simulate_round,
}


def round_requests(workload: str, seed: int, work: Path, manifest, r: int):
    """The requests of round r, in order."""
    rng = random.Random(f"{workload}:{seed}:{r}")
    return _ROUNDS[workload](rng, work, manifest, r)


# ------------------------------------------------------------------ checks


def _field(out: str, key: str) -> str:
    for line in out.splitlines():
        if line.startswith(key + ":"):
            return line.split(":", 1)[1].strip()
    raise ValueError(f"no {key!r} line")


def _table_rows(out: str):
    """Rows of the text table as dicts, cut at the header's column starts."""
    lines = out.splitlines()
    header = lines[0]
    names = header.split()
    starts = [header.index(" " + name) + 1 if i else 0 for i, name in enumerate(names)]
    bounds = list(zip(starts, starts[1:] + [None]))
    return [
        {name: line[a:b].strip() for name, (a, b) in zip(names, bounds)}
        for line in lines[1:]
    ]


def check_step(check, code: int, out: str) -> str | None:
    """None if (exit code, stdout) is right for this step, else the reason."""
    rule = check[0]
    if code not in DOCUMENTED_EXIT_CODES:
        return f"undocumented exit code {code}"
    if rule == "malformed":
        return "exit 0 on malformed input" if code == 0 else None
    try:
        if rule == "construct":
            copies = check[1]
            if code != 0:
                return f"exit {code}"
            n = int(_field(out, "n"))
            if n != _product_rule_count(copies):
                return f"n = {n}, expected {_product_rule_count(copies)}"
            score = float(_field(out, "score_exact"))
            if not abs(score - (copies + 1) / (copies + 2)) <= 1e-12:
                return f"score_exact = {score!r}"
        elif rule == "score":
            copies = check[1]
            if code != 0:
                return f"exit {code}"
            score = float(_field(out, "score_exact"))
            if not abs(score - (copies + 1) / (copies + 2)) <= 1e-12:
                return f"score_exact = {score!r}"
        elif rule == "strength":
            known, cap = check[1], check[2]
            if code != 0:
                return f"exit {code}"
            found = int(out.strip())
            if found != min(known, cap):
                return f"strength {found}, expected {min(known, cap)}"
        elif rule == "certify":
            known, cap, expect = check[1], check[2], check[3]
            found = int(_field(out, "strength"))
            if found != min(known, cap):
                return f"strength {found}, expected {min(known, cap)}"
            want = 0 if found >= expect else 1
            if code != want:
                return f"exit {code}, expected {want}"
        elif rule == "table":
            nmax = check[1]
            if code != 0:
                return f"exit {code}"
            rows = _table_rows(out)
            if [row["N"] for row in rows] != [str(k) for k in range(1, nmax + 1)]:
                return "table rows"
            for copies, row in enumerate(rows, start=1):
                if row["legendre"] != str(_product_rule_count(copies)):
                    return f"legendre count at N = {copies}"
                lebedev = LEBEDEV_COUNTS.get(copies, "")
                if row["lebedev"] != str(lebedev):
                    return f"lebedev count at N = {copies}"
        elif rule == "simulate":
            copies, trials = check[1], check[2]
            if code != 0:
                return f"exit {code}"
            if int(_field(out, "N")) != copies or int(_field(out, "trials")) != trials:
                return "simulate header"
            mean = float(_field(out, "mean_score"))
            sigma = float(_field(out, "std_error"))
            expected = (copies + 1) / (copies + 2)
            # printed with 6 decimals / 4 significant digits
            if not abs(mean - expected) < 5.0 * sigma * (1 + 1e-3) + 1e-6:
                return f"mean {mean} off {expected} by more than 5 sigma ({sigma})"
        else:
            return f"unknown check {rule!r}"
    except (ValueError, IndexError) as exc:
        return f"unparseable output: {exc}"
    return None
