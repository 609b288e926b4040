"""Write the input pools and reference outputs under bench/references/.

Run from the repository root at the commit whose behaviour the benchmark
pins:

    python3 bench/capture.py

The pools are generated from a fixed seed, so rerunning this at the same
commit rewrites identical files. Every later run of the benchmark checks
its outputs against these references; rerun only when a change of
outputs is intended and documented.
"""

from __future__ import annotations

import contextlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import votebounds as vb  # noqa: E402
from votebounds import bounds, core, exact, rule  # noqa: E402

import workloads as wl  # noqa: E402

POOL_SEED = 20240723
EXACT_ALL_KINDS = wl.EXACT_EVEN_KINDS + ("biased",)


def _commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _header() -> dict:
    return {"captured_from": _commit(), "votebounds": vb.__version__,
            "numpy": np.__version__, "pool_seed": POOL_SEED}


def capture_exact() -> dict:
    entries = []
    for size in wl.EXACT_SIZES:
        for kind in wl.exact_kinds(size):
            for v in range(wl.ExactWorkload.variants):
                rng = np.random.default_rng([POOL_SEED, 0, size, EXACT_ALL_KINDS.index(kind), v])
                mapping = wl.exact_panel(rng, kind, size)
                panel = core.validate_panel(mapping)
                folded = core.fold_bias(panel)
                assert folded.n == size, (kind, size, folded.n)
                aff = exact.affinity(folded.law_given_one(), folded.law_given_zero())
                entries.append({
                    "key": wl.ExactWorkload.entry_key(size, kind, v),
                    "kind": kind,
                    "folded_n": size,
                    "panel": mapping,
                    "optimal_error": exact.optimal_error(panel),
                    "affinity": {"min_mass": aff.min_mass, "tv": aff.tv,
                                 "bhattacharyya": aff.bhattacharyya},
                    "full_report": bounds.full_report(panel, with_exact=True).to_dict(),
                })
                print(f"exact {entries[-1]['key']}", file=sys.stderr)
    return {**_header(), "entries": entries}


def capture_decide() -> dict:
    entries = []
    total_ties = 0
    for b in range(wl.DECIDE_BINS):
        lo, hi = wl.decide_bin_sizes(b)
        tie = wl.decide_is_tie_bin(b)
        for v in range(wl.DecideWorkload.variants):
            rng = np.random.default_rng([POOL_SEED, 2, b, v])
            n = int(rng.integers(lo, hi + 1))
            mapping = wl.decide_panel(rng, n, tie)
            vector_seed = [POOL_SEED, 2, b, v, 1]
            x = wl.decide_vectors(vector_seed, mapping)
            r = rule.build_rule(core.validate_panel(mapping))
            decisions = r.decide_batch(x)
            if r.decide_batch(x.tolist()) != decisions:
                raise AssertionError(f"bin {b} variant {v}: list and ndarray decisions differ")
            scores = [r.score(row) for row in x]
            ties = [i for i, s in enumerate(scores) if s == 0.0]
            if any(decisions[i] != 1 for i in ties):
                raise AssertionError(f"bin {b} variant {v}: a tie did not decide 1")
            total_ties += len(ties)
            entries.append({
                "key": f"bin{b}-{v}",
                "n": n,
                "tie_panel": tie,
                "panel": mapping,
                "vector_seed": vector_seed,
                "vectors_sha256": wl.vectors_digest(x),
                "decisions_sha256": wl.decisions_digest(decisions),
                "ones": int(sum(decisions)),
                "ties": len(ties),
            })
            print(f"decide {entries[-1]['key']} n={n} ties={len(ties)}", file=sys.stderr)
    if total_ties == 0:
        raise AssertionError("no exact score ties in the decide pool")
    return {**_header(), "entries": entries}


def _panel_text(psi, eta, p_y=0.5) -> str:
    data = {"psi": [round(float(x), 4) for x in psi], "eta": [round(float(x), 4) for x in eta]}
    if p_y != 0.5:
        data["p_y"] = round(float(p_y), 4)
    return json.dumps(data)


def _random_panel(rng, n, biased=False, symmetric=False) -> str:
    psi = rng.uniform(0.55, 0.95, n)
    eta = psi if symmetric else rng.uniform(0.55, 0.95, n)
    return _panel_text(psi, eta, rng.uniform(0.2, 0.8) if biased else 0.5)


def _csv(values) -> str:
    return ",".join(f"{x:.4f}" for x in values)


def cli_case(template: str, v: int) -> dict:
    """Arguments and input files of one CLI case; {dir} marks the input directory."""
    rng = np.random.default_rng([POOL_SEED, 3, wl.CLI_TEMPLATES.index(template), v])
    key = f"{template}-{v}"
    path = f"{{dir}}/{key}.json"
    base, _, fmt = template.partition("-")
    fmt_args = ["--format", fmt] if fmt in ("human", "json") else []
    files = {}
    biased = bool(v % 2)
    if base == "validate":
        files[f"{key}.json"] = _random_panel(rng, int(rng.integers(3, 31)), biased)
        argv = ["validate", path]
    elif base == "decide":
        n = int(rng.integers(3, 31))
        files[f"{key}.json"] = _random_panel(rng, n, biased)
        argv = ["decide", path, "--x", "".join(map(str, rng.integers(0, 2, n)))]
    elif base == "error_exact":
        n = int(rng.integers(14, 22)) - int(biased)
        files[f"{key}.json"] = _random_panel(rng, n, biased)
        argv = ["error", path]
    elif base == "bounds":
        n = int(rng.integers(14, 22)) - int(biased)
        files[f"{key}.json"] = _random_panel(rng, n, biased, symmetric=(v == 0))
        argv = ["bounds", path, "--with-exact"]
    elif base == "tv":
        n = int(rng.integers(2, 13))
        argv = ["tv", "--p", _csv(rng.uniform(0.05, 0.95, n)),
                "--q", _csv(rng.uniform(0.05, 0.95, n))]
    elif base == "sweep":
        eps = sorted(rng.uniform(0.001, 0.3, int(rng.integers(3, 7))), reverse=True)
        argv = ["sweep", "--kind", ("asym", "sym")[v % 2], "--eps", _csv(eps)]
    elif base == "simulate":
        files[f"{key}.json"] = _random_panel(rng, int(rng.integers(10, 31)), biased)
        argv = ["simulate", path, "--trials", str(1 << 16), "--seed", str(int(rng.integers(1 << 31)))]
    elif base == "error_mc":
        files[f"{key}.json"] = _panel_text(rng.uniform(0.5, 0.7, 40), rng.uniform(0.5, 0.7, 40))
        argv = ["error", path, "--method", "mc", "--trials", str(1 << 17),
                "--seed", str(int(rng.integers(1 << 31)))]
    elif base == "bad_json":
        text = _random_panel(rng, int(rng.integers(3, 10)))
        files[f"{key}.json"] = text[: int(rng.integers(5, len(text) - 2))]
        argv = [("validate", "error", "bounds")[v], path]
    elif base == "bad_psi":
        n = int(rng.integers(3, 10))
        psi = rng.uniform(0.55, 0.95, n)
        psi[int(rng.integers(n))] = (1.5, -0.2, 1.0001)[v]
        files[f"{key}.json"] = _panel_text(psi, rng.uniform(0.55, 0.95, n))
        argv = [("validate", "error", "bounds")[v], path]
    elif base == "over_cap":
        n = int(rng.integers(25, 41)) - int(biased)
        files[f"{key}.json"] = _random_panel(rng, n, biased)
        argv = ["error", path]
    elif base == "trials_without_mc":
        files[f"{key}.json"] = _random_panel(rng, int(rng.integers(3, 10)))
        argv = ["error", path, "--trials", str(int(rng.integers(100, 10000)))]
    elif base == "boundary_mc":
        if v == 0:
            # The panel named in the ROADMAP "Exact panel reduction" item.
            files[f"{key}.json"] = json.dumps({"psi": [1.0, 0.7], "eta": [0.8, 0.6]})
        else:
            n = int(rng.integers(2, 9))
            psi = rng.uniform(0.55, 0.95, n)
            psi[int(rng.integers(n))] = float(v % 2)
            files[f"{key}.json"] = _panel_text(psi, rng.uniform(0.55, 0.95, n))
        argv = ["error", path, "--method", "mc", "--trials", str(1 << 17),
                "--seed", str(int(rng.integers(1 << 31)))]
        fmt_args = ["--format", "json"]
    else:
        raise ValueError(template)
    return {"key": key, "template": template, "argv": argv + fmt_args, "files": files}


EXPECTED_CODES = {"bad_json": 1, "bad_psi": 1, "over_cap": 1, "trials_without_mc": 2}


def capture_cli() -> dict:
    cases = [cli_case(t, v) for t in wl.CLI_TEMPLATES for v in range(wl.CliWorkload.variants)]
    env = wl.cli_env(ROOT)
    work_root = ROOT / wl.WORK_DIR_NAME
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as tmp:
        workdir = Path(tmp)
        wl.write_cli_files(cases, workdir)
        for case in cases:
            inv = wl.invoke(wl.cli_argv(case, workdir), ROOT, env, workdir)
            base = case["template"].partition("-")[0]
            if base == wl.CLI_KNOWN_DEFECT:
                panel = core.validate_panel(json.loads(case["files"][f"{case['key']}.json"]))
                case["exact_error"] = exact.optimal_error(panel)
            elif inv.code != EXPECTED_CODES.get(base, 0):
                raise AssertionError(f"{case['key']}: exit {inv.code}: {inv.stderr}")
            if inv.code != 0 and not inv.stderr.strip():
                raise AssertionError(f"{case['key']}: exit {inv.code} with empty stderr")
            case["code"] = inv.code
            case["stdout"] = inv.stdout
            print(f"cli {case['key']} exit {inv.code}", file=sys.stderr)
    with contextlib.suppress(OSError):
        work_root.rmdir()
    return {**_header(), "cases": cases}


def main() -> int:
    wl.REF_DIR.mkdir(exist_ok=True)
    for name, fn in (("exact", capture_exact), ("decide", capture_decide), ("cli", capture_cli)):
        data = fn()
        items_key = "cases" if name == "cli" else "entries"
        items = data.pop(items_key)
        # One entry per line keeps the files diffable.
        lines = [json.dumps(data)[:-1] + f', "{items_key}": [']
        lines += [json.dumps(item) + ("," if i < len(items) - 1 else "")
                  for i, item in enumerate(items)]
        lines.append("]}")
        (wl.REF_DIR / f"{name}.json").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
