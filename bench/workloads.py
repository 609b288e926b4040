"""Seeded workloads of the votebounds benchmark.

Each workload is an endless, seeded stream of operations. An operation
calls public functions of the package, and its outcome is checked:

* ``ok``: the output matches the reference captured from the commit that
  defined the benchmark (``references/*.json``, written by
  ``capture.py``), or passes the statistical check for Monte Carlo;
* ``defect``: a documented-legal input is refused in the way a known,
  documented defect refuses it (see README.md, "Known defects");
* ``fail``: anything else, including an unexpected exception.

The inputs of ``exact``, ``decide`` and ``cli`` come from fixed pools
whose contents sit in the reference files; ``sampling`` draws fresh
panels. The run seed picks pool entries, panel contents, Monte Carlo
seeds and the order of ops. Streams are made of blocks with a fixed cost
composition (sizes, operation kinds, input types, where the known-defect
input sits), and a run always ends on a block boundary. So runs with
different seeds do the same mix of work, and the latency percentiles
compare like with like; the seed changes which inputs carry the work.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
REF_DIR = BENCH_DIR / "references"

OK, DEFECT, FAIL = "ok", "defect", "fail"

# Exact values must match the reference within this relative tolerance,
# the cross-worker spread the acceptance tests allow. The absolute floor
# only matters for values that are exactly 0 at the reference.
REL_TOL = 1e-12
ABS_TOL = 1e-15

# Message of the known boundary-panel defect of estimate_min_mass.
INTERIOR_REFUSAL = "sampling law must be interior"

WORKLOADS = ("exact", "sampling", "decide", "cli")

# Scratch directory for CLI input files, at the root of the checkout.
WORK_DIR_NAME = ".bench_work"


@dataclass
class Op:
    """One operation of a stream.

    ``prepare`` builds its input and runs untimed; ``run`` is the timed
    call into the package; ``check(result, exc)`` classifies the outcome
    as (OK | DEFECT | FAIL, reason). ``work`` is the domain work the op
    completes when it succeeds.
    """

    key: str
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any, BaseException | None], tuple[str, str]]
    work: float
    prepare: Callable[[], None] = lambda: None
    inprocess: Callable[[], Any] | None = None


def run_rng(seed: int, workload: str) -> np.random.Generator:
    """The generator every seeded choice of one workload's stream draws from."""
    tag = WORKLOADS.index(workload)
    return np.random.default_rng([int(seed) & 0xFFFFFFFF, tag])


def load_refs(workload: str) -> dict:
    with open(REF_DIR / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


def close(value: float, ref: float) -> bool:
    return math.isclose(value, ref, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def stream_digest(blocks: Iterator[list[Op]], count: int) -> str:
    """SHA-256 over the keys of the ops in the first ``count`` blocks.

    Op keys name the pool entry, sizes, trials and Monte Carlo seed, so
    the digest identifies the seeded input stream.
    """
    h = hashlib.sha256()
    for _, block in zip(range(count), blocks):
        for op in block:
            h.update(op.key.encode())
            h.update(b"\n")
    return h.hexdigest()


def _ok_if(cond: bool, reason: str) -> tuple[str, str]:
    return (OK, "") if cond else (FAIL, reason)


def _unexpected(exc: BaseException) -> tuple[str, str]:
    return FAIL, f"{type(exc).__name__}: {exc}"


# --------------------------------------------------------------------------
# exact


EXACT_SIZES = (20, 21, 22, 23, 24)
EXACT_EVEN_KINDS = ("asymmetric", "symmetric", "boundary", "uninformative", "duplicate")
# Per size, one block holds these ops: about 1/2 optimal_error,
# 1/4 affinity and 1/4 full_report.
EXACT_OP_SLOTS = ("optimal_error", "optimal_error", "affinity", "full_report")


def exact_kinds(size: int) -> tuple[str, ...]:
    """Odd folded sizes come from a biased prior folding into one more expert."""
    return ("biased",) if size % 2 else EXACT_EVEN_KINDS


def exact_panel(rng: np.random.Generator, kind: str, folded_n: int) -> dict:
    """A panel mapping of the given kind whose folded size is ``folded_n``."""
    n = folded_n - 1 if kind == "biased" else folded_n
    psi = rng.uniform(0.55, 0.95, n)
    eta = rng.uniform(0.55, 0.95, n)
    p_y = 0.5
    if kind == "biased":
        p_y = float(rng.choice([rng.uniform(0.15, 0.45), rng.uniform(0.55, 0.85)]))
    elif kind == "symmetric":
        eta = psi.copy()
    elif kind == "boundary":
        # One of psi/eta at 0 or 1, never both, so the laws keep a
        # common support.
        for i in rng.choice(n, int(rng.integers(1, 4)), replace=False):
            target = psi if rng.random() < 0.5 else eta
            target[i] = float(rng.integers(0, 2))
    elif kind == "uninformative":
        # Dyadic psi makes eta = 1 - psi exact, so p_i == q_i exactly.
        for i in rng.choice(n, int(rng.integers(2, 6)), replace=False):
            psi[i] = int(rng.integers(1, 64)) / 64
            eta[i] = 1.0 - psi[i]
    elif kind == "duplicate":
        types = int(rng.integers(3, 7))
        pick = rng.integers(0, types, n)
        psi, eta = psi[:types][pick], eta[:types][pick]
    return {"psi": psi.tolist(), "eta": eta.tolist(), "p_y": p_y}


def _same_report(got: dict, ref: dict) -> str:
    if set(got) != set(ref):
        return f"report keys {sorted(got)} != {sorted(ref)}"
    for key, want in ref.items():
        value = got[key]
        if want is None or value is None or isinstance(want, int):
            if value != want:
                return f"report[{key}] = {value!r}, expected {want!r}"
        elif isinstance(want, list):
            if len(value) != len(want) or not all(map(close, value, want)):
                return f"report[{key}] differs from the reference"
        elif not close(value, want):
            return f"report[{key}] = {value!r}, expected {want!r}"
    return ""


class ExactWorkload:
    """Exact enumeration near the cap, with every panel-reduction shape."""

    name = "exact"
    work_unit = "hypercube points (2^n of the folded panel)"
    variants = 4

    def __init__(self, vb, seed: int):
        self.vb = vb
        self.seed = seed
        self.entries = {e["key"]: e for e in load_refs("exact")["entries"]}

    @staticmethod
    def entry_key(size: int, kind: str, variant: int) -> str:
        return f"n{size}-{kind}-{variant}"

    def _op(self, kind: str, key: str) -> Op:
        vb = self.vb
        entry = self.entries[key]
        mapping = entry["panel"]

        def run():
            panel = vb.core.validate_panel(mapping)
            if kind == "optimal_error":
                return vb.exact.optimal_error(panel)
            if kind == "affinity":
                folded = vb.core.fold_bias(panel)
                return vb.exact.affinity(folded.law_given_one(), folded.law_given_zero())
            return vb.bounds.full_report(panel, with_exact=True).to_dict()

        def check(result, exc):
            if exc is not None:
                return _unexpected(exc)
            if kind == "optimal_error":
                return _ok_if(close(result, entry["optimal_error"]),
                              f"optimal_error {result!r} != {entry['optimal_error']!r}")
            if kind == "affinity":
                for name in ("min_mass", "tv", "bhattacharyya"):
                    want = entry["affinity"][name]
                    if not close(getattr(result, name), want):
                        return FAIL, f"affinity.{name} {getattr(result, name)!r} != {want!r}"
                return OK, ""
            reason = _same_report(result, entry["full_report"])
            return (FAIL, reason) if reason else (OK, "")

        return Op(key=f"{kind}:{key}", kind=kind, run=run, check=check,
                  work=float(2 ** entry["folded_n"]))

    def _slot_key(self, rng, size: int) -> str:
        kinds = exact_kinds(size)
        kind = kinds[int(rng.integers(len(kinds)))]
        return self.entry_key(size, kind, int(rng.integers(self.variants)))

    def warmup(self) -> Op:
        rng = run_rng(self.seed + 1, self.name)
        return self._op("optimal_error", self._slot_key(rng, EXACT_SIZES[0]))

    def stream(self) -> Iterator[list[Op]]:
        """Blocks of 20: every size with every op slot, kinds drawn per slot."""
        rng = run_rng(self.seed, self.name)
        slots = [(size, kind) for size in EXACT_SIZES for kind in EXACT_OP_SLOTS]
        while True:
            yield [self._op(slots[i][1], self._slot_key(rng, slots[i][0]))
                   for i in rng.permutation(len(slots))]


# --------------------------------------------------------------------------
# sampling


# Two workers, as on the 2-core machine the benchmark was defined on, but
# never more threads than the CPUs this process may use.
SAMPLING_WORKERS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                       else os.cpu_count() or 1)
SAMPLING_SIGMAS = 5.0
# A block has 15 fresh slots, stratified by size over [30, 64], then one
# repeat of slot 0. Slot s draws trials from SAMPLING_TRIALS[(7 s) % 15]:
# mostly 2^18, some 2^19 and 2^20, spread over the sizes. Odd slots add an
# offset so the count is not a multiple of BLOCK_SIZE.
SAMPLING_FRESH = 15
SAMPLING_TRIALS = (1 << 18,) * 9 + (1 << 19,) * 4 + (1 << 20,) * 2
SAMPLING_BOUNDARY_SLOT = 4
SAMPLING_BIASED_SLOTS = (9, 13)


def sampling_panel(rng: np.random.Generator, n: int, variant: str) -> dict:
    """Weak experts, so the error stays in a range the estimators resolve.

    ``biased`` panels are symmetric (psi = eta), for which the folded
    error equals the risk at the panel's own prior, so the statistical
    check between the two estimators still holds. ``boundary`` panels put
    one psi at 0 or 1.
    """
    psi = rng.uniform(0.5, 0.7, n)
    eta = rng.uniform(0.5, 0.7, n)
    p_y = 0.5
    if variant == "biased":
        eta = psi.copy()
        p_y = float(rng.choice([rng.uniform(0.2, 0.4), rng.uniform(0.6, 0.8)]))
    elif variant == "boundary":
        psi[int(rng.integers(n))] = float(rng.integers(0, 2))
    return {"psi": psi.tolist(), "eta": eta.tolist(), "p_y": p_y}


class SamplingWorkload:
    """Monte Carlo past the enumeration cap, fanned out over two workers."""

    name = "sampling"
    work_unit = "Monte Carlo trials (both estimators)"

    def __init__(self, vb, seed: int):
        self.vb = vb
        self.seed = seed
        self.first_results: dict[str, tuple] = {}

    def _op(self, key: str, mapping: dict, trials: int, mc_seed: int) -> Op:
        vb = self.vb
        state = {}

        def prepare():
            state["panel"] = vb.core.validate_panel(mapping)

        def run():
            panel = state["panel"]
            sim = vb.montecarlo.simulate_error(panel, trials, mc_seed,
                                               workers=SAMPLING_WORKERS)
            folded = vb.core.fold_bias(panel)
            est = vb.montecarlo.estimate_min_mass(
                folded.law_given_one(), folded.law_given_zero(), trials, mc_seed,
                workers=SAMPLING_WORKERS)
            return sim, est

        def check(result, exc):
            if exc is not None:
                if isinstance(exc, vb.core.ValidationError) and INTERIOR_REFUSAL in str(exc):
                    return DEFECT, "estimate_min_mass refused a boundary panel"
                return _unexpected(exc)
            sim, (est, est_se) = result
            values = (sim.empirical_error, sim.std_error, est, est_se)
            first = self.first_results.setdefault(key, values)
            if first != values:
                return FAIL, f"repeat gave {values}, first run gave {first}"
            gap = abs(sim.empirical_error - 0.5 * est)
            allowed = SAMPLING_SIGMAS * math.hypot(sim.std_error, 0.5 * est_se)
            return _ok_if(gap <= allowed,
                          f"simulate_error {sim.empirical_error} vs 0.5 * min_mass "
                          f"{0.5 * est}: gap {gap} > {allowed}")

        return Op(key=key, kind="simulate+estimate", run=run, check=check,
                  work=2.0 * trials, prepare=prepare)

    def _fresh(self, rng, block: int, slot: int, n: int, trials: int, variant: str) -> Op:
        panel = sampling_panel(rng, n, variant)
        mc_seed = int(rng.integers(1 << 32))
        key = f"b{block}s{slot}-{variant}-n{n}-t{trials}-s{mc_seed}"
        return self._op(key, panel, trials, mc_seed)

    def warmup(self) -> Op:
        rng = run_rng(self.seed + 1, self.name)
        return self._fresh(rng, -1, 0, 30, 1 << 18, "plain")

    def stream(self) -> Iterator[list[Op]]:
        """Blocks of 16: one boundary panel, two biased panels, and a last
        op that repeats slot 0 to check that results repeat bit for bit."""
        rng = run_rng(self.seed, self.name)
        block = 0
        while True:
            ops = []
            for s in range(SAMPLING_FRESH):
                n = 30 + int((s + rng.random()) * 35 / SAMPLING_FRESH)
                trials = SAMPLING_TRIALS[(7 * s) % SAMPLING_FRESH]
                if s % 2:
                    trials = min(trials + int(rng.integers(1, 1 << 16)), 1 << 20)
                variant = ("boundary" if s == SAMPLING_BOUNDARY_SLOT else
                           "biased" if s in SAMPLING_BIASED_SLOTS else "plain")
                ops.append(self._fresh(rng, block, s, n, trials, variant))
            first = ops[0]
            repeat = Op(key=first.key + ":repeat", kind=first.kind, run=first.run,
                        check=first.check, work=first.work, prepare=first.prepare)
            yield [ops[i] for i in rng.permutation(SAMPLING_FRESH)] + [repeat]
            block += 1


# --------------------------------------------------------------------------
# decide


DECIDE_BATCH = 4096
DECIDE_BINS = 16


def decide_bin_sizes(bin_index: int) -> tuple[int, int]:
    """Inclusive size range of one of the 16 bins that tile [8, 64]."""
    lo = 8 + (56 * bin_index) // DECIDE_BINS
    hi = 8 + (56 * (bin_index + 1)) // DECIDE_BINS - 1
    return lo, hi if bin_index < DECIDE_BINS - 1 else 64


def decide_is_tie_bin(bin_index: int) -> bool:
    return bin_index % 4 == 3


def decide_bin_is_list(bin_index: int) -> bool:
    """Half the bins take lists, half ndarrays; each form gets two tie bins."""
    return (bin_index + bin_index // 4) % 2 == 0


# Complementary expert pairs: (psi, eta) and (eta, psi) with
# psi / (1 - eta) = 2, so the vote-one weight of the first is exactly the
# negative of the vote-zero weight of the second and exact score ties occur.
_TIE_PAIRS = ((0.5, 0.75), (0.25, 0.875), (0.75, 0.625))


def decide_panel(rng: np.random.Generator, n: int, tie: bool) -> dict:
    if not tie:
        psi = rng.uniform(0.3, 0.95, n)
        eta = rng.uniform(0.3, 0.95, n)
        p_y = 0.5 if rng.random() < 0.5 else float(rng.uniform(0.2, 0.8))
        return {"psi": psi.tolist(), "eta": eta.tolist(), "p_y": p_y}
    # Two complementary pairs (possibly duplicates of one another); every
    # other expert is uninformative with dyadic rates, weight exactly 0.
    psi = [int(k) / 64 for k in rng.integers(1, 64, n)]
    eta = [1.0 - p for p in psi]
    slots = rng.choice(n, 4, replace=False)
    for j in range(2):
        a, b = _TIE_PAIRS[int(rng.integers(len(_TIE_PAIRS)))]
        psi[slots[2 * j]], eta[slots[2 * j]] = a, b
        psi[slots[2 * j + 1]], eta[slots[2 * j + 1]] = b, a
    return {"psi": psi, "eta": eta, "p_y": 0.5}


def decide_vectors(entry_seed: list[int], mapping: dict) -> np.ndarray:
    """4096 vote vectors drawn from the panel's own generative law."""
    rng = np.random.default_rng(entry_seed)
    psi = np.asarray(mapping["psi"])
    eta = np.asarray(mapping["eta"])
    u = rng.random((DECIDE_BATCH, psi.size + 1))
    y = u[:, 0] < mapping["p_y"]
    prob = np.where(y[:, None], psi, 1.0 - eta)
    return (u[:, 1:] < prob).astype(np.uint8)


def decisions_digest(decisions) -> str:
    return hashlib.sha256(bytes(decisions)).hexdigest()


def vectors_digest(x: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(x).tobytes()).hexdigest()


class DecideWorkload:
    """Rule compilation plus batch decisions on caller-supplied vectors."""

    name = "decide"
    work_unit = "vote vectors decided"
    variants = 4

    def __init__(self, vb, seed: int):
        self.vb = vb
        self.seed = seed
        self.entries = {e["key"]: e for e in load_refs("decide")["entries"]}
        self._vectors: dict[str, np.ndarray] = {}

    def vectors(self, key: str) -> np.ndarray:
        x = self._vectors.get(key)
        if x is None:
            entry = self.entries[key]
            x = decide_vectors(entry["vector_seed"], entry["panel"])
            if vectors_digest(x) != entry["vectors_sha256"]:
                raise RuntimeError(
                    f"decide input {key} no longer matches its reference; the "
                    "numpy random stream changed, rerun bench/capture.py at the "
                    "commit that defined the benchmark")
            x.setflags(write=False)
            self._vectors[key] = x
        return x

    def _op(self, key: str, as_list: bool, bad_index: int | None) -> Op:
        vb = self.vb
        entry = self.entries[key]
        state = {}

        def prepare():
            state["panel"] = vb.core.validate_panel(entry["panel"])
            x = self.vectors(key)
            if as_list:
                xs = x.tolist()
                if bad_index is not None:
                    xs[bad_index] = xs[bad_index][:-1]
            else:
                xs = x
                if bad_index is not None:
                    xs = x.copy()
                    xs[bad_index, -1] = 2
            state["xs"] = xs

        def run():
            rule = vb.rule.build_rule(state["panel"])
            return rule.decide_batch(state["xs"])

        def check(result, exc):
            state.clear()
            if bad_index is not None:
                if isinstance(exc, vb.core.ValidationError):
                    return _ok_if(str(exc).startswith(f"input {bad_index}:"),
                                  f"malformed vector {bad_index} reported as: {exc}")
                if exc is not None:
                    return _unexpected(exc)
                return FAIL, f"malformed vector {bad_index} was accepted"
            if exc is not None:
                return _unexpected(exc)
            return _ok_if(decisions_digest(result) == entry["decisions_sha256"],
                          "decisions differ from the reference")

        form = "list" if as_list else "ndarray"
        suffix = "" if bad_index is None else f":bad{bad_index}"
        return Op(key=f"{form}:{key}{suffix}", kind=form, run=run, check=check,
                  work=0.0 if bad_index is not None else float(DECIDE_BATCH),
                  prepare=prepare)

    def _slot_key(self, rng, bin_index: int) -> str:
        return f"bin{bin_index}-{int(rng.integers(self.variants))}"

    def warmup(self) -> Op:
        rng = run_rng(self.seed + 1, self.name)
        return self._op(self._slot_key(rng, 0), True, None)

    def stream(self) -> Iterator[list[Op]]:
        """Blocks of 16 ops, one per size bin: half lists, half ndarrays,
        four tie panels. The smallest bin carries the malformed batch, as
        a list in even blocks and an ndarray in odd ones."""
        rng = run_rng(self.seed, self.name)
        block = 0
        while True:
            ops = []
            for b in range(DECIDE_BINS):
                key = self._slot_key(rng, b)
                if b == 0:
                    ops.append(self._op(key, block % 2 == 0, int(rng.integers(DECIDE_BATCH))))
                else:
                    ops.append(self._op(key, decide_bin_is_list(b), None))
            yield [ops[i] for i in rng.permutation(DECIDE_BINS)]
            block += 1


# --------------------------------------------------------------------------
# cli


CLI_TEMPLATES = (
    "validate-human", "validate-json", "decide-human", "decide-json",
    "error_exact-human", "error_exact-json", "bounds-human", "bounds-json",
    "tv-human", "tv-json", "sweep", "simulate-human", "simulate-json",
    "error_mc-human", "error_mc-json", "bad_json", "bad_psi", "over_cap",
    "trials_without_mc", "boundary_mc",
)
CLI_KNOWN_DEFECT = "boundary_mc"


def cli_env(root: Path) -> dict:
    """The package from src/, not installed; library default worker count."""
    env = {k: v for k, v in os.environ.items() if k != "VOTEBOUNDS_THREADS"}
    env["PYTHONPATH"] = str(root / "src")
    return env


@dataclass
class Invocation:
    code: int
    stdout: str
    stderr: str
    rusage: Any = None


def invoke(argv: list[str], root: Path, env: dict, scratch: Path) -> Invocation:
    """Run ``python -m votebounds argv`` and reap it with its own rusage."""
    out_path, err_path = scratch / "stdout", scratch / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen([sys.executable, "-m", "votebounds", *argv],
                                cwd=root, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        try:
            _, status, rusage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(proc.returncode, out_path.read_text(encoding="utf-8"),
                      err_path.read_text(encoding="utf-8"), rusage)


def cli_argv(case: dict, workdir: Path) -> list[str]:
    return [arg.replace("{dir}", str(workdir)) for arg in case["argv"]]


def write_cli_files(cases, workdir: Path) -> None:
    for case in cases:
        for name, text in case["files"].items():
            (workdir / name).write_text(text, encoding="utf-8")


class CliWorkload:
    """One fresh interpreter per op, cycling through every subcommand."""

    name = "cli"
    work_unit = "CLI invocations"
    variants = 3

    def __init__(self, vb, seed: int, root: Path, workdir: Path):
        self.vb = vb
        self.seed = seed
        self.root = root
        self.workdir = workdir
        self.env = cli_env(root)
        self.cases = {c["key"]: c for c in load_refs("cli")["cases"]}
        write_cli_files(self.cases.values(), workdir)
        self.child_rusage: list = []

    def _op(self, key: str) -> Op:
        case = self.cases[key]
        argv = cli_argv(case, self.workdir)

        def run():
            inv = invoke(argv, self.root, self.env, self.workdir)
            self.child_rusage.append(inv.rusage)
            return inv

        def check(inv, exc):
            if exc is not None:
                return _unexpected(exc)
            if inv.code != 0 and not inv.stderr.strip():
                return FAIL, f"exit {inv.code} with an empty stderr"
            if case["template"] == CLI_KNOWN_DEFECT:
                return self._check_boundary(case, inv)
            if inv.code != case["code"]:
                return FAIL, f"exit {inv.code}, expected {case['code']}: {inv.stderr.strip()}"
            return _ok_if(inv.stdout == case["stdout"], "stdout differs from the reference")

        def inprocess():
            import contextlib
            import io

            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                return self.vb.cli.main(argv)

        return Op(key=key, kind=case["template"], run=run, check=check, work=1.0,
                  inprocess=inprocess)

    @staticmethod
    def _check_boundary(case: dict, inv: Invocation) -> tuple[str, str]:
        """The README allows this panel; the answer must be near the exact error."""
        if inv.code == 1 and INTERIOR_REFUSAL in inv.stderr:
            return DEFECT, "error --method mc refused a boundary panel"
        if inv.code != 0:
            return FAIL, f"exit {inv.code}: {inv.stderr.strip()}"
        try:
            payload = json.loads(inv.stdout)
            value, se = float(payload["error"]), float(payload["std_error"])
        except (ValueError, KeyError, TypeError) as exc:
            return FAIL, f"unreadable output {inv.stdout!r}: {exc}"
        gap = abs(value - case["exact_error"])
        return _ok_if(gap <= SAMPLING_SIGMAS * se + 1e-12,
                      f"mc error {value} is {gap} from the exact {case['exact_error']}")

    def warmup(self) -> Op:
        rng = run_rng(self.seed + 1, self.name)
        return self._op(f"validate-human-{int(rng.integers(self.variants))}")

    def stream(self) -> Iterator[list[Op]]:
        """Blocks of 20: every template once, variant drawn per block."""
        rng = run_rng(self.seed, self.name)
        while True:
            yield [self._op(f"{CLI_TEMPLATES[t]}-{int(rng.integers(self.variants))}")
                   for t in rng.permutation(len(CLI_TEMPLATES))]


def make_workload(name: str, vb, seed: int, root: Path, workdir: Path):
    if name == "exact":
        return ExactWorkload(vb, seed)
    if name == "sampling":
        return SamplingWorkload(vb, seed)
    if name == "decide":
        return DecideWorkload(vb, seed)
    if name == "cli":
        return CliWorkload(vb, seed, root, workdir)
    raise ValueError(f"unknown workload {name!r}")
