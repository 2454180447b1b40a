"""The four benchmark workloads: seeded inputs, set-up, ops and their checks.

Every workload is a closed loop with one client.  Its ops come in rounds:
each round has the same multiset of (command, ring, N) slots, and the seed
only chooses the code specs (in cli-cold also the order and which of two
equal-cost commands a slot gets).  A run always measures whole rounds, so
the cost mix of a run does not depend on the seed or on where the clock ran
out.

In-process workloads keep three input variants per slot; round r uses
variant (r + slot) mod 3, so consecutive rounds see different specs.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import selectors
import statistics
import subprocess
import sys
import time

import numpy as np

from chaincodes import codes, modlinalg, oracle
from chaincodes import eisenstein_codes as ec
from chaincodes import galois_codes as gc
from chaincodes.idempotents import idempotent_system
from chaincodes.polyfactory import classify_cosets
from chaincodes.rings import ChainRing

import checks

RING_SPECS = {
    # Z_4[w][x]/<x^2+2, 2x>, f = X^2+X+1
    "demo": {"p": 2, "n": 2, "r": 2, "k": 2, "t": 1, "g_tail": [1, 0], "f": [1, 1, 1]},
    # Z_4[x]/<x^2+2, 2x>: not free over Z_4
    "eis": {"p": 2, "n": 2, "r": 1, "k": 2, "t": 1, "g_tail": [1, 0]},
    # Z_9[x]/<x^2+3, 3x>: odd p
    "p3": {"p": 3, "n": 2, "r": 1, "k": 2, "t": 1, "g_tail": [1, 0]},
    # F_2[x]/<x^3>: n = 1
    "quasi": {"p": 2, "n": 1, "r": 1, "k": 3, "t": 3, "g_tail": [1, 0, 0]},
}

CLI_PAIRS = [
    ("demo", 21), ("demo", 31), ("demo", 45), ("demo", 63),
    ("eis", 21), ("eis", 63),
    ("p3", 13), ("p3", 26), ("p3", 40),
    ("quasi", 21), ("quasi", 63),
]

# p3 cannot take N in {21, 45, 63} (3 divides N) and N = 31 needs an
# extension beyond the 2^31 cap, so it uses its cli-cold lengths.  Demo
# N = 63 is left out: its 6 s idempotent system, built three times per run
# for the set-up median, does not fit the run budget; cli-cold covers it.
BUILD_PAIRS = [
    ("demo", 21), ("demo", 31), ("demo", 45),
    ("eis", 21), ("eis", 31), ("eis", 45), ("eis", 63),
    ("p3", 13), ("p3", 26), ("p3", 40),
    ("quasi", 21), ("quasi", 31), ("quasi", 45), ("quasi", 63),
]

QUERY_PAIRS = [
    ("demo", 7), ("demo", 9), ("demo", 15), ("demo", 21),
    ("eis", 7), ("eis", 15), ("eis", 21), ("eis", 31),
    ("p3", 8), ("p3", 13), ("p3", 26),
    ("quasi", 7), ("quasi", 15), ("quasi", 21),
]

# (ring, N, log2 |C| target).  Sizes above half the ambient have
# |C^perp| < |C| (14 of the 33 slots); the rest are the no-change control
# for a transform that enumerates the smaller side.
WEIGHT_SLOTS = [
    ("eis", 7, 12), ("demo", 7, 12), ("quasi", 7, 13), ("p3", 8, 13),
    ("eis", 15, 14), ("demo", 9, 14), ("quasi", 7, 15), ("p3", 8, 16),
    ("eis", 7, 17), ("demo", 7, 18), ("quasi", 15, 20), ("p3", 8, 21),
    ("demo", 7, 22),
    # small codes: enough ops for a 90th percentile, and a median that lies
    # inside the cluster of few-millisecond ops rather than at its edge
    ("demo", 9, 12), ("eis", 15, 12), ("quasi", 15, 12), ("p3", 13, 13),
    ("demo", 7, 13), ("eis", 7, 13), ("quasi", 7, 12), ("p3", 8, 12),
    ("eis", 7, 12), ("quasi", 7, 12), ("eis", 7, 13), ("quasi", 7, 13),
    ("eis", 7, 12), ("quasi", 7, 12), ("demo", 7, 12), ("demo", 9, 12),
    ("eis", 15, 12), ("demo", 7, 13), ("demo", 9, 12), ("eis", 15, 12),
]

# Ambients |R|^N <= 2^20, the oracle's default cap.
ORACLE_PAIRS = [("demo", 3), ("eis", 3), ("eis", 5), ("quasi", 3), ("quasi", 5), ("p3", 2), ("p3", 4)]

VARIANTS = 3
RATES = (0.25, 0.5, 0.75)
MIN_OPS = 100  # at least 10 samples beyond the 90th percentile


def make_ring(name):
    return ChainRing.from_json(RING_SPECS[name])


def ring_m(name):
    s = RING_SPECS[name]
    return s["k"] * (s["n"] - 1) + s["t"]


def ring_log_p(name):
    return RING_SPECS[name]["r"] * ring_m(name)


def ambient_log2(name, N):
    return N * ring_log_p(name) * math.log2(RING_SPECS[name]["p"])


def slot_rng(seed, *key):
    """An RNG for one slot, independent of how many other slots exist."""
    digest = hashlib.sha256(repr((seed,) + key).encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


# -- spec generators -----------------------------------------------------------


def pick_spec(draw, size, weight, target, rng, reference, tries=400, count=1):
    """`count` seeded draws, each the first with size(spec) == target and
    the median weight of the reference draws of that size, else the closest.

    `reference` is a seed-independent RNG.  Weight follows the Howell row
    count, so at a fixed size and weight an op on the code costs nearly the
    same from seed to seed.
    """
    drawn = [(abs(size(s) - target), weight(s)) for s in (draw(reference) for _ in range(tries))]
    closest = min(gap for gap, _ in drawn)
    weight_target = statistics.median_low([w for gap, w in drawn if gap == closest])
    picked = []
    for _ in range(count):
        best, best_gap = None, None
        for _ in range(tries):
            spec = draw(rng)
            gap = (abs(size(spec) - target), abs(weight(spec) - weight_target))
            if best_gap is None or gap < best_gap:
                best, best_gap = spec, gap
            if gap == (0, 0):
                break
        picked.append(best)
    return picked


def galois_specs(ring, N, rng, rate=None, log_p_target=None, tries=400, count=1):
    """`count` seeded omega-basis exponent matrices with log_p|C| =
    log_p_target, or round(rate * ambient) when a rate is given, and a
    matched present weight.

    The present weight is the sum of kappa_i over the components present
    (e < m); at a fixed size the Howell form has that many rows plus a
    constant.
    """
    cls = idempotent_system(ring, N).cls

    def draw(rng):
        e = [[rng.randint(0, ring.m) for _ in range(ring.r)] for _ in range(cls.v + 1)]
        return gc.GaloisCodeSpec(ring=ring, N=N, e=e)

    def weight(spec):
        return sum(cls.kappa[i] for i, row in enumerate(spec.e) for e in row if e < ring.m)

    if rate is None:
        reference = slot_rng("reference", "galois", ring.key, N, "log_p", log_p_target)
        target = log_p_target
    else:
        reference = slot_rng("reference", "galois", ring.key, N, rate)
        target = round(rate * N * ring.log_p_card)
    return pick_spec(draw, gc.log_cardinality, weight, target, rng, reference, tries, count)


def galois_spec(ring, N, rng, rate=None, log_p_target=None):
    return galois_specs(ring, N, rng, rate, log_p_target)[0]


def x_power_spans(ring):
    """For each subset J of {0..m-1} (as a bit mask): the log_p size and the
    Howell row count of the Z_{p^n}-span of {x^j : j in J} inside R.

    A rank-1 Eisenstein code is the sum over components of x^J K_i, so its
    log_p size is the sum of kappa_i times the size of its row's span.
    """
    caps = codes.ambient_caps(ring, 1)
    spans = {}
    for mask in range(2**ring.m):
        rows = [codes.flatten_vector(ring, [ring.x_pow(j)]) for j in range(ring.m) if mask >> j & 1]
        stack = modlinalg.GeneratorStack(
            np.array(rows, dtype=np.int64).reshape(-1, len(caps)), ring.p, ring.n, caps)
        spans[mask] = (modlinalg.subgroup_order_log_p(stack), len(modlinalg.normal_form(stack)))
    return spans


def eisenstein_spec(ring, N, rng, rate):
    """A seeded indicator matrix with log_p|C| = round(rate * ambient) and a
    matched Howell row count (see pick_spec)."""
    cls = classify_cosets(N, ring.p, ring.r)
    spans = x_power_spans(ring)

    def masks(spec):
        return [(cls.kappa[i], sum(1 << j for j, x in enumerate(row) if x))
                for i, row in enumerate(spec.a)]

    def draw(rng):
        a = [[rng.randint(0, 1) for _ in range(ring.m)] for _ in range(cls.v + 1)]
        return ec.EisensteinCodeSpec(ring=ring, N=N, a=a)

    def size(spec):
        return sum(kappa * spans[mask][0] for kappa, mask in masks(spec))

    def weight(spec):
        return sum(kappa * (spans[mask][1] - spans[0][1]) for kappa, mask in masks(spec))

    reference = slot_rng("reference", "eisenstein", ring.key, N, rate)
    target = round(rate * N * ring.log_p_card)
    return pick_spec(draw, size, weight, target, rng, reference)[0]


# -- the generic closed loop ---------------------------------------------------


class Tally:
    """Per-op wall times and failures of a timed run."""

    def __init__(self):
        self.times = []
        self.kinds = []
        self.failed = 0
        self.first_error = None

    def record(self, kind, seconds, ok, detail=""):
        self.times.append(seconds)
        self.kinds.append(kind)
        if not ok:
            self.failed += 1
            if self.first_error is None:
                self.first_error = f"{kind}: {detail}"
                print(f"op failed: {self.first_error}", file=sys.stderr)


def run_rounds(round_ops, seconds, tally, deadline, period):
    """Run whole rounds until `seconds` have passed and MIN_OPS ops ran.

    The round count is a multiple of `period`, the number of rounds after
    which every slot has used each of its inputs equally often.

    round_ops(r) lists (kind, thunk, check) triples; thunk() is the timed
    program call and check(result) -> (ok, detail) runs outside the timing.
    No op starts after `deadline` (a perf_counter value), so a slow program
    still lets the run exit in time.
    """
    start = time.perf_counter()
    r = 0
    while True:
        for kind, thunk, check in round_ops(r):
            if time.perf_counter() > deadline:
                return
            t0 = time.perf_counter()
            try:
                result = thunk()
            except Exception as exc:  # a failed op is counted, the loop goes on
                tally.record(kind, time.perf_counter() - t0, False, f"{type(exc).__name__}: {exc}")
                continue
            elapsed = time.perf_counter() - t0
            ok, detail = check(result)
            tally.record(kind, elapsed, ok, detail)
        r += 1
        if r % period == 0 and time.perf_counter() - start >= seconds and len(tally.times) >= MIN_OPS:
            return


# -- cli-cold ------------------------------------------------------------------

CLI_PERIOD = 2  # a pair's heavy request alternates between two commands


def cli_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def spawn_cli(argv, env, workdir, timeout=120.0):
    """One `chaincodes` request in a fresh interpreter.

    Returns (exit code, stdout bytes, peak RSS of the child in KiB).  The
    child is reaped with wait4, so its own rusage is read; a child still
    writing after `timeout` seconds is killed.
    """
    with open(os.path.join(workdir, "stderr.txt"), "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "chaincodes.cli", *argv],
            stdout=subprocess.PIPE, stderr=err, env=env,
        )
    chunks = []
    deadline = time.monotonic() + timeout
    with proc.stdout, selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        while True:
            if not sel.select(max(0.0, deadline - time.monotonic())):
                proc.kill()
                break
            chunk = os.read(proc.stdout.fileno(), 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, b"".join(chunks), usage.ru_maxrss


def cli_requests(seed, round_no):
    """One cli-cold round: per pair one heavy request and four cheap ones.

    Each pair alternates idempotents and code dual across rounds, starting
    from a seeded side, so two rounds hold both for every pair.
    """
    reqs = []
    for name, N in CLI_PAIRS:
        rng = slot_rng(seed, "cli", name, N)
        heavy = ("idempotents", "code dual")[(rng.randrange(2) + round_no) % CLI_PERIOD]
        reqs.append((heavy, name, N))
        reqs += [("cosets", name, N)] * 2 + [("ring info", name, N)] * 2
    slot_rng(seed, "cli-order", round_no).shuffle(reqs)
    return reqs


def cli_code_spec(seed, round_no, name, N):
    """The seeded code spec for one code dual request (embedded ring)."""
    rng = slot_rng(seed, "cli-code", name, N, round_no)
    spec = RING_SPECS[name]
    rows = classify_cosets(N, spec["p"], spec["r"]).v + 1
    m = ring_m(name)
    if spec["r"] == 1 and rng.random() < 0.5:
        a = [[rng.randint(0, 1) for _ in range(m)] for _ in range(rows)]
        if not any(map(any, a)):
            a[0][0] = 1
        return {"family": "eisenstein", "ring": spec, "N": N, "a": a}
    e = [[rng.randint(0, m) for _ in range(spec["r"])] for _ in range(rows)]
    return {"family": "galois", "ring": spec, "N": N, "e": e, "basis": "omega"}


def write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)


def cli_argv(cmd, name, N, workdir, code_path=None):
    ring_path = os.path.join(workdir, f"ring-{name}.json")
    if cmd == "ring info":
        return ["ring", "info", "--ring", ring_path]
    if cmd == "cosets":
        return ["cosets", "--ring", ring_path, "--N", str(N)]
    if cmd == "idempotents":
        return ["idempotents", "--ring", ring_path, "--N", str(N)]
    return ["code", "dual", "--code", code_path]


def cli_setup(workdir, env):
    """Write the ring files and warm the interpreter's caches with one request."""
    for name, spec in RING_SPECS.items():
        write_json(os.path.join(workdir, f"ring-{name}.json"), spec)
    code, out, _ = spawn_cli(cli_argv("ring info", "demo", 0, workdir), env, workdir)
    if code != 0 or not out:
        raise RuntimeError("warm-up ring info request failed")


def cli_round_ops(seed, workdir, env, digests, rss, deadline):
    def round_ops(r):
        ops = []
        for i, (cmd, name, N) in enumerate(cli_requests(seed, r)):
            code_path = None
            spec = None
            if cmd == "code dual":
                spec = cli_code_spec(seed, r, name, N)
                code_path = os.path.join(workdir, f"code-{r}-{i}.json")
                write_json(code_path, spec)
            argv = cli_argv(cmd, name, N, workdir, code_path)

            def thunk(argv=argv):
                timeout = max(1.0, deadline - time.perf_counter())
                code, out, maxrss = spawn_cli(argv, env, workdir, timeout)
                rss.append(maxrss)
                return code, out

            def check(res, cmd=cmd, name=name, N=N, spec=spec):
                code, out = res
                if code != 0:
                    return False, f"exit code {code}"
                if spec is not None:
                    return checks.check_cli_dual(json.loads(out), spec)
                return checks.check_digest(digests, checks.digest_key(cmd, name, N), out)

            ops.append((cmd, thunk, check))
        return ops

    return round_ops


# -- in-process workload state ---------------------------------------------------


class Workload:
    """Set-up, slots and round ops of one in-process workload."""

    name = None
    pairs = ()
    period = VARIANTS  # round r uses variant (r + slot) mod VARIANTS

    def __init__(self, seed):
        self.seed = seed
        self.rings = {}

    def ring(self, name):
        if name not in self.rings:
            self.rings[name] = make_ring(name)
        return self.rings[name]

    def build_systems(self):
        for name, N in self.pairs:
            idempotent_system(self.ring(name), N)

    def setup(self, timer):
        """Program work before the first op; timer(fn) times a set-up step."""
        timer(self.build_systems)

    def round_ops(self, r, call=None):
        """Round r's (kind, thunk, check) triples; call wraps each program call."""
        raise NotImplementedError


class CodesBuild(Workload):
    """Howell "writes": build C and C^perp and round-trip the dual."""

    name = "codes-build"
    pairs = BUILD_PAIRS

    slots = None

    def make_slots(self):
        """Seeded specs per slot; input generation, so never part of set-up."""
        slots = []
        for name, N in self.pairs:
            ring = self.ring(name)
            rng = slot_rng(self.seed, self.name, "galois", name, N)
            slots.append(("galois", [galois_spec(ring, N, rng, rate=rate) for rate in RATES]))
            if ring.r == 1:
                rng = slot_rng(self.seed, self.name, "eisenstein", name, N)
                slots.append(("eisenstein", [eisenstein_spec(ring, N, rng, rate) for rate in RATES]))
        return slots

    def round_ops(self, r, call=None):
        if self.slots is None:
            self.slots = self.make_slots()
        ops = []
        for k, (family, variants) in enumerate(self.slots):
            spec = variants[(r + k) % VARIANTS]
            if family == "galois":
                ops.append(("galois dual", lambda s=spec: galois_dual_op(s, call),
                            checks.check_galois_dual))
            else:
                ops.append(("eisenstein dual", lambda s=spec: eisenstein_dual_op(s, call),
                            checks.check_eisenstein_dual))
        return ops


def galois_dual_op(spec, call=None):
    """What `code dual` does for the Galois family, plus the round trip."""
    call = call or _plain
    code = call("galois_codes.build_galois_code", gc.build_galois_code, spec)
    dual_spec = call("galois_codes.dual_galois_code", gc.dual_galois_code, spec)
    dual = call("galois_codes.build_galois_code", gc.build_galois_code, dual_spec)
    formula = call("galois_codes.log_cardinality", gc.log_cardinality, spec)
    back = call("galois_codes.dual_galois_code", gc.dual_galois_code, dual_spec)
    return {"spec": spec, "code": code, "dual": dual, "formula": formula, "back": back}


def eisenstein_dual_op(spec, call=None):
    call = call or _plain
    code = call("eisenstein_codes.build_eisenstein_code", ec.build_eisenstein_code, spec)
    dual = call("eisenstein_codes.eisenstein_dual_code", ec.eisenstein_dual_code, code)
    closed = call("eisenstein_codes.normalize_spec", ec.normalize_spec, spec)
    back = call("eisenstein_codes.eisenstein_dual_code", ec.eisenstein_dual_code, dual)
    equal = call("modlinalg.stacks_equal", modlinalg.stacks_equal, back.stack, code.stack)
    return {"spec": spec, "code": code, "dual": dual, "closed": closed, "equal": equal}


def _plain(_name, fn, *args):
    return fn(*args)


class CodesQuery(Workload):
    """Howell "reads": membership-heavy queries on codes built in set-up."""

    name = "codes-query"
    pairs = QUERY_PAIRS

    def setup(self, timer):
        timer(self.build_systems)
        specs = []
        for name, N in self.pairs:
            rng = slot_rng(self.seed, self.name, name, N)
            specs.append([galois_spec(self.ring(name), N, rng, rate=rate) for rate in RATES])
        self.slots = timer(lambda: [[(s, gc.build_galois_code(s)) for s in vs] for vs in specs])

    def round_ops(self, r, call=None):
        call = call or _plain
        ops = []
        for k, variants in enumerate(self.slots):
            spec, code = variants[(r + k) % VARIANTS]
            ops.append(("decompose_to_spec",
                        lambda c=code: call("galois_codes.decompose_to_spec", gc.decompose_to_spec, c),
                        lambda got, s=spec: checks.check_decomposed(got, s)))
            ops.append(("is_shift_closed",
                        lambda c=code: call("codes.is_shift_closed", codes.is_shift_closed, c),
                        checks.check_true))
            ops.append(("is_x_closed",
                        lambda c=code: call("codes.is_x_closed", codes.is_x_closed, c),
                        checks.check_true))
        return ops


def weight_slot_specs(seed, slot):
    name, N, log2_target = WEIGHT_SLOTS[slot]
    ring = make_ring(name)
    rng = slot_rng(seed, "enumerate", "weights", slot)
    target = round(log2_target / math.log2(ring.p))
    return galois_specs(ring, N, rng, log_p_target=target, tries=2000, count=VARIANTS)


def oracle_slot_specs(seed, ring, N, family):
    rng = slot_rng(seed, "enumerate", "oracle", family, ring.p, ring.r, ring.k, N)
    if family == "galois":
        return [galois_spec(ring, N, rng, rate=rate) for rate in RATES]
    return [eisenstein_spec(ring, N, rng, rate) for rate in RATES]


class Enumerate(Workload):
    """Word enumeration (`code weights`) and the oracle survey (`verify`)."""

    name = "enumerate"
    pairs = sorted({(n, N) for n, N, _ in WEIGHT_SLOTS} | set(ORACLE_PAIRS))

    def setup(self, timer):
        timer(self.build_systems)
        specs = [weight_slot_specs(self.seed, slot) for slot in range(len(WEIGHT_SLOTS))]
        self.weight_slots = timer(lambda: [[gc.build_galois_code(s) for s in vs] for vs in specs])
        self.oracle_slots = []
        for name, N in ORACLE_PAIRS:
            ring = self.ring(name)
            for family in ("galois", "eisenstein") if ring.r == 1 else ("galois",):
                self.oracle_slots.append(oracle_slot_specs(self.seed, ring, N, family))

    def round_ops(self, r, call=None):
        call = call or _plain
        ops = []
        for k, variants in enumerate(self.weight_slots):
            code = variants[(r + k) % VARIANTS]
            ops.append(("weight_enumerator",
                        lambda c=code: call("codes.weight_enumerator", codes.weight_enumerator, c),
                        lambda w, c=code: checks.check_weights(w, c)))
        for k, variants in enumerate(self.oracle_slots):
            spec = variants[(r + k) % VARIANTS]
            ops.append(("cross_check",
                        lambda s=spec: call("oracle.cross_check", oracle.cross_check, s),
                        checks.check_oracle))
        # a fixed order: the peak RSS of a run depends on the heap state the
        # largest enumeration meets, and a seeded order made that vary
        return ops

    def input_properties(self):
        smaller = sum(
            2 * code.log_p_card > N * code.ring.log_p_card
            for (_, N, _), variants in zip(WEIGHT_SLOTS, self.weight_slots)
            for code in variants
        )
        total = len(WEIGHT_SLOTS) * VARIANTS
        return {
            "weight_codes_dual_smaller_share": smaller / total,
            "weight_codes_dual_smaller_base": f"{smaller} of {total} weight-op codes",
        }


IN_PROCESS = {w.name: w for w in (CodesBuild, CodesQuery, Enumerate)}


def input_properties(workload, state=None):
    """The input facts later claims cite: pairs, ambient sizes, op mix."""
    pairs = {
        "cli-cold": CLI_PAIRS,
        "codes-build": BUILD_PAIRS,
        "codes-query": QUERY_PAIRS,
        "enumerate": Enumerate.pairs,
    }[workload]
    props = {
        "ring_N_pairs": [f"{n}-N{N}" for n, N in pairs],
        "distinct_ring_N_pairs": len(set(pairs)),
        "ambient_log2": {f"{n}-N{N}": round(ambient_log2(n, N), 3) for n, N in pairs},
    }
    if state is not None and hasattr(state, "input_properties"):
        props.update(state.input_properties())
    return props
