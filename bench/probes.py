"""The traced run: spans around every public call, and layer probes.

A traced run has three parts.

1. Child A runs one round of the workload in a fresh interpreter with spans
   on; child B runs the same round with spans off.  Each op is split into
   the public calls it is made of (a cold `idempotents` request becomes
   ChainRing.from_json -> classify_cosets -> build_extension ->
   primitive_idempotents), so it computes what a cold request computes.
   Spans stay in memory and are written out when the round ends.  A layer's
   self time is its span time minus its child spans; the op span's own self
   time is the benchmark's glue between calls.  B against A gives the
   tracing overhead.
2. Layer probes call each layer's public functions on inputs taken from the
   workloads (their eps polynomials, stacks and specs).  They cover the
   inner layers no op calls directly: rings, polyops, ExtensionDescriptor.down,
   modlinalg.contains.
3. The ROADMAP baselines are printed next to the traced numbers.

Spans wrap calls from the benchmark only; nothing inside the program is
instrumented.
"""

from __future__ import annotations

import gc as garbage_collector
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter

import numpy as np

from chaincodes import cli, codes, modlinalg, oracle, polyops
from chaincodes import eisenstein_codes as ec
from chaincodes import galois_codes as gc
from chaincodes.idempotents import idempotent_system, primitive_idempotents, trace_dual_basis
from chaincodes.polyfactory import build_extension, classify_cosets, minimal_polynomial
from chaincodes.rings import ChainRing

import checks
import workloads as wl

LAYERS = ["rings", "polyops", "polyfactory", "idempotents", "modlinalg", "codes",
          "galois_codes", "eisenstein_codes", "oracle", "cli"]
# primitive_idempotents is timed on every cli-cold pair and on two larger ones
IDEMPOTENT_PAIRS = wl.CLI_PAIRS + [("demo", 127), ("p3", 80)]
LINALG_PAIRS = [("demo", 31), ("eis", 45), ("p3", 40), ("quasi", 45)]
MUL_SOURCES = {"demo": ("demo", 63), "eis": ("eis", 63), "p3": ("p3", 40), "quasi": ("quasi", 63)}
PMUL_LENGTHS = (21, 45, 63)
MIN_PROBE_S = 0.2


class Spans:
    """In-memory span recorder; with on=False it only forwards the call."""

    def __init__(self, on):
        self.on = on
        self.spans = []  # [name, start, end, parent index, op id]
        self.stack = []
        self.op_id = None

    def call(self, name, fn, *args):
        if not self.on:
            return fn(*args)
        parent = self.stack[-1] if self.stack else None
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.op_id])
        self.stack.append(idx)
        try:
            return fn(*args)
        finally:
            self.spans[idx][2] = time.perf_counter()
            self.stack.pop()


# -- part 1: the traced round ------------------------------------------------------


def cli_inprocess_ops(seed, workdir, call):
    """Round 0 of cli-cold as in-process public calls (cold per pair)."""
    digests = checks.load_digests()
    ops = []
    for i, (cmd, name, N) in enumerate(wl.cli_requests(seed, 0)):
        if cmd in ("ring info", "cosets"):
            out = os.path.join(workdir, f"out-{i}.json")
            argv = wl.cli_argv(cmd, name, N, workdir) + ["--out", out]

            def thunk(argv=argv):
                return call("cli.main", cli.main, argv)

            def check(code, cmd=cmd, name=name, N=N, out=out):
                if code != 0:
                    return False, f"exit code {code}"
                with open(out, "rb") as fh:
                    return checks.check_digest(digests, checks.digest_key(cmd, name, N), fh.read())

        elif cmd == "idempotents":

            def thunk(name=name, N=N):
                ring = call("rings.ChainRing.from_json", ChainRing.from_json, wl.RING_SPECS[name])
                cls = call("polyfactory.classify_cosets", classify_cosets, N, ring.p, ring.r)
                ext = call("polyfactory.build_extension", build_extension, ring, N)
                return cls, call("idempotents.primitive_idempotents", primitive_idempotents, ext, cls)

            def check(res):
                cls, system = res
                return len(system.eps) == cls.v + 1, "wrong number of idempotents"

        else:
            spec = wl.cli_code_spec(seed, 0, name, N)

            def thunk(spec=spec):
                ring = call("rings.ChainRing.from_json", ChainRing.from_json, spec["ring"])
                N = spec["N"]
                call("idempotents.idempotent_system", idempotent_system, ring, N)
                if spec["family"] == "galois":
                    gspec = gc.GaloisCodeSpec(ring=ring, N=N, e=spec["e"])
                    code = call("galois_codes.build_galois_code", gc.build_galois_code, gspec)
                    dual_spec = call("galois_codes.dual_galois_code", gc.dual_galois_code, gspec)
                    dual = call("galois_codes.build_galois_code", gc.build_galois_code, dual_spec)
                else:
                    espec = ec.EisensteinCodeSpec(ring=ring, N=N, a=spec["a"])
                    code = call("eisenstein_codes.build_eisenstein_code", ec.build_eisenstein_code, espec)
                    dual = call("eisenstein_codes.eisenstein_dual_code", ec.eisenstein_dual_code, code)
                return code, dual

            def check(res, spec=spec):
                code, dual = res
                return checks.check_counting(code.log_p_card, dual.log_p_card, spec["N"],
                                        code.ring.log_p_card)

        ops.append((cmd, thunk, check))
    return ops


def traced_child(args, workdir):
    """Run one round (spans on or off) and write spans and op times to --out."""
    import run

    rec = Spans(on=args.trace_child == 1)
    if args.workload == "cli-cold":
        for name, spec in wl.RING_SPECS.items():
            wl.write_json(os.path.join(workdir, f"ring-{name}.json"), spec)
        ops = cli_inprocess_ops(args.seed, workdir, rec.call)
    else:
        state, _ = run.setup_in_process(args.workload, args.seed)
        ops = state.round_ops(0, rec.call)
    op_times, kinds, failed = [], [], 0
    for op_id, (kind, thunk, check) in enumerate(ops):
        rec.op_id = op_id
        t0 = time.perf_counter()
        try:
            ok, _ = check(rec.call(f"op.{kind}", thunk))
        except Exception as exc:  # counted as a failed op
            print(f"traced op failed: {kind}: {type(exc).__name__}: {exc}", file=sys.stderr)
            ok = False
        op_times.append(time.perf_counter() - t0)
        kinds.append(kind)
        failed += not ok
    with open(args.out, "w") as fh:
        json.dump({"spans": rec.spans, "op_times": op_times, "kinds": kinds, "failed": failed}, fh)


def run_child(args, workdir, on):
    out = os.path.join(workdir, f"trace-child-{on}.json")
    proc = subprocess.run(
        [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py"),
         "--workload", args.workload, "--seed", str(args.seed), "--trace-child", str(on),
         "--out", out],
        capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"traced child failed: {proc.stderr.strip()[-600:]}")
    with open(out) as fh:
        return json.load(fh)


def self_shares(spans):
    """Self time per layer over total op-span time; the op span itself is 'bench'."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    self_by_layer = dict.fromkeys(LAYERS + ["bench"], 0.0)
    total = 0.0
    for idx, (name, start, end, parent, _) in enumerate(spans):
        layer = "bench" if name.startswith("op.") else name.split(".")[0]
        self_by_layer[layer] += (end - start) - child_time[idx]
        if parent is None:
            total += end - start
    return {layer: t / total for layer, t in self_by_layer.items()}


# -- part 2: layer probes ------------------------------------------------------------


def per_second(fn, items, min_time=MIN_PROBE_S):
    """Calls per second of fn over items, repeating the sweep for min_time."""
    count, t0 = 0, time.perf_counter()
    while True:
        for item in items:
            fn(item)
        count += len(items)
        elapsed = time.perf_counter() - t0
        if elapsed >= min_time:
            return count / elapsed


def median_ms(fn, items):
    times = []
    for item in items:
        t0 = time.perf_counter()
        fn(item)
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def sweep_ms(fn, reps):
    """Median time of reps calls of fn()."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def nonzero_coefficients(system, limit=200):
    """An even sample of the nonzero eps and eps_{i,h} coefficients."""
    polys = list(system.eps) + list(system.eps_split.values())
    out = [c for poly in polys for c in poly if not c.is_zero()]
    return out[:: max(1, len(out) // limit)][:limit]


def probe_idempotents(metrics):
    """Cold pipeline per pair; keeps the systems for the inner-layer probes."""
    systems, pipeline = {}, {}
    for name, N in IDEMPOTENT_PAIRS:
        ring = wl.make_ring(name)
        t0 = time.perf_counter()
        cls = classify_cosets(N, ring.p, ring.r)
        ext = build_extension(ring, N)
        t1 = time.perf_counter()
        systems[(name, N)] = primitive_idempotents(ext, cls)
        t2 = time.perf_counter()
        metrics[f"idempotents.primitive_idempotents_s.{name}-N{N}"] = (t2 - t1, "s")
        pipeline[(name, N)] = t2 - t0
    rings = {name: wl.make_ring(name) for name, _ in wl.CLI_PAIRS}
    metrics["polyfactory.classify_cosets_ms"] = (sweep_ms(
        lambda: [classify_cosets(N, rings[n].p, rings[n].r) for n, N in wl.CLI_PAIRS], 20), "ms")
    metrics["polyfactory.build_extension_ms"] = (sweep_ms(
        lambda: [build_extension(rings[n], N) for n, N in wl.CLI_PAIRS], 5), "ms")
    demo = rings["demo"]
    metrics["idempotents.trace_dual_basis_ms"] = (sweep_ms(lambda: trace_dual_basis(demo), 50), "ms")
    return systems, pipeline


def probe_rings_and_polys(metrics, systems):
    for name, pair in MUL_SOURCES.items():
        elems = nonzero_coefficients(systems[pair])
        pairs = [(a, elems[(7 * i + 3) % len(elems)]) for i, a in enumerate(elems)]
        metrics[f"rings.mul_per_s.{name}"] = (per_second(lambda ab: ab[0] * ab[1], pairs), "1/s")
        if name == "demo":
            metrics["rings.add_per_s.demo"] = (per_second(lambda ab: ab[0] + ab[1], pairs), "1/s")
            units = [a for a in elems if a.is_unit()] or [elems[0].ring.one]
            metrics["rings.invert_per_s.demo"] = (per_second(lambda a: a.invert(), units), "1/s")
            products = [a * b for a, b in pairs]
            metrics["rings.trace_per_s.demo"] = (
                per_second(lambda a: a.ring.trace_to_base(a), products), "1/s")

    system = systems[("demo", 63)]
    ext = system.ext
    # the operands primitive_idempotents forms: coset sums of eta powers
    sums = []
    for coset in system.cls.cosets_p:
        for j in range(0, system.N, 5):
            acc = ext.big_ring.zero
            for l in coset:
                acc = acc + ext.eta_pow(-j * l)
            sums.append(acc)
    pairs = [(a, sums[(7 * i + 3) % len(sums)]) for i, a in enumerate(sums[:200])]
    metrics["rings.mul_ext_per_s.demo-N63"] = (per_second(lambda ab: ab[0] * ab[1], pairs), "1/s")

    for N in PMUL_LENGTHS:
        sys_ = systems[("demo", N)]
        polys = list(sys_.eps) + list(sys_.eps_split.values())
        pairs = [(polys[i], polys[(i + 1) % len(polys)]) for i in range(len(polys))]
        metrics[f"polyops.pmul_mod_xn1_per_s.demo-N{N}"] = (per_second(
            lambda ab: polyops.pmul_mod_xn1(sys_.ring, ab[0], ab[1], N), pairs), "1/s")

    inputs = [(ext.embed(c), "base") for poly in system.eps for c in poly]
    inputs += [(ext.embed(c), "full") for poly in system.eps_split.values() for c in poly]
    metrics["polyfactory.down_per_s"] = (per_second(lambda it: ext.down(*it), inputs[:300]), "1/s")
    metrics["polyfactory.minimal_polynomial_ms"] = (sweep_ms(
        lambda: [minimal_polynomial(c, ext, "base") for c in system.cls.cosets_p], 3), "ms")


def probe_linalg_and_codes(metrics, seed):
    """Stacks and specs of the codes-build pairs, then codes-query codes."""
    galois, eisen, raw = [], [], []
    for name, N in LINALG_PAIRS:
        ring = wl.make_ring(name)
        spec = wl.galois_spec(ring, N, wl.slot_rng(seed, "probe", name, N), rate=0.5)
        galois.append(spec)
        if ring.r == 1:
            eisen.append(wl.eisenstein_spec(ring, N, wl.slot_rng(seed, "probe-e", name, N), 0.5))
    built = [gc.build_galois_code(s) for s in galois]
    for code in built:
        stack = code.stack
        per = code.ring.r * code.ring.k
        rows = np.vstack([stack.rows, np.roll(stack.rows, per, axis=1)])
        raw.append(modlinalg.GeneratorStack(rows, stack.p, stack.n, stack.cap_exps))

    metrics["galois_codes.build_ms"] = (median_ms(gc.build_galois_code, galois), "ms")
    metrics["galois_codes.dual_spec_ms"] = (median_ms(gc.dual_galois_code, galois), "ms")
    t0 = time.perf_counter()
    for stack in raw:
        modlinalg.normal_form(stack)
    elapsed = time.perf_counter() - t0
    metrics["modlinalg.normal_form_ms"] = (median_ms(modlinalg.normal_form, raw), "ms")
    metrics["modlinalg.normal_form_rows_per_s"] = (sum(len(s.rows) for s in raw) / elapsed, "1/s")
    metrics["modlinalg.stacks_equal_ms"] = (median_ms(
        lambda pair: modlinalg.stacks_equal(*pair), list(zip(raw, (c.stack for c in built)))), "ms")
    probes = [(c.stack, codes.shift_row(c.ring, row)) for c in built for row in c.stack.rows[:5]]
    metrics["modlinalg.contains_per_s"] = (
        per_second(lambda sv: modlinalg.contains(*sv), probes), "1/s")

    eisen_codes = [ec.build_eisenstein_code(s) for s in eisen]
    metrics["eisenstein_codes.build_ms"] = (median_ms(ec.build_eisenstein_code, eisen), "ms")
    metrics["eisenstein_codes.dual_ms"] = (median_ms(ec.eisenstein_dual_code, eisen_codes), "ms")
    metrics["eisenstein_codes.normalize_ms"] = (median_ms(ec.normalize_spec, eisen), "ms")
    metrics["modlinalg.solve_orthogonal_ms"] = (median_ms(
        lambda c: modlinalg.solve_orthogonal(ec.pairing_gram(c.ring, c.N), c.stack),
        eisen_codes), "ms")

    t0 = time.perf_counter()
    gc.decompose_to_spec(built[0])
    decompose_demo31 = time.perf_counter() - t0
    metrics["galois_codes.decompose_s.demo-N31"] = (decompose_demo31, "s")

    query = []
    for name, N in wl.QUERY_PAIRS:
        ring = wl.make_ring(name)
        spec = wl.galois_spec(ring, N, wl.slot_rng(seed, "probe-q", name, N), rate=0.5)
        query.append(gc.build_galois_code(spec))
    metrics["galois_codes.decompose_ms"] = (median_ms(gc.decompose_to_spec, query), "ms")
    metrics["codes.is_shift_closed_ms"] = (median_ms(codes.is_shift_closed, query), "ms")
    metrics["codes.is_x_closed_ms"] = (median_ms(codes.is_x_closed, query), "ms")
    return decompose_demo31


def probe_enumeration(metrics, seed):
    """One round of the enumerate workload's inputs, variant 0."""
    rings = {name: wl.make_ring(name) for name in wl.RING_SPECS}
    words, smaller_side, per_pair = 0, 0, {}
    for slot, (name, N, _) in enumerate(wl.WEIGHT_SLOTS):
        code = gc.build_galois_code(wl.weight_slot_specs(seed, slot)[0])
        t0 = time.perf_counter()
        counts = codes.weight_enumerator(code)
        elapsed = time.perf_counter() - t0
        n_words = sum(counts.values())
        words += n_words
        ambient = N * code.ring.log_p_card
        smaller_side += code.ring.p ** min(code.log_p_card, ambient - code.log_p_card)
        acc = per_pair.setdefault(f"{name}-N{N}", [0, 0.0])
        acc[0] += n_words
        acc[1] += elapsed
    for pair, (n, t) in sorted(per_pair.items()):
        metrics[f"codes.weight_enumerator_words_per_s.{pair}"] = (n / t, "1/s")
    metrics["codes.words_enumerated"] = (words, "count")
    metrics["codes.enumeration_excess_ratio"] = (words / smaller_side, "ratio")

    specs = []
    for name, N in wl.ORACLE_PAIRS:
        for family in ("galois", "eisenstein") if rings[name].r == 1 else ("galois",):
            specs.append(wl.oracle_slot_specs(seed, rings[name], N, family)[0])
    metrics["oracle.cross_check_ms"] = (median_ms(oracle.cross_check, specs), "ms")
    vectors, hits, spent = 0, 0, 0.0
    for spec in specs:
        if isinstance(spec, gc.GaloisCodeSpec):
            code, brute = gc.build_galois_code(spec), oracle.brute_dual_trace
        else:
            code, brute = ec.build_eisenstein_code(spec), oracle.brute_dual_character
        t0 = time.perf_counter()
        _, keys = brute(code)
        spent += time.perf_counter() - t0
        vectors += code.ring.card ** code.N
        hits += len(keys)
    metrics["oracle.survey_vectors_per_s"] = (vectors / spent, "1/s")
    metrics["oracle.survey_hit_ratio"] = (hits / vectors, "ratio")
    return per_pair


def probe_cli(metrics, workdir):
    import run

    env = wl.cli_env(run.ROOT)
    for name, spec in wl.RING_SPECS.items():
        wl.write_json(os.path.join(workdir, f"ring-{name}.json"), spec)
    argv = wl.cli_argv("ring info", "demo", 0, workdir)
    wl.spawn_cli(argv, env, workdir)  # warm the page cache and bytecode
    times = []
    for _ in range(7):
        t0 = time.perf_counter()
        wl.spawn_cli(argv, env, workdir)
        times.append(time.perf_counter() - t0)
    metrics["cli.process_start_ms"] = (1e3 * statistics.median(times), "ms")
    idempotent_system(wl.make_ring("demo"), 21)
    out = os.path.join(workdir, "report.json")
    argv = wl.cli_argv("idempotents", "demo", 21, workdir) + ["--out", out]
    metrics["cli.report_ms"] = (sweep_ms(lambda: cli.main(argv), 7), "ms")


# -- part 3: the whole traced run -------------------------------------------------------


def baselines(metrics, pipeline, decompose_demo31, per_pair):
    """ROADMAP baselines next to this run's numbers, with the gap."""
    lines = []

    def line(what, base, got, unit):
        lines.append(f"{what}: ROADMAP {base:.4g} {unit}, traced {got:.4g} {unit} (x{got / base:.2f})")

    line("ring mul, demo", 3.5, 1e6 / metrics["rings.mul_per_s.demo"][0], "us")
    for N, base in ((21, 0.20), (45, 1.4), (63, 6.0), (127, 15.4)):
        line(f"idempotent_system demo N={N}", base, pipeline[("demo", N)], "s")
    line("decompose_to_spec demo N=31", 3.2, decompose_demo31, "s")
    for pair, (n, t) in sorted(per_pair.items()):
        line(f"weight_enumerator words/s {pair}", 2.0e6, n / t, "words/s")
    return lines


def traced_run(args, workdir):
    traced = run_child(args, workdir, 1)
    plain = run_child(args, workdir, 0)
    shares = self_shares(traced["spans"])
    metrics = {f"{layer}.self_share": (share, "share") for layer, share in shares.items()}
    overhead = sum(traced["op_times"]) / sum(plain["op_times"]) - 1
    metrics["trace.overhead_share"] = (overhead, "share")

    systems, pipeline = probe_idempotents(metrics)
    probe_rings_and_polys(metrics, systems)
    # the N=127 and N=80 systems are large; drop them so garbage collection
    # does not slow the later probes
    del systems
    garbage_collector.collect()
    decompose_demo31 = probe_linalg_and_codes(metrics, args.seed)
    per_pair = probe_enumeration(metrics, args.seed)
    garbage_collector.collect()
    probe_cli(metrics, workdir)

    out = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    failed = traced["failed"] + plain["failed"]
    attempted = len(traced["op_times"]) + len(plain["op_times"])
    info = {
        "traced_ops": len(traced["op_times"]),
        "spans": len(traced["spans"]),
        "traced_op_time_s": sum(traced["op_times"]),
        "untraced_op_time_s": sum(plain["op_times"]),
        "ops_per_kind": dict(Counter(traced["kinds"])),
        "baselines": baselines(metrics, pipeline, decompose_demo31, per_pair),
    }
    return failed == 0, attempted, failed, out, info
