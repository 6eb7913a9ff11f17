"""End-to-end acceptance gate.

Each test covers one release criterion and prints a single
`criterion NN PASS: ...` line with the measured evidence (or a FAIL line
before the assertion error propagates).
"""

import contextlib
import dataclasses
import itertools
import json
import random
import time
from importlib import resources

from cgraforge.agents import FixFailure, fix_design, heuristic
from cgraforge.arch import (
    DesignPoint,
    FabricSpec,
    FuKind,
    Topology,
    parse_design,
    serialize_design,
    validate_design,
)
from cgraforge.costs import (
    Objective,
    ObjectiveMode,
    estimate_ppa,
    load_cost_coeffs,
    tool_evaluate,
    tool_select,
)
from cgraforge.kernel import (
    BUILTIN_KERNELS,
    TransformError,
    apply_sw_params,
    load_kernel,
)
from cgraforge.mapper import (
    MapBudget,
    MapError,
    MappedDesign,
    MappingResult,
    check_mapping,
)
from cgraforge.mapper import speedup as compute_speedup
from cgraforge.orchestrate import RunConfig, run
from cgraforge.selection import (
    SelectionConfig,
    SelectionState,
    ToolRound,
    load_sim_script,
    run_selection,
    select_step,
)

from helpers import ALL_KINDS, FULL_FABRIC, make_design, map_checked, random_design, random_dfg
from oracles import brute_force_min_ii, dependence_pairs, transformed_pairs_in_original_space

OBJ = Objective(mode=ObjectiveMode.MIN_POWER, min_speedup=1.5)


@contextlib.contextmanager
def criterion(num: int):
    """Prints the one-line verdict for a criterion; the caller prints the
    PASS detail, this prints the FAIL line when an assertion escapes."""
    try:
        yield
    except BaseException as e:
        detail = str(e).splitlines()[0] if str(e) else type(e).__name__
        print(f"criterion {num:02d} FAIL: {detail}")
        raise


def bundled_script(name: str) -> dict:
    text = resources.files("cgraforge.data.scripts").joinpath(f"{name}.json").read_text("utf-8")
    return json.loads(text)


def test_criterion_01_selection_scripts():
    with criterion(1):
        t0 = time.perf_counter()

        cfg, steps = load_sim_script(bundled_script("constant_agreement"))
        trace = run_selection(cfg, steps)
        tool_iters = [r.iteration for r in trace if r.mode == "TOOL"]
        assert tool_iters == [1, 2, 3, 4, 5, 10]
        llm_iters = [r.iteration for r in trace if r.mode == "LLM"]
        assert min(llm_iters) == 6
        n = 0
        for rec in trace:
            if rec.mode == "TOOL":
                n += 1
                assert abs(rec.confidence_after - (1.0 - 0.5**n)) <= 1e-9
            else:
                assert rec.confidence_after == rec.confidence_before

        cfg_f, steps_f = load_sim_script(bundled_script("interval_forcing"))
        trace_f = run_selection(cfg_f, steps_f)
        forced = [r.iteration for r in trace_f if r.mode == "TOOL"]
        assert forced == [5, 10, 15, 20]

        dt = time.perf_counter() - t0
        assert dt < 1.0
    print(
        f"criterion 01 PASS: constant-agreement conf tracks 1-0.5^n within 1e-9 over "
        f"{len(tool_iters)} tool steps (first LLM step at iteration 6), interval script forces "
        f"TOOL at {forced}, in {dt:.3f}s"
    )


def test_criterion_02_confidence_update():
    with criterion(2):
        cfg = SelectionConfig(conf_threshold=0.7, validation_interval=5, alpha=0.3, sigma=1.0)
        state, rec, _ = select_step(
            SelectionState(confidence=0.65),
            cfg,
            judge_select=lambda: ("judge", 4.0),
            tool_round=lambda: ToolRound(reports=(), choice="tool", score=2.0),
        )
        assert rec.mode == "TOOL"
        assert abs(state.confidence - 0.49560) <= 1e-5
    print(
        f"criterion 02 PASS: TOOL step from conf 0.65 with scores (l=4.0, t=2.0, alpha=0.3, "
        f"sigma=1) lands at {state.confidence:.10f}, within 1e-5 of 0.49560"
    )


ORACLE_BUDGET = MapBudget(max_ii=4, placement_attempts=500_000)


def test_criterion_03_mapper_optimality():
    with criterion(3):
        t0 = time.perf_counter()
        fabrics = {
            t: FabricSpec(rows=2, cols=2, topology=t, fu_kinds=ALL_KINDS, config_mem_depth=32, data_mem_kb=32)
            for t in Topology
        }
        graphs = []
        for seed in (7, 17, 123):
            rng = random.Random(seed)
            graphs.extend(random_dfg(rng, max_nodes=6, trip_count=32) for _ in range(70))
        assert len(graphs) >= 200

        cases = mapped = 0
        for k in graphs:
            for topo, f in fabrics.items():
                cases += 1
                got = map_checked(k, f, ORACLE_BUDGET)
                want = brute_force_min_ii(k, f, max_ii=ORACLE_BUDGET.max_ii)
                if isinstance(got, MapError):
                    assert want is None, f"{k.name}/{topo.name}: mapper failed but oracle found ii={want}"
                else:
                    mapped += 1
                    assert want == got.ii, f"{k.name}/{topo.name}: mapper ii={got.ii}, oracle ii={want}"
        dt = time.perf_counter() - t0
        assert dt < 300.0
    print(
        f"criterion 03 PASS: mapper II matched brute-force optimum on {cases}/{cases} cases "
        f"({len(graphs)} DFGs x 3 topologies, {mapped} mappable), in {dt:.1f}s"
    )


def test_criterion_04_schedule_soundness():
    with criterion(4):
        fabrics = [
            FULL_FABRIC,
            FabricSpec(rows=3, cols=3, topology=Topology.KINGMESH, fu_kinds=ALL_KINDS, config_mem_depth=16, data_mem_kb=32),
            FabricSpec(rows=4, cols=4, topology=Topology.CROSSBAR, fu_kinds=ALL_KINDS, config_mem_depth=32, data_mem_kb=32),
        ]
        checked = problems_found = 0
        for name in BUILTIN_KERNELS:
            k = load_kernel(name)
            for f in fabrics:
                res = map_checked(k, f)
                assert isinstance(res, MappingResult), f"{name} failed to map on {f.topology.name}"
                problems_found += len(check_mapping(k, f, res))
                checked += 1
        rng = random.Random(404)
        small = [
            FabricSpec(rows=2, cols=2, topology=t, fu_kinds=ALL_KINDS, config_mem_depth=32, data_mem_kb=32)
            for t in Topology
        ]
        for _ in range(50):
            k = random_dfg(rng)
            res = map_checked(k, rng.choice(small))
            if isinstance(res, MappingResult):
                checked += 1
        assert problems_found == 0
        assert checked >= 70
    print(
        f"criterion 04 PASS: {checked} mapping results (11 kernels x 3 fabrics plus random DFGs) "
        f"passed the independent schedule checker with 0 violations; every suite mapping goes "
        f"through the same checker"
    )


FAULTS = [
    ("rows_zero", lambda d: dataclasses.replace(d, fabric=dataclasses.replace(d.fabric, rows=0))),
    ("cols_over", lambda d: dataclasses.replace(d, fabric=dataclasses.replace(d.fabric, cols=23))),
    ("depth_zero", lambda d: dataclasses.replace(d, fabric=dataclasses.replace(d.fabric, config_mem_depth=0))),
    ("mem_negative", lambda d: dataclasses.replace(d, fabric=dataclasses.replace(d.fabric, data_mem_kb=-4))),
    ("kinds_empty", lambda d: dataclasses.replace(d, fabric=dataclasses.replace(d.fabric, fu_kinds=frozenset()))),
    (
        "loadstore_dropped",
        lambda d: dataclasses.replace(
            d, fabric=dataclasses.replace(d.fabric, fu_kinds=d.fabric.fu_kinds - {FuKind.LOAD, FuKind.STORE})
        ),
    ),
    ("unroll_out_of_range", lambda d: dataclasses.replace(d, sw=dataclasses.replace(d.sw, unroll_factor=0))),
    ("vectorize_out_of_range", lambda d: dataclasses.replace(d, sw=dataclasses.replace(d.sw, vectorize_factor=9))),
    ("non_divisible_unroll", lambda d: dataclasses.replace(d, sw=dataclasses.replace(d.sw, unroll_factor=5))),
    ("carried_blocked_vectorize", lambda d: dataclasses.replace(d, sw=dataclasses.replace(d.sw, vectorize_factor=2))),
    (
        "kernel_kind_missing",
        lambda d: dataclasses.replace(
            d, fabric=dataclasses.replace(d.fabric, fu_kinds=d.fabric.fu_kinds - {FuKind.MAC, FuKind.MUL})
        ),
    ),
    ("depth_too_shallow", lambda d: dataclasses.replace(d, fabric=dataclasses.replace(d.fabric, config_mem_depth=1))),
    (
        "grid_too_small",
        lambda d: dataclasses.replace(
            d,
            fabric=dataclasses.replace(d.fabric, rows=1, cols=1),
            sw=dataclasses.replace(d.sw, unroll_factor=8),
        ),
    ),
    (
        "combo_structural",
        lambda d: dataclasses.replace(d, fabric=dataclasses.replace(d.fabric, rows=0, config_mem_depth=0)),
    ),
]


def test_criterion_05_repair_completeness():
    with criterion(5):
        kernel = load_kernel("fir")
        budget = MapBudget()
        agent = heuristic.HeuristicAgent(OBJ, seed=0)

        def check(d: DesignPoint):
            violations = validate_design(d)
            if violations:
                return violations
            try:
                tk = apply_sw_params(kernel, d.sw.unroll_factor, d.sw.vectorize_factor)
            except TransformError as e:
                return e
            res = map_checked(tk, d.fabric, budget)
            return res if isinstance(res, MapError) else None

        rng = random.Random(2026)
        corpus = []
        for i in range(50):
            d = make_design(
                rows=rng.randint(2, 4),
                cols=rng.randint(2, 4),
                topology=rng.choice(tuple(Topology)),
                config_mem_depth=rng.choice((8, 16, 32)),
                data_mem_kb=rng.choice((8, 16)),
                design_id=f"f{i:02d}",
            )
            if i % 5 == 4:
                corpus.append(d)
            else:
                corpus.append(FAULTS[i % len(FAULTS)][1](d))

        sr1_hits = fixed_hits = 0
        worst_rounds = 0
        for d in corpus:
            err = check(d)
            if err is None:
                sr1_hits += 1
                fixed_hits += 1
                continue
            out = fix_design(d, err, agent, check, max_rounds=4)
            assert not isinstance(out, FixFailure), f"{d.id} unrepaired after 4 rounds: {out.error}"
            fixed_hits += 1
            worst_rounds = max(worst_rounds, out.note.count("repair:"))
        sr1 = sr1_hits / len(corpus)
        sr2 = fixed_hits / len(corpus)
        assert sr1 < 1.0
        assert sr2 == 1.0
        assert sr2 >= sr1
        assert worst_rounds <= 4
    print(
        f"criterion 05 PASS: seeded-fault corpus of {len(corpus)} designs repaired to "
        f"SR2={sr2:.0%} (SR1={sr1:.0%} by construction, worst case {worst_rounds} rounds)"
    )


def test_criterion_06_closed_loop_convergence(tmp_path):
    with criterion(6):
        kernels = ("fir", "gemm", "spmv", "fft")
        improved = 0
        summaries = []
        for name in kernels:
            cfg = RunConfig(kernel=name, iterations=20, seed=0, objective=OBJ)
            t0 = time.perf_counter()
            result = run(cfg, tmp_path / name)
            dt = time.perf_counter() - t0
            assert dt < 60.0, f"{name} run took {dt:.1f}s"

            m = result.metrics
            assert m["feasible"] is True
            assert m["best"]["speedup"] >= 1.5
            trail = [e["best_so_far"] for e in m["iterations"]]
            numeric = [b for b in trail if b is not None]
            assert numeric, f"{name}: no feasible design in 20 iterations"
            assert all(b2 <= b1 for b1, b2 in zip(numeric, numeric[1:])), f"{name}: best-so-far not monotone"
            if trail[0] is None or numeric[-1] < trail[0]:
                improved += 1
            summaries.append(f"{name} score {numeric[-1]:.4g} speedup {m['best']['speedup']:.2f} in {dt:.1f}s")
        assert improved >= 3
    print(
        f"criterion 06 PASS: 20-iteration runs converged monotonically, {improved}/4 kernels "
        f"improved past iteration 1 ({'; '.join(summaries)})"
    )


def _mapped_fir_candidate(rng, cache, kernel, cid):
    key = (
        rng.randint(2, 4),
        rng.randint(2, 4),
        rng.choice((4, 8, 16, 24, 32)),
        rng.choice(tuple(Topology)),
        rng.choice((8, 16)),
    )
    rows, cols, depth, topo, mem = key
    d = make_design(rows=rows, cols=cols, topology=topo, config_mem_depth=depth, data_mem_kb=mem, design_id=cid)
    if key not in cache:
        res = map_checked(kernel, d.fabric)
        assert isinstance(res, MappingResult)
        cache[key] = (res, compute_speedup(kernel, res, kernel.trip_count))
    res, sp = cache[key]
    return MappedDesign(design=d, mapping=res, trip_after=kernel.trip_count, speedup=sp)


def test_criterion_07_judge_learning():
    with criterion(7):
        kernel = load_kernel("fir")
        coeffs = load_cost_coeffs(None)
        cache: dict = {}

        def rand_set(rng):
            return [_mapped_fir_candidate(rng, cache, kernel, f"c{i}") for i in range(4)]

        def agreement(judge, sets):
            hits = 0
            for cands in sets:
                judge_choice = judge.select(cands)[0]
                tool_choice = tool_select(tool_evaluate(cands, OBJ, coeffs))[0]
                hits += judge_choice == tool_choice
            return hits / len(sets)

        rng_eval = random.Random(1234)
        eval_sets = [rand_set(rng_eval) for _ in range(100)]
        rng_train = random.Random(5678)
        train_sets = [rand_set(rng_train) for _ in range(20)]

        judge = heuristic.HeuristicAgent(OBJ)
        before = agreement(judge, eval_sets)
        for cands in train_sets:
            reports = tool_evaluate(cands, OBJ, coeffs)
            tool_choice, _ = tool_select(reports)
            judge_choice, _ = judge.select(cands)
            judge.replay(judge.lesson(cands, reports, tool_choice, judge_choice))
        after = agreement(judge, eval_sets)
        assert after > before, f"agreement did not improve: {before:.2f} -> {after:.2f}"
    print(
        f"criterion 07 PASS: judge agreement with the tool over 100 fresh candidate sets rose "
        f"from {before:.0%} to {after:.0%} after 20 lessons"
    )


def test_criterion_08_transform_semantics():
    with criterion(8):
        verified = rejected = carried_rejections = 0
        for name in BUILTIN_KERNELS:
            k = load_kernel(name)
            want = dependence_pairs(k)
            for u, v in itertools.product((1, 2, 3, 4), repeat=2):
                try:
                    kt = apply_sw_params(k, u, v)
                except TransformError as e:
                    rejected += 1
                    assert e.code in ("NON_DIVISIBLE_FACTOR", "CARRIED_DEP_BLOCKS_VECTORIZATION")
                    carried_rejections += e.code == "CARRIED_DEP_BLOCKS_VECTORIZATION"
                    continue
                got = transformed_pairs_in_original_space(kt, u, v)
                assert got == want, f"{name} u={u} v={v}: dependence pairs changed"
                verified += 1
        assert verified > len(BUILTIN_KERNELS)  # non-identity combos were exercised
        assert carried_rejections > 0
    print(
        f"criterion 08 PASS: {verified} legal unroll/vectorize combos preserved all iteration-space "
        f"dependence pairs across {len(BUILTIN_KERNELS)} kernels; {rejected} illegal combos rejected "
        f"({carried_rejections} for carried dependences)"
    )


def test_criterion_09_determinism_round_trips(tmp_path):
    with criterion(9):
        cfg = RunConfig(kernel="spmv", iterations=4, proposals_per_iteration=4, top_k=2, seed=5)
        a = run(cfg, tmp_path / "a")
        b = run(cfg, tmp_path / "b")
        assert a.history_path.read_bytes() == b.history_path.read_bytes()
        ma, mb = dict(a.metrics), dict(b.metrics)
        ma.pop("meta"), mb.pop("meta")
        assert ma == mb
        half = dataclasses.replace(cfg, iterations=2)
        run(half, tmp_path / "c")
        c = run(cfg, tmp_path / "c", resume=True)
        assert c.history_path.read_bytes() == a.history_path.read_bytes()

        rng = random.Random(31)
        for _ in range(1000):
            d = random_design(rng)
            text = serialize_design(d)
            d2 = parse_design(text)
            assert (d2.fabric, d2.sw, d2.id) == (d.fabric, d.sw, d.id)
            assert serialize_design(d2) == text

        ref_text = resources.files("cgraforge.data.designs").joinpath("spmv_reference.json").read_text("utf-8")
        ref = parse_design(ref_text)
        assert validate_design(ref) == []
        spmv = load_kernel("spmv")
        tk = apply_sw_params(spmv, ref.sw.unroll_factor, ref.sw.vectorize_factor)
        res = map_checked(tk, ref.fabric)
        assert isinstance(res, MappingResult)
    print(
        f"criterion 09 PASS: replayed and resumed runs are byte-identical (meta excluded), 1000 "
        f"design round-trips held, and the packaged spmv reference design validates clean and maps "
        f"at ii={res.ii}"
    )


def test_criterion_10_cost_model_orderings():
    with criterion(10):
        coeffs = load_cost_coeffs(None)
        stub = MappingResult(ii=2, schedule={0: ((0, 0), 0), 1: ((0, 0), 1)}, routes=(), schedule_len=2)
        kernel = load_kernel("relu")
        rng = random.Random(99)
        tiles_cases = kinds_cases = depth_cases = 0
        for _ in range(1000):
            d = random_design(rng)
            f = d.fabric
            power, area = estimate_ppa(d, stub, coeffs)
            assert power > 0 and area > 0

            if f.rows < 16 or f.cols < 16:
                bigger = dataclasses.replace(f, rows=f.rows + 1) if f.rows < 16 else dataclasses.replace(f, cols=f.cols + 1)
                p2, a2 = estimate_ppa(dataclasses.replace(d, fabric=bigger), stub, coeffs)
                assert p2 > power and a2 > area
                tiles_cases += 1

            missing = sorted(set(FuKind) - f.fu_kinds, key=lambda k: k.name)
            if missing:
                richer = dataclasses.replace(f, fu_kinds=f.fu_kinds | {missing[0]})
                p2, a2 = estimate_ppa(dataclasses.replace(d, fabric=richer), stub, coeffs)
                assert p2 > power and a2 > area
                kinds_cases += 1

            if f.config_mem_depth < 32:
                deeper = dataclasses.replace(f, config_mem_depth=f.config_mem_depth + 1)
                p2, a2 = estimate_ppa(dataclasses.replace(d, fabric=deeper), stub, coeffs)
                assert p2 > power and a2 > area
                depth_cases += 1

            by_topo = {
                t: estimate_ppa(dataclasses.replace(d, fabric=dataclasses.replace(f, topology=t)), stub, coeffs)
                for t in Topology
            }
            assert by_topo[Topology.MESH][0] < by_topo[Topology.KINGMESH][0] < by_topo[Topology.CROSSBAR][0]
            assert by_topo[Topology.MESH][1] < by_topo[Topology.KINGMESH][1] < by_topo[Topology.CROSSBAR][1]

            cand = MappedDesign(design=d, mapping=stub, trip_after=8, speedup=compute_speedup(kernel, stub, 8))
            report = tool_evaluate([cand], OBJ, coeffs)[0]
            want = report.speedup / report.power_mw
            assert abs(report.power_efficiency - want) <= 1e-12 * abs(want)

        assert min(tiles_cases, kinds_cases, depth_cases) >= 800
    print(
        f"criterion 10 PASS: over 1000 random designs, power/area rose strictly with tiles "
        f"({tiles_cases} cases), FU kinds ({kinds_cases}), and config depth ({depth_cases}); wiring "
        f"kept MESH < KINGMESH < CROSSBAR; power_efficiency matched speedup/power to 1e-12 relative"
    )
