"""End-to-end acceptance battery.

Each test covers one numbered contract and prints a single PASS/FAIL line.
The bundle-based checks share one cache of fully trained default bundles,
so everything here is deterministic for the fixed seed set.
"""

import numpy as np

from trustmerge.bundle import TaskBundle
from trustmerge.cli import TAU_GRID
from trustmerge.evaluation import (
    accuracy_table,
    knowledge_conflict,
    landscape,
    merge_bundle,
    signed_gradient,
)
from trustmerge.merging import (
    MergeConfig,
    ada_coefficient_gradient,
    _assemble,
    task_arithmetic,
    tatr_merge,
    ties_merge,
    ties_phi,
    ties_tatr,
)
from trustmerge.mlp import (
    LabeledBatch,
    MlpSpec,
    backward,
    entropy_loss,
    evaluate_accuracy,
    forward,
    init_params,
)
from trustmerge.params import (
    Checkpoint,
    ew_combine,
    ew_dot,
    ew_scale,
    load_checkpoint,
    save_checkpoint,
    sum_in_order,
)
from trustmerge.task_vectors import decompose, percentile_zero_tol
from trustmerge.trust_region import (
    VARIANTS,
    Sensitivity,
    build_mask,
    compute_sensitivity,
    proportion_selection,
)

from conftest import per_example_reference


def check(name, ok, detail=""):
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def random_structure(rng):
    shapes = [
        ("layer0.weight", (int(rng.integers(2, 6)), int(rng.integers(2, 6)))),
        ("layer0.bias", (int(rng.integers(2, 6)),)),
        ("layer1.weight", (int(rng.integers(2, 6)),)),
    ]
    return Checkpoint((n, rng.normal(size=s)) for n, s in shapes)


def random_merge_inputs(rng):
    pre = random_structure(rng)
    k = int(rng.integers(2, 6))
    tvs = [
        Checkpoint((n, rng.normal(size=v.shape)) for n, v in pre)
        for i in range(k)
    ]
    grads = [
        Checkpoint((n, np.abs(rng.normal(size=v.shape))) for n, v in pre)
        for i in range(k)
    ]
    return pre, tvs, grads


def merged_avg_accuracy(bundle, cfg, exemplar_count=None):
    result = merge_bundle(bundle, cfg, exemplar_count)
    return accuracy_table(bundle, [("m", result)])[-1][2]


def test_01_tau_zero_reduces_to_task_arithmetic():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        pre, tvs, grads = random_merge_inputs(rng)
        lam = float(rng.uniform(0.05, 1.0))
        plain = task_arithmetic(pre, tvs, lam).merged
        masked = tatr_merge(pre, tvs, build_mask(compute_sensitivity(grads, tvs), 0.0), lam).merged
        identical = all(masked[n].tobytes() == plain[n].tobytes() for n in plain.names)
        if not identical:
            check("tau-zero reduction", False)
    check("tau-zero reduction", True, "100/100 byte-identical")


def test_02_mask_cardinality_and_scale_invariance():
    rng = np.random.default_rng(2025)
    taus = (0.0, 0.001, 0.01, 0.05, 0.5, 1.0)
    for _ in range(50):
        values = Checkpoint([("x", rng.normal(size=int(rng.integers(1, 300))))])
        omega = Sensitivity(values, "standard")
        n = values.total_dims
        for tau in taus:
            _, excluded = proportion_selection(omega, tau)
            if excluded.size != int(np.ceil(tau * n)):
                check("mask cardinality and scale invariance", False,
                      f"tau={tau} n={n} got {excluded.size}")
        base = build_mask(omega, 0.05).mask
        for c in (1e-6, 1.0, 1e6):
            scaled = Sensitivity(ew_scale(values, c), "standard")
            if build_mask(scaled, 0.05).mask != base:
                check("mask cardinality and scale invariance", False, f"c={c}")
    check("mask cardinality and scale invariance", True,
          "exact ceil(tau*N) zeros, scale-invariant")


def test_03_decomposition_partition():
    rng = np.random.default_rng(2026)
    for _ in range(1000):
        base = random_structure(rng)
        delta = base
        grad = Checkpoint((n, rng.normal(size=v.shape)) for n, v in base)
        tol = float(rng.uniform(0.0, 1.0)) if rng.random() < 0.5 else 0.0
        dec = decompose(delta, grad, tol)
        if sum_in_order([dec.orthogonal, dec.positive, dec.negative]) != base:
            check("decomposition partition", False, "recompose mismatch")
        for n, v in base:
            masks = np.stack([
                dec.orthogonal[n] != 0.0,
                dec.positive[n] != 0.0,
                dec.negative[n] != 0.0,
            ])
            if np.any(masks.sum(axis=0) > 1):
                check("decomposition partition", False, "overlapping supports")
    check("decomposition partition", True, "1000/1000 exact disjoint partitions")


def test_04_gradient_oracles():
    step = 1e-5
    rng = np.random.default_rng(2027)
    spec = MlpSpec((2, 5, 3))
    params = init_params(spec, seed=42)
    batch = LabeledBatch(rng.normal(size=(6, 2)), rng.integers(0, 3, size=6))

    def fd(loss_fn):
        out = []
        for name, arr in params:
            g = np.zeros_like(arr)
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index

                def at(offset):
                    bumped = {n: a.copy() for n, a in params}
                    bumped[name][idx] += offset
                    return loss_fn(Checkpoint(bumped.items()))

                g[idx] = (at(step) - at(-step)) / (2 * step)
            out.append((name, g))
        return Checkpoint(out)

    def rel(analytic, numeric):
        a, b = analytic.flat(), numeric.flat()
        return np.linalg.norm(a - b) / np.linalg.norm(b)

    _, ce_grads = backward(params, batch)
    ce_err = rel(ce_grads, fd(lambda p: forward(p, batch)[1]))
    _, ent_grads = entropy_loss(params, batch)
    ent_err = rel(ent_grads, fd(lambda p: entropy_loss(p, batch)[0]))

    masked = [
        Checkpoint((n, 0.2 * rng.normal(size=v.shape)) for n, v in params)
        for i in range(2)
    ]
    coeffs = np.array([0.3, 0.45])
    pools = [LabeledBatch(rng.normal(size=(8, 2)), np.zeros(8, dtype=int)) for _ in range(2)]
    _, analytic = ada_coefficient_gradient(params, masked, coeffs, pools)

    def entropy_total(c):
        merged = _assemble(params, masked, c)
        return sum(entropy_loss(merged, b)[0] for b in pools)

    coeff_err = 0.0
    for k in range(2):
        up, down = coeffs.copy(), coeffs.copy()
        up[k] += step
        down[k] -= step
        numeric = (entropy_total(up) - entropy_total(down)) / (2 * step)
        coeff_err = max(coeff_err, abs(analytic[k] - numeric) / abs(numeric))

    ok = ce_err < 1e-4 and ent_err < 1e-4 and coeff_err < 1e-5
    check("gradient oracles", ok,
          f"ce={ce_err:.2e} entropy={ent_err:.2e} coeff={coeff_err:.2e}")


def test_05_first_order_conflict_expansion(bundle_cache):
    lams = (0.1, 0.05, 0.025, 0.0125)
    passed = total = 0
    for seed in range(5):
        bundle = bundle_cache(seed)
        k = bundle.num_tasks
        tvs = bundle.task_vectors()
        grads = [signed_gradient(bundle, j) for j in range(k)]
        pairwise = {
            lam: knowledge_conflict(
                bundle, MergeConfig(method="task_arithmetic", lam=lam)
            ).pairwise
            for lam in lams
        }
        for i in range(k):
            for j in range(k):
                if i == j:
                    continue
                residuals = [
                    abs(pairwise[lam][i, j] - lam * ew_dot(grads[j], tvs[i]))
                    for lam in lams
                ]
                ratios = [residuals[t] / residuals[t + 1] for t in range(len(lams) - 1)]
                total += 1
                passed += all(r >= 1.7 for r in ratios)
    ok = passed >= 0.8 * total
    check("first-order conflict expansion", ok, f"{passed}/{total} pairs shrink >= 1.7x")


def test_06_conflict_and_accuracy_improvement(bundle_cache):
    ta_cfg = MergeConfig(method="task_arithmetic")
    tatr_cfg = MergeConfig(method="tatr", tau=0.01)
    c_ta, c_tatr, acc_ta, acc_tatr = [], [], [], []
    for seed in range(20):
        bundle = bundle_cache(seed)
        c_ta.append(knowledge_conflict(bundle, ta_cfg).total)
        c_tatr.append(knowledge_conflict(bundle, tatr_cfg).total)
        acc_ta.append(merged_avg_accuracy(bundle, ta_cfg))
        acc_tatr.append(merged_avg_accuracy(bundle, tatr_cfg))
    conflict_ok = np.mean(c_tatr) < np.mean(c_ta)
    gap = np.mean(acc_tatr) - np.mean(acc_ta)
    ok = conflict_ok and gap >= 0.005
    check("conflict and accuracy improvement", ok,
          f"C {np.mean(c_tatr):.3f} vs {np.mean(c_ta):.3f}, gap {100 * gap:.2f} pts")


def test_07_orthogonal_beats_negative_merging(bundle_cache):
    lam, fraction = 0.3, 0.05
    orth_accs, neg_accs = [], []
    for seed in range(20):
        bundle = bundle_cache(seed)
        orth_parts, neg_parts = [], []
        for k, tv in enumerate(bundle.task_vectors()):
            grad = signed_gradient(bundle, k)
            tol = percentile_zero_tol(tv, grad, fraction)
            dec = decompose(tv, grad, tol)
            orth_parts.append(dec.orthogonal)
            neg_parts.append(dec.negative)
        for parts, accs in ((orth_parts, orth_accs), (neg_parts, neg_accs)):
            merged = ew_combine(bundle.theta_pre, ew_scale(sum_in_order(parts), lam), "add")
            accs.append(np.mean([evaluate_accuracy(merged, t) for t in bundle.test_sets]))
    ok = np.mean(orth_accs) > np.mean(neg_accs)
    check("orthogonal beats negative merging", ok,
          f"orth {np.mean(orth_accs):.4f} vs neg {np.mean(neg_accs):.4f}")


def test_08_sensitivity_variant_ordering(bundle_cache):
    # tau large enough that variant masks genuinely differ on the small net
    tau = 0.1
    variants = ("standard", "signed_positive", "signed_negative", "zero_shot")
    accs = {v: [] for v in variants}
    ta = []
    for seed in range(10):
        bundle = bundle_cache(seed)
        ta.append(merged_avg_accuracy(bundle, MergeConfig(method="task_arithmetic")))
        for v in variants:
            cfg = MergeConfig(method="tatr", tau=tau, sensitivity_variant=v)
            accs[v].append(merged_avg_accuracy(bundle, cfg))
    m = {v: float(np.mean(a)) for v, a in accs.items()}
    ta_mean = float(np.mean(ta))
    standard_wins = (
        m["standard"] > m["signed_positive"] and m["standard"] > m["signed_negative"]
    )
    signed_lo = min(m["signed_positive"], m["signed_negative"])
    zero_shot_ok = (signed_lo <= m["zero_shot"] <= m["standard"]) or (
        m["zero_shot"] > ta_mean
    )
    check("sensitivity variant ordering", standard_wins and zero_shot_ok,
          f"std={m['standard']:.4f} pos={m['signed_positive']:.4f} "
          f"neg={m['signed_negative']:.4f} zs={m['zero_shot']:.4f} ta={ta_mean:.4f}")


def test_09_single_exemplar_sufficiency(bundle_cache):
    one, full, zero_shot, ta = [], [], [], []
    cfg = MergeConfig(method="tatr", tau=0.01)
    for seed in range(10):
        bundle = bundle_cache(seed)
        one.append(merged_avg_accuracy(bundle, cfg, exemplar_count=1))
        full.append(merged_avg_accuracy(bundle, cfg))
        zero_shot.append(merged_avg_accuracy(bundle, cfg, exemplar_count=0))
        ta.append(merged_avg_accuracy(bundle, MergeConfig(method="task_arithmetic")))
    m1, m128, m0, mta = (float(np.mean(x)) for x in (one, full, zero_shot, ta))
    ok = abs(m1 - m128) <= 0.02 and m1 > mta and m128 > mta and m0 > mta
    check("single exemplar sufficiency", ok,
          f"1ex={m1:.4f} 128ex={m128:.4f} 0ex={m0:.4f} ta={mta:.4f}")


def test_10_landscape_grid_contract(bundle_cache):
    coords = np.round(np.arange(-0.2, 1.21, 0.1), 10)
    wins = 0
    anchors_ok = True
    rows_ok = True
    for seed in range(10):
        bundle = bundle_cache(seed)
        grid = landscape(bundle)
        rows_ok &= len(grid.rows) == 225
        us = np.round(sorted({u for u, _, _ in grid.rows}), 10)
        vs = np.round(sorted({v for _, v, _ in grid.rows}), 10)
        rows_ok &= np.array_equal(us, coords) and np.array_equal(vs, coords)

        def total_loss(point):
            return sum(forward(point, t)[1] for t in bundle.test_sets)

        by_coord = {(round(u, 10), round(v, 10)): l for u, v, l in grid.rows}
        lo = total_loss(grid.anchor_orthogonal)
        ln = total_loss(grid.anchor_negative)
        lp = total_loss(grid.anchor_positive)
        anchors_ok &= abs(by_coord[(1.0, 0.0)] - lo) < 1e-12
        anchors_ok &= abs(by_coord[(0.0, 0.0)] - ln) < 1e-12
        anchors_ok &= abs(by_coord[(0.0, 1.0)] - lp) < 1e-12
        wins += lo < min(ln, lp)
    ok = rows_ok and anchors_ok and wins >= 6
    check("landscape grid contract", ok,
          f"rows_ok={rows_ok} anchors_ok={anchors_ok} orth wins {wins}/10")


def test_11_ties_sign_election_oracle():
    rng = np.random.default_rng(2028)
    n, k = 8, 3
    for case in range(200):
        flats = rng.normal(size=(k, n))
        trim_keep = float(rng.choice([0.25, 0.5, 0.75, 1.0]))
        ref = Checkpoint([("x", np.zeros(n))])
        _, elected = ties_phi(flats, trim_keep)

        # independent oracle: trim by explicit magnitude ranking, then take
        # the sign of the column sums coordinate by coordinate
        keep = int(np.ceil(trim_keep * n))
        trimmed = np.zeros((k, n))
        for t in range(k):
            ranked = sorted(range(n), key=lambda c: (-abs(flats[t, c]), c))
            for c in ranked[:keep]:
                trimmed[t, c] = flats[t, c]
        expected = np.ones(n)
        for c in range(n):
            s = trimmed[:, c].sum()
            expected[c] = -1.0 if s < 0 else 1.0
        if not np.array_equal(elected, expected):
            check("ties sign election oracle", False, f"case {case}")

    # tau=0 reduction on top of the election law
    reduction_ok = True
    for seed in range(20):
        r = np.random.default_rng(3000 + seed)
        pre, tvs, grads = random_merge_inputs(r)
        plain = ties_merge(pre, tvs, 0.3, 0.4).merged
        all_ones = build_mask(compute_sensitivity(grads, tvs), 0.0)
        masked = ties_tatr(pre, tvs, all_ones, 0.3, 0.4).merged
        reduction_ok &= all(
            masked[name].tobytes() == plain[name].tobytes() for name in plain.names
        )
    check("ties sign election oracle", reduction_ok,
          "200/200 elections exact, tau-zero reduction byte-identical")


def test_12_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(2029)
    for case in range(100):
        tensors = [
            (f"t{i}", rng.normal(size=tuple(rng.integers(1, 5, size=rng.integers(1, 4)))))
            for i in range(int(rng.integers(1, 5)))
        ]
        tensors.append(("scalar", np.float64(rng.normal())))
        tensors.append(("empty", np.empty((0,))))
        ckpt = Checkpoint(tensors)
        path = tmp_path / f"c{case}.tmrg"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        same = loaded.names == ckpt.names and all(
            loaded[n].shape == v.shape and loaded[n].tobytes() == v.tobytes()
            for n, v in ckpt
        )
        if not same:
            check("checkpoint round trip", False, f"case {case}")
    check("checkpoint round trip", True, "100/100 byte-identical round trips")


def test_13_one_pass_estimate_keeps_the_masks(bundle_cache):
    # the one-pass estimate rounds unlike the per-example loop; the trust
    # region it selects must not notice
    cases = same = 0
    for seed in range(5):
        bundle = bundle_cache(seed)
        tvs = bundle.task_vectors()
        for count in (1, 4, 32, 128):
            one_pass = bundle.gradient_estimates(count)
            loop = [
                per_example_reference(bundle.theta_pre, ex.take(np.arange(min(count, len(ex)))))
                for ex in bundle.exemplar_sets
            ]
            for variant in VARIANTS:
                fast = compute_sensitivity(one_pass, tvs, variant)
                ref = compute_sensitivity(loop, tvs, variant)
                for tau in TAU_GRID:
                    cases += 1
                    same += build_mask(fast, tau).mask == build_mask(ref, tau).mask
    check("one-pass estimate keeps the masks", same == cases, f"{same}/{cases} masks identical")


def permuted(ckpt, perms):
    """``ckpt`` with the units of hidden layer i reordered by ``perms[i]``: the
    rows of layer i's weight and bias, and the columns of layer i+1's weight."""
    t = dict(ckpt.tensors)
    for i, perm in enumerate(perms):
        t[f"layer{i}.weight"] = t[f"layer{i}.weight"][perm]
        t[f"layer{i}.bias"] = t[f"layer{i}.bias"][perm]
        t[f"layer{i + 1}.weight"] = t[f"layer{i + 1}.weight"][:, perm]
    return Checkpoint((name, t[name]) for name in ckpt.names)


def assert_no_tie_at_the_selection_boundary(bundle, tau):
    # selection breaks ties by flat index, which neither symmetry preserves
    values = compute_sensitivity(bundle.gradient_estimates(), bundle.task_vectors()).values.flat()
    ranked = np.sort(values)[::-1]
    m = int(np.ceil(tau * ranked.size))
    assert m in (0, ranked.size) or ranked[m - 1] > ranked[m], (
        f"seed {bundle.config.seed}, tau {tau}: a tie straddles the selection boundary")


def test_14_hidden_unit_permutation_equivariance(bundle_cache):
    # relabelling the hidden units of every model permutes the sensitivity, so
    # the mask and the merged model must be the permuted ones
    cases = same = 0
    worst = 0.0
    for seed in range(3):
        bundle = bundle_cache(seed)
        rng = np.random.default_rng(seed)
        perms = [rng.permutation(h) for h in bundle.config.hidden]
        twin = TaskBundle(bundle.config, permuted(bundle.theta_pre, perms),
                          [permuted(e, perms) for e in bundle.experts],
                          bundle.train_sets, bundle.test_sets, bundle.exemplar_sets)
        cfgs = [MergeConfig(method=method, tau=tau)
                for method in ("tatr", "ties_tatr") for tau in (0.01, 0.05, 0.2)]
        for cfg in cfgs + [MergeConfig(method="ada_tatr", tau=0.01)]:
            assert_no_tie_at_the_selection_boundary(bundle, cfg.tau)
            ref, got = merge_bundle(bundle, cfg), merge_bundle(twin, cfg)
            worst = max(worst, np.max(np.abs(permuted(ref.merged, perms).flat()
                                              - got.merged.flat())))
            cases += 1
            same += (permuted(ref.mask_used.mask, perms) == got.mask_used.mask
                     and [evaluate_accuracy(ref.merged, t) for t in bundle.test_sets]
                     == [evaluate_accuracy(got.merged, t) for t in bundle.test_sets])
    ok = same == cases and worst <= 1e-12
    check("hidden-unit permutation equivariance", ok,
          f"{same}/{cases} masks and accuracies equal, max merged diff {worst:.1e}")


def test_15_task_order_invariance(bundle_cache):
    # the sensitivity sums over ordered task pairs, so no task order may move the mask
    cases = same = 0
    worst = 0.0
    for seed in range(5):
        bundle = bundle_cache(seed)
        rng = np.random.default_rng(seed)
        k = bundle.num_tasks
        orders = [tuple(range(k))[::-1]] + [tuple(int(i) for i in rng.permutation(k)) for _ in range(2)]
        for tau in (0.01, 0.05, 0.2):
            assert_no_tie_at_the_selection_boundary(bundle, tau)
            for method in ("tatr", "ties_tatr"):
                cfg = MergeConfig(method=method, tau=tau)
                ref = merge_bundle(bundle, cfg)
                for order in orders:
                    got = merge_bundle(bundle.subset(order), cfg)
                    worst = max(worst, np.max(np.abs(ref.merged.flat() - got.merged.flat())))
                    cases += 1
                    same += ref.mask_used.mask == got.mask_used.mask
    ok = same == cases and worst <= 1e-12
    check("task-order invariance", ok,
          f"{same}/{cases} masks equal, max merged diff {worst:.1e}")
