"""Acceptance suite: one test per advertised guarantee, each printing a
PASS/FAIL line with its measured margin."""

import time

import numpy as np
import pytest

from trainsim import engine
from trainsim.dma import simulate_layer
from trainsim.datasets import synthetic_batches
from trainsim.layout import (STORE, FeatureGeom, LayoutKind, WeightGeom, expand_groups,
                             equivalence_check, merge_runs)
from trainsim.model import (Kind, LayerSpec, NetworkSpec, ceil_div,
                            validate_and_infer)
from trainsim.perf import layer_process_latency, network_report
from trainsim.plan import Channel, PlanEntry, Process, TilePlan
from trainsim.sched import schedule

import oracles

TABLE = {
    (0, "fp"): 11_504_640, (0, "wu"): 9_043_384,
    (2, "fp"): 7_309_808, (2, "bp"): 7_126_784, (2, "wu"): 7_423_616,
    (4, "fp"): 2_478_272, (4, "bp"): 2_566_987, (4, "wu"): 2_682_240,
    (5, "fp"): 3_646_400, (5, "bp"): 3_861_220, (5, "wu"): 3_960_960,
    (6, "fp"): 2_432_368, (6, "bp"): 2_618_372, (6, "wu"): 2_640_640,
}
TABLE_TOTAL = 69_295_691


def report(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_reference_cycle_counts(alexnet, alexnet_plan, zcu102):
    t0 = time.perf_counter()
    rep = network_report(alexnet, alexnet_plan, zcu102, batch=4)
    got = {(r.layer, r.process): r.analytic for r in rep.rows
           if r.analytic is not None}
    worst = max(abs(got[k] - v) / v for k, v in TABLE.items())
    total_err = abs(rep.total_analytic - TABLE_TOTAL) / TABLE_TOTAL
    dt = time.perf_counter() - t0
    ok = worst <= 0.01 and total_err <= 0.01 and dt < 1.0
    exact = all(got[k] == v for k, v in TABLE.items()) \
        and rep.total_analytic == TABLE_TOTAL
    report("criterion 1 (reference cycle-count table)", ok,
           f"14/14 within {worst * 100:.3f}%, total {rep.total_analytic} "
           f"(err {total_err * 100:.3f}%), exact={exact}, {dt:.2f}s")


def test_criterion_2_model_vs_simulation(alexnet, alexnet_plan, zcu102):
    t0 = time.perf_counter()
    worst = 0.0
    for (i, proc) in TABLE:
        analytic = layer_process_latency(alexnet, i, alexnet_plan, zcu102, 4,
                                         Process(proc))
        sim = simulate_layer(Process(proc), alexnet.layers[i], alexnet_plan,
                             LayoutKind.RESHAPED, zcu102, 4, idx=i)
        worst = max(worst, abs(analytic - sim.cycles) / sim.cycles)
    dt = time.perf_counter() - t0
    ok = worst <= 0.05 and dt < 60.0
    report("criterion 2 (trace simulation parity)", ok,
           f"worst per-layer deviation {worst * 100:.2f}% (<=5%), {dt:.1f}s")


def _layer_totals(net, plan, dev, idx, kind, batch):
    cycles = restarts = 0
    for proc in Process:
        if proc is Process.BP and idx == 0:
            continue
        res = simulate_layer(proc, net.layers[idx], plan, kind, dev, batch,
                             idx=idx)
        cycles += res.cycles
        restarts += res.restarts
    return cycles, restarts


def test_criterion_3_layout_ordering(alexnet, alexnet_plan, cifar_small, zcu102):
    t0 = time.perf_counter()
    cifar_plan, _ = schedule(cifar_small, zcu102, batch=4)
    cases = [(alexnet, alexnet_plan, i) for i in (0, 2, 4, 5, 6)]
    cases += [(cifar_small, cifar_plan, i)
              for i in sorted(cifar_plan.entries)]
    margins = []
    for net, plan, idx in cases:
        re_c, re_r = _layer_totals(net, plan, zcu102, idx, LayoutKind.RESHAPED, 4)
        bc_c, bc_r = _layer_totals(net, plan, zcu102, idx, LayoutKind.BCHW, 4)
        ok = re_c < bc_c and re_r < bc_r
        margins.append(bc_c / re_c)
        if not ok:
            report("criterion 3 (layout ordering)", False,
                   f"{net.name} layer {idx}: reshaped {re_c} vs bchw {bc_c}, "
                   f"restarts {re_r} vs {bc_r}")
    dt = time.perf_counter() - t0
    report("criterion 3 (layout ordering)", True,
           f"reshaped < bchw on all {len(cases)} conv layers "
           f"(bchw {min(margins):.2f}x..{max(margins):.1f}x slower), {dt:.1f}s")


def test_criterion_4_scheduler_fidelity(alexnet, alexnet_plan, zcu102):
    plan, usage = schedule(alexnet, zcu102, batch=4)
    mine = network_report(alexnet, plan, zcu102, batch=4).total_analytic
    ref = network_report(alexnet, alexnet_plan, zcu102, batch=4).total_analytic
    gap = abs(mine - ref) / ref
    ok = plan.tm == plan.tn == 16 and usage.d_conv == 1280 \
        and usage.b_conv == 672 and gap <= 0.02
    report("criterion 4 (scheduler fidelity)", ok,
           f"Tm=Tn={plan.tm}, d_conv={usage.d_conv}, b_conv={usage.b_conv}, "
           f"latency gap {gap * 100:.3f}% (<=2%)")


def test_criterion_5_functional_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)

    # adjointness of the convolution pair, 1e-5 relative in float64
    for _ in range(10):
        b, n, m = rng.integers(1, 3), rng.integers(1, 4), rng.integers(1, 4)
        k = int(rng.integers(1, 4))
        s = int(rng.integers(1, 3))
        pad = int(rng.integers(0, k))
        hi = k + int(rng.integers(0, 4))
        a = rng.standard_normal((b, n, hi, hi))
        w = rng.standard_normal((m, n, k, k))
        out = engine.conv_fp(a, w, s, pad)
        l = rng.standard_normal(out.shape)
        lhs = float((out * l).sum())
        rhs = float((a * engine.conv_bp(l, w, s, pad, (hi, hi))).sum())
        assert abs(lhs - rhs) <= 1e-5 * max(1.0, abs(lhs))

    # finite-difference gradient checks at 1e-4 relative, float64
    a = rng.standard_normal((2, 3, 7, 7))
    w = rng.standard_normal((4, 3, 3, 3))
    out = engine.conv_fp(a, w, 2, 1)
    grad = engine.conv_wu(a, out, 3, 2, 1)

    def wu_loss(wv):
        o = engine.conv_fp(a, wv, 2, 1)
        return 0.5 * float((o * o).sum())

    for idx in [(0, 0, 0, 0), (1, 2, 1, 1), (3, 0, 2, 2)]:
        fd = oracles.central_diff(wu_loss, w, idx, 1e-4 * max(1.0, abs(w[idx])))
        assert abs(fd - grad[idx]) <= 1e-4 * max(1e-6, abs(fd))

    x = rng.standard_normal((2, 3, 4, 4))
    t = rng.standard_normal((2, 3, 4, 4))
    g0, b0 = rng.standard_normal(3), rng.standard_normal(3)

    def bn_loss(xv):
        st = engine.BnState(gamma=g0.copy(), beta=b0.copy())
        return float((engine.bn_fp(xv, st) * t).sum())

    st = engine.BnState(gamma=g0.copy(), beta=b0.copy())
    engine.bn_fp(x, st)
    lx = engine.bn_bp(t, st, lr=0.0)
    for idx in [(0, 0, 0, 0), (1, 2, 3, 3), (0, 1, 1, 2)]:
        fd = oracles.central_diff(bn_loss, x, idx, 1e-5)
        assert abs(fd - lx[idx]) <= 1e-4 * max(1e-6, abs(fd))

    ap = rng.standard_normal((1, 2, 4, 4))
    tp = rng.standard_normal((1, 2, 2, 2))
    _, idxs = engine.pool_fp(ap, 2, 2, Kind.MAXPOOL)
    gp = engine.pool_bp(tp, idxs, 2, 2, Kind.MAXPOOL, (4, 4))

    def pool_loss(av):
        o, _ = engine.pool_fp(av, 2, 2, Kind.MAXPOOL)
        return float((o * tp).sum())

    for idx in [(0, 0, 0, 0), (0, 1, 3, 2)]:
        fd = oracles.central_diff(pool_loss, ap, idx, 1e-6)
        assert abs(fd - gp[idx]) <= 1e-4 * max(1e-6, abs(fd)) + 1e-9

    ar = rng.standard_normal((1, 2, 4, 4)) + 0.05  # keep clear of the kink
    tr_ = rng.standard_normal((1, 2, 4, 4))
    gr = engine.relu_bp(tr_, ar)

    def relu_loss(av):
        return float((engine.relu_fp(av) * tr_).sum())

    for idx in [(0, 0, 1, 1), (0, 1, 2, 0)]:
        fd = oracles.central_diff(relu_loss, ar, idx, 1e-6)
        assert abs(fd - gr[idx]) <= 1e-4 * max(1e-6, abs(fd)) + 1e-9

    # normalization statistics to 1e-5
    st = engine.BnState.init(4, dtype=np.float64)
    xb = rng.standard_normal((2, 4, 5, 5)) * 2 + 3
    engine.bn_fp(xb, st)
    assert np.abs(st.a_hat.mean(axis=(0, 2, 3))).max() < 1e-5
    assert np.abs(st.a_hat.var(axis=(0, 2, 3)) - st.var / (st.var + st.eps)).max() < 1e-5

    # layout bijectivity + pack/trace/reconstruct on randomized instances
    instances = 0
    for trial in range(34):
        tm = int(rng.choice([1, 2, 4]))
        m = int(rng.integers(1, 9))
        n = int(rng.integers(1, 9))
        k = int(rng.integers(1, 4))
        pad = int(rng.integers(0, k))
        s = int(rng.integers(1, 3))
        hi = k + int(rng.integers(0, 5))
        r = (hi + 2 * pad - k) // s + 1
        batch = int(rng.integers(1, 3))
        m_on = tm * int(rng.integers(1, 3))
        layer = validate_and_infer(NetworkSpec(layers=(
            LayerSpec(Kind.CONV, m=m, n=n, r=r, c=r, k=k, s=s, pad=pad,
                      r_in=hi, c_in=hi),), batch=batch)).layers[0]
        tr = int(rng.integers(1, r + 1))
        plan = TilePlan(tm=tm, tn=tm,
                        entries={0: PlanEntry(tr=tr, tc=r, m_on=m_on)})
        proc = Process(["fp", "bp", "wu"][trial % 3])
        for kind in LayoutKind.ALL:
            fg = FeatureGeom(kind, batch, n, hi, hi, tm=tm,
                             m_on=min(m_on, ceil_div(n, tm) * tm))
            assert np.array_equal(np.sort(fg.addr_grid()),
                                  np.arange(fg.words()))
            wg = WeightGeom(kind, m, n, k, tm, tm)
            assert np.array_equal(np.sort(wg.addr_grid()),
                                  np.arange(wg.words()))
            ok, rep = equivalence_check(layer, plan, kind, kind, proc,
                                        batch, idx=0, seed=trial)
            assert ok, (kind, proc.value, rep)
            instances += 1
    dt = time.perf_counter() - t0
    ok = instances >= 100 and dt < 120.0
    report("criterion 5 (functional correctness)", ok,
           f"adjoint+gradient checks passed, {instances} randomized "
           f"layout instances reconstructed, {dt:.1f}s")


def test_criterion_6_training_smoke():
    t0 = time.perf_counter()
    layers = (
        LayerSpec(Kind.CONV, m=8, n=3, r=12, c=12, k=3, s=1, pad=1),
        LayerSpec(Kind.BATCHNORM),
        LayerSpec(Kind.RELU),
        LayerSpec(Kind.MAXPOOL, k=2, s=2),
        LayerSpec(Kind.CONV, m=16, n=8, r=6, c=6, k=3, s=1, pad=1),
        LayerSpec(Kind.RELU),
        LayerSpec(Kind.MAXPOOL, k=2, s=2),
        LayerSpec(Kind.FC, m=3, n=144),
        LayerSpec(Kind.SOFTMAX_XENT),
    )
    net = validate_and_infer(NetworkSpec(layers=layers, batch=16,
                                         learning_rate=0.05))

    def run_once():
        params = engine.init_params(net, seed=21)
        out = []
        for x, y in synthetic_batches(net, 200, seed=21):
            loss, params = engine.train_minibatch(net, params, x, y)
            out.append(loss)
        return out

    first = run_once()
    second = run_once()
    dt = time.perf_counter() - t0
    halved = first[-1] < 0.5 * first[0]
    ok = halved and first == second and dt < 60.0
    report("criterion 6 (training smoke)", ok,
           f"loss {first[0]:.3f} -> {first[-1]:.4f} in 200 steps, "
           f"deterministic={first == second}, {dt:.1f}s")


def test_criterion_7_burst_closed_forms(alexnet, alexnet_plan, zcu102):
    # (a) forward weight stream is a single run covering the whole layer
    layer = alexnet.layers[5]
    tr = oracles.whole_trace(Process.FP, layer, alexnet_plan, LayoutKind.RESHAPED, 4,
                             idx=5)
    wei = merge_runs(tr[Channel.WEI])
    a_ok = len(wei) == 1 and wei[0, 1] == 384 * 384 * 9

    # (b) with weight reuse, each image's resident block of output features
    # is one contiguous run of m_on * r * c words
    b_ok = True
    blocks_seen = 0
    walk = oracles.whole_walk(Process.FP, layer, alexnet_plan,
                              LayoutKind.RESHAPED, 4, idx=5)
    store_trs = np.flatnonzero(walk.role == STORE)
    store_seq = walk.prod_seq[walk.owner[store_trs]]
    for seq in range(walk.prod_seq[-1] + 1):
        stores = expand_groups(walk.groups(store_trs[store_seq == seq]))
        merged = merge_runs(stores)
        expect = {112 * 13 * 13, 48 * 13 * 13}
        b_ok &= len(merged) == 1 and int(merged[0, 1]) in expect
        blocks_seen += 1
    b_ok &= blocks_seen == 16  # ceil(384/112) blocks x 4 images

    # (c) baseline feature tiles move one Tc-long row segment per restart
    base_plan = TilePlan(tm=16, tn=16,
                         entries={0: PlanEntry(tr=11, tc=11, m_on=96)})
    tr = oracles.whole_trace(Process.FP, alexnet.layers[0], base_plan,
                             LayoutKind.BCHW, 1, idx=0)
    out_lens = set(tr[Channel.OUT][:, 1].tolist())
    c_ok = out_lens == {11}

    ok = a_ok and b_ok and c_ok
    report("criterion 7 (burst closed forms)", ok,
           f"weights single-run={a_ok}, per-block feature runs={b_ok}, "
           f"baseline Tc-length runs={c_ok}")
