"""Independent reference implementations used as test oracles.

Everything here is brute force in float64: literal nested loops, exhaustive
enumeration, and central finite differences.  Nothing imports the kernel
code paths it is used to check.  The one exception is the reference a
sliced pass is checked against: `whole_walk` walks a layer pass whole with
its own loop nest, and `whole_trace` joins `layout.trace_layer`'s slices.
"""

import numpy as np


def conv_fp_loops(a, w, stride, pad):
    b, n, hi, wi = a.shape
    m, _, k, _ = w.shape
    r = (hi + 2 * pad - k) // stride + 1
    c = (wi + 2 * pad - k) // stride + 1
    ap = np.pad(a.astype(np.float64), ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    w = w.astype(np.float64)
    out = np.zeros((b, m, r, c))
    for bb in range(b):
        for mm in range(m):
            for rr in range(r):
                for cc in range(c):
                    acc = 0.0
                    for nn in range(n):
                        for kr in range(k):
                            for kc in range(k):
                                acc += ap[bb, nn, stride * rr + kr,
                                          stride * cc + kc] * w[mm, nn, kr, kc]
                    out[bb, mm, rr, cc] = acc
    return out


def conv_bp_loops(l_next, w, stride, pad, in_hw):
    """Adjoint by literal scatter over every forward MAC."""
    b, m, r, c = l_next.shape
    _, n, k, _ = w.shape
    hi, wi = in_hw
    l_next = l_next.astype(np.float64)
    w = w.astype(np.float64)
    out = np.zeros((b, n, hi, wi))
    for bb in range(b):
        for mm in range(m):
            for rr in range(r):
                for cc in range(c):
                    for nn in range(n):
                        for kr in range(k):
                            for kc in range(k):
                                y = stride * rr + kr - pad
                                x = stride * cc + kc - pad
                                if 0 <= y < hi and 0 <= x < wi:
                                    out[bb, nn, y, x] += \
                                        l_next[bb, mm, rr, cc] * w[mm, nn, kr, kc]
    return out


def conv_wu_loops(a, l_next, k, stride, pad):
    b, n, hi, wi = a.shape
    _, m, r, c = l_next.shape
    ap = np.pad(a.astype(np.float64), ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    l_next = l_next.astype(np.float64)
    out = np.zeros((m, n, k, k))
    for mm in range(m):
        for nn in range(n):
            for kr in range(k):
                for kc in range(k):
                    acc = 0.0
                    for bb in range(b):
                        for rr in range(r):
                            for cc in range(c):
                                acc += l_next[bb, mm, rr, cc] * \
                                    ap[bb, nn, stride * rr + kr, stride * cc + kc]
                    out[mm, nn, kr, kc] = acc
    return out


def pool_loops(a, k, stride, maximum):
    b, ch, hi, wi = a.shape
    r = (hi - k) // stride + 1
    c = (wi - k) // stride + 1
    out = np.zeros((b, ch, r, c))
    for bb in range(b):
        for mm in range(ch):
            for rr in range(r):
                for cc in range(c):
                    win = a[bb, mm, stride * rr:stride * rr + k,
                            stride * cc:stride * cc + k]
                    out[bb, mm, rr, cc] = win.max() if maximum else win.mean()
    return out


def pool_bp_loops(l_next, a, k, stride, maximum, in_hw):
    """Route each loss to the first maximum of its window of a (row-major
    scan, strict >), or spread l/k^2 over the window."""
    b, ch, r, c = l_next.shape
    out = np.zeros((b, ch, *in_hw))
    for bb in range(b):
        for mm in range(ch):
            for rr in range(r):
                for cc in range(c):
                    v = float(l_next[bb, mm, rr, cc])
                    best = None
                    for kr in range(k):
                        for kc in range(k):
                            y, x = stride * rr + kr, stride * cc + kc
                            if not maximum:
                                out[bb, mm, y, x] += v / (k * k)
                            elif best is None or a[bb, mm, y, x] > a[bb, mm, best[0], best[1]]:
                                best = (y, x)
                    if maximum:
                        out[bb, mm, best[0], best[1]] += v
    return out


def pool_code_loops(a, k, stride):
    """The max-pool code: the row-major position inside each window of its
    first maximum (a scan that moves only on a strict >)."""
    b, ch, hi, wi = a.shape
    r = (hi - k) // stride + 1
    c = (wi - k) // stride + 1
    out = np.zeros((b, ch, r, c), dtype=np.int64)
    for bb in range(b):
        for mm in range(ch):
            for rr in range(r):
                for cc in range(c):
                    win = a[bb, mm, stride * rr:stride * rr + k,
                            stride * cc:stride * cc + k]
                    best = 0
                    for j in range(1, k * k):
                        if win[j // k, j % k] > win[best // k, best % k]:
                            best = j
                    out[bb, mm, rr, cc] = best
    return out


def bn_fp_loops(a, gamma, beta, eps):
    """Literal per-channel batch statistics and normalization."""
    a = a.astype(np.float64)
    b, m, r, c = a.shape
    count = b * r * c
    ex = np.zeros(m)
    ex2 = np.zeros(m)
    for mm in range(m):
        s = s2 = 0.0
        for bb in range(b):
            for rr in range(r):
                for cc in range(c):
                    v = a[bb, mm, rr, cc]
                    s += v
                    s2 += v * v
        ex[mm] = s / count
        ex2[mm] = s2 / count
    var = ex2 - ex ** 2
    lam = 1.0 / np.sqrt(var + eps)
    a_hat = (a - ex[None, :, None, None]) * lam[None, :, None, None]
    out = a_hat * gamma[None, :, None, None] + beta[None, :, None, None]
    return out, a_hat, ex, var, lam


def central_diff(f, x, idx, step):
    xp = x.copy()
    xp[idx] += step
    xm = x.copy()
    xm[idx] -= step
    return (f(xp) - f(xm)) / (2 * step)


def count_ops_per_layer(layers):
    """Per-layer MAC tally for the training-op formula cross-check."""
    total = 0
    per_layer = []
    for (m, n, r, c, k) in layers:
        macs = m * n * r * c * k * k
        per_layer.append(macs)
        total += macs
    return per_layer, total


def feature_tile_runs(geom, b, ch0, ch1, r0, r1, c0, c1):
    """The (start, length) runs of one feature tile, run by run, by literal
    loops over `geom.addr`: BCHW one per (channel, row), BHWC over a
    channel subset one per pixel, otherwise one per row, or one in all if
    the tile covers whole rows.  An empty tile has none."""
    if ch1 <= ch0 or r1 <= r0 or c1 <= c0:
        return []
    nch, nc = ch1 - ch0, c1 - c0
    if geom.kind == "bchw":
        return [(geom.addr(b, m, r, c0), nc) for m in range(ch0, ch1) for r in range(r0, r1)]
    if geom.kind == "bhwc" and nch < geom.ch:
        return [(geom.addr(b, ch0, r, c), nch) for r in range(r0, r1) for c in range(c0, c1)]
    if c0 == 0 and c1 == geom.cols:
        return [(geom.addr(b, ch0, r0, 0), (r1 - r0) * nc * nch)]
    return [(geom.addr(b, ch0, r, c0), nc * nch) for r in range(r0, r1)]


def weight_tile_runs(geom, mt, nt, nt1=None):
    """The (start, length) runs of m-tile mt over n-tiles [nt, nt1) (or
    the one n-tile nt): one row-major slice per output channel under BCHW,
    one run in tile-major storage."""
    nt1 = nt + 1 if nt1 is None else nt1
    m0, m1 = mt * geom.tm, min(geom.m, (mt + 1) * geom.tm)
    n0, n1 = nt * geom.tn, min(geom.n, nt1 * geom.tn)
    kk = geom.k * geom.k
    if geom.kind == "bchw":
        return [(geom.addr(m, n0, 0, 0), (n1 - n0) * kk) for m in range(m0, m1)]
    return [(geom.addr(m0, n0, 0, 0), (m1 - m0) * (n1 - n0) * kk)]


def whole_walk(process, layer, plan, kind, batch, idx):
    """A layer pass as one `layout.Walk`, given as `layout.layer_sequences`
    takes it: its loop nest walked over every production, where the library
    only ever walks it slice by slice."""
    from trainsim.layout import _Nest, resolve_walk

    nest = _Nest(resolve_walk(layer, plan, idx, process, kind, batch), process)
    return nest.walk(0, nest.starts[-1])


def whole_trace(process, layer, plan, kind, batch, idx):
    """Each channel's runs over a whole layer pass, as one (n, 2) array:
    the slices of `layout.trace_layer` joined in order."""
    from trainsim.layout import trace_layer
    from trainsim.plan import Channel

    traces = list(trace_layer(process, layer, plan, kind, batch, idx))
    return {c: np.concatenate([runs for chan, runs in traces if chan is c]) for c in Channel}


def transfer_runs(walk):
    """Every run of a `layout.Walk` in transfer order, as `expand_groups`
    expands its groups, and where each transfer's runs begin (plus the end)."""
    from trainsim.layout import expand_groups

    groups = walk.groups(np.arange(walk.chan.size))
    return expand_groups(groups), np.concatenate(([0], np.cumsum(groups[:, 2] * groups[:, 4])))


def price_walk_loops(walk, t_start, p):
    """Scalar reference for `dma.simulate_sequences`: the per-run pricer,
    pricing one run at a time in pipeline order (each production's chunk
    loads, then its stores) and carrying continuity per channel.  Reads a
    `layout.Walk` row by row, one run at a time as `transfer_runs` expands
    them.  Returns (cycles, bursts, words, burst-length
    histogram), the last three keyed by channel name."""
    from trainsim.layout import CHANNELS, CHUNK_STORE, LOAD, STORE

    col = {f: getattr(walk, f).tolist() for f in (
        "prod_seq", "prod_store", "chunk_prod", "comp", "chan",
        "role", "owner", "slot_words", "overlapped")}
    per_run_start, fresh_start = walk.per_run_start, walk.fresh_start.tolist()
    runs, off = transfer_runs(walk)
    col["first_run"], col["start"], col["length"] = off.tolist(), *runs.T.tolist()
    loads, stores, chunks, prods = {}, {}, {}, {}
    for t, (role, owner) in enumerate(zip(col["role"], col["owner"])):
        (loads if role == LOAD else stores).setdefault(owner, []).append(t)
    for c, prod in enumerate(col["chunk_prod"]):
        chunks.setdefault(prod, []).append(c)
    for prod, seq in enumerate(col["prod_seq"]):
        prods.setdefault(seq, []).append(prod)

    next_addr, bursts, words, hist, open_len = {}, {}, {}, {}, {}

    def close(ch):
        if open_len.get(ch):
            h = hist.setdefault(ch, {})
            h[open_len[ch]] = h.get(open_len[ch], 0) + 1
        open_len[ch] = 0

    def price(t):
        ch, slot = col["chan"][t], col["slot_words"][t]
        runs = []
        for i in range(col["first_run"][t], col["first_run"][t + 1]):
            s, n = col["start"][i], col["length"][i]
            if runs and not per_run_start and sum(runs[-1]) == s:
                runs[-1] = (runs[-1][0], runs[-1][1] + n)
            else:
                runs.append((s, n))
        cycles = 0
        for j, (s, n) in enumerate(runs):
            if per_run_start or (j == 0 and fresh_start[ch]) or s != next_addr.get(ch):
                close(ch)
                bursts[ch] = bursts.get(ch, 0) + 1
                cycles += t_start
            open_len[ch] = open_len.get(ch, 0) + n
            if slot and n % slot == 0:
                cycles += (n // slot) * -(-slot // p)
            else:
                cycles += -(-n // p)
            next_addr[ch] = s + n
            words[ch] = words.get(ch, 0) + n
        return cycles

    total = 0
    tail_start = walk.tail_start
    for seq in range(col["prod_seq"][-1] + 1):
        seq_prods = prods.get(seq, [])
        for prod in seq_prods:
            load = []
            for c in chunks[prod]:
                cost = 0
                for t in loads.get(c, []):
                    cycles = price(t)
                    if not col["overlapped"][t]:
                        cost = max(cost, cycles)
                load.append(cost)
            comp = [col["comp"][c] for c in chunks[prod]]
            total += load[0]
            for k in range(1, len(load)):
                total += max(load[k], comp[k - 1])
            kind = col["prod_store"][prod]
            if kind == CHUNK_STORE:
                total += comp[-1] + sum(price(t) for t in stores[prod])
            elif kind == STORE and prod != seq_prods[-1]:
                total += max(comp[-1], price(stores[prod][0]))
            elif kind == STORE:
                ch = col["chan"][stores[prod][0]]
                before = bursts.get(ch, 0)
                cost = price(stores[prod][0])
                if tail_start and bursts[ch] > before:
                    cost -= t_start  # the tail below charges the first restart
                total += comp[-1] + cost
            else:
                total += comp[-1]
        if tail_start:
            total += t_start
    for ch in list(open_len):
        close(ch)
    name = {code: c.value for code, c in enumerate(CHANNELS)}
    return (total, {name[ch]: v for ch, v in bursts.items() if words.get(ch)},
            {name[ch]: v for ch, v in words.items() if v},
            {name[ch]: v for ch, v in hist.items()})
