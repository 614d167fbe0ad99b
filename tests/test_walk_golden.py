"""Golden digests of the loop-nest walks.

Each case hashes the full `layer_sequences` output of one (layer, pass,
layout): sequence, production and chunk boundaries, `tail_start`, every
`comp`, and per transfer its channel, runs, slot width and the three
pricing flags.  The digests in golden/walks.json were captured from the
walkers as they stood before FP and BP shared one loop nest; regenerate
them only for a change that is meant to move a walk:

    python tests/test_walk_golden.py > tests/golden/walks.json
"""

import hashlib
import json
import sys
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

if __name__ == "__main__":  # run as a script: use the package in this checkout
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from trainsim.config import load_device, load_network, load_plan  # noqa: E402
from trainsim.layout import (CHUNK_STORE, LOAD, NO_STORE, LayoutKind,  # noqa: E402
                             layer_sequences)
from trainsim.model import Kind, LayerSpec, NetworkSpec, validate_and_infer  # noqa: E402
from trainsim.plan import PlanEntry, Process, TilePlan  # noqa: E402
from trainsim.sched import schedule  # noqa: E402

import oracles  # noqa: E402

GOLDEN = Path(__file__).parent / "golden" / "walks.json"


def walk_digest(walk) -> str:
    """sha256 over the walk flattened to int64s; negative codes mark where
    sequences (-1), productions (-2), chunks (-3), per-chunk stores (-4),
    the production store (-5) and each transfer (-6) begin.  A transfer
    is its channel code, run count, runs, slot width (-1 for none) and the
    three pricing flags."""
    runs, off = oracles.transfer_runs(walk)
    runs, off = runs.ravel().tolist(), off.tolist()
    chan, slot = walk.chan.tolist(), walk.slot_words.tolist()
    flags = list(zip(walk.overlapped.tolist(), walk.per_run_start.tolist(),
                     walk.fresh_start.tolist()))
    loads, stores = defaultdict(list), defaultdict(list)
    for t, (role, owner) in enumerate(zip(walk.role.tolist(), walk.owner.tolist())):
        (loads if role == LOAD else stores)[owner].append(t)
    chunks, prods = defaultdict(list), defaultdict(list)
    for c, p in enumerate(walk.chunk_prod.tolist()):
        chunks[p].append(c)
    for p, s in enumerate(walk.prod_seq.tolist()):
        prods[s].append(p)
    comp, store_kind = walk.comp.tolist(), walk.prod_store.tolist()

    out = array("q")

    def put_transfer(t):
        out.extend((-6, chan[t], off[t + 1] - off[t]))
        out.extend(runs[2 * off[t]:2 * off[t + 1]])
        out.extend((slot[t] or -1, *flags[t]))

    for s, tail_start in enumerate(walk.tail_start.tolist()):
        out.extend((-1, tail_start))
        for p in prods[s]:
            out.append(-2)
            for c in chunks[p]:
                out.extend((-3, comp[c]))
                for t in loads[c]:
                    put_transfer(t)
            if store_kind[p] != NO_STORE:
                out.append(-4 if store_kind[p] == CHUNK_STORE else -5)
            for t in stores[p]:
                put_transfer(t)
    if sys.byteorder == "big":
        out.byteswap()
    return hashlib.sha256(out.tobytes()).hexdigest()


def _one_conv(m, n, r, c, k, s, pad):
    net = NetworkSpec(layers=(LayerSpec(Kind.CONV, m=m, n=n, r=r, c=c, k=k,
                                        s=s, pad=pad),))
    return validate_and_infer(net)


def _plan(tm, **entry):
    return TilePlan(tm=tm, tn=tm, entries={0: PlanEntry(**entry)})


def cases():
    """(case id, network, plan, batch) for every golden walk family."""
    dev = load_device("zcu102")
    out = []
    for name in ("lenet10", "cifar6"):
        net = load_network(name, 2)
        out.append((f"{name}-b2", net, schedule(net, dev, 2)[0], 2))
    out.append(("alexnet_conv-b1", load_network("alexnet_conv", 1),
                load_plan("alexnet_conv_zcu102"), 1))
    # partial row tile: Tr=22 of R=24, and non-resident WU
    out.append(("conv32-tr22", _one_conv(32, 32, 24, 24, 5, 1, 2),
                _plan(16, tr=22, tc=24, m_on=32), 2))
    # 1x1 stride-2 projection: windows skip stored columns; resident WU
    out.append(("conv64-1x1s2", _one_conv(64, 64, 8, 8, 1, 2, 0),
                _plan(16, tr=8, tc=8, m_on=64), 2))
    # partial M_on block on both sides, per-pass overrides
    out.append(("conv48-partial-mon", _one_conv(48, 40, 6, 6, 3, 1, 1),
                _plan(16, tr=3, tc=6, m_on=32, bp_m_on=16, wu_tr=6), 2))
    # channel counts that are not multiples of Tm, resident WU
    out.append(("conv5x3-odd-ch", _one_conv(5, 3, 4, 4, 3, 1, 1),
                _plan(2, tr=4, tc=2, m_on=4), 3))
    # same, non-resident WU with an override and a ragged column tile
    out.append(("conv7x5-odd-ch", _one_conv(7, 5, 5, 5, 3, 2, 1),
                _plan(4, tr=2, tc=3, m_on=4, bp_tr=3, wu_tr=2, wu_m_on=8), 2))
    return out


def walks():
    """(case id/layer/pass/layout, walk) for every golden walk, in turn."""
    for case, net, plan, batch in cases():
        for idx in sorted(plan.entries):
            layer = net.layers[idx]
            for proc in Process:
                for kind in LayoutKind.ALL:
                    yield (f"{case}/{idx}/{proc.value}/{kind}",
                           layer_sequences(proc, layer, plan, kind, batch, idx=idx))


def walk_digests(pairs) -> dict[str, str]:
    return {key: walk_digest(walk) for key, walk in pairs}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_walks_match_golden(golden, golden_walks):
    got = walk_digests(golden_walks.items())
    assert sorted(got) == sorted(golden)
    moved = sorted(k for k in got if got[k] != golden[k])
    assert not moved, f"{len(moved)} walks changed, e.g. {moved[:5]}"


def test_digest_sees_pricing_flags():
    net = _one_conv(4, 4, 4, 4, 3, 1, 1)
    plan = _plan(2, tr=4, tc=4, m_on=4)
    walk = layer_sequences(Process.BP, net.layers[0], plan, LayoutKind.RESHAPED, 1)
    before = walk_digest(walk)
    # the last load of the first chunk
    t = np.flatnonzero((walk.role == LOAD) & (walk.owner == 0))[-1]
    walk.fresh_start[t] ^= True
    assert walk_digest(walk) != before


if __name__ == "__main__":
    json.dump(walk_digests(walks()), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
