"""Golden digests of simulated vgg16 layer passes.

Each case is one (layer, pass, layout) of vgg16 at batch 1 on zcu102,
with the plan `sched.schedule` makes for it, simulated by
`dma.simulate_layer` and hashed as `test_price_golden.price_digest` hashes
a price.  golden/sim_vgg16.json holds three late convolutions and the fc7
and fc8 heads under every layout; their walks run to hundreds of
thousands of transfers, so the simulator cuts most of them into several
slices.  Its digests were captured from the simulator as it stood before
it priced a pass in slices, when every pass was walked and priced whole.
golden/sim_vgg16_fc6.json holds fc6 (layer 18) under reshaped, whose
passes are 256, 1,568 and 256 weight blocks of 16 channels; its digests
were captured before the simulator priced repeated blocks once.
golden/sim_vgg16_fc8.json holds fc8 (layer 20) under reshaped at batch 2
and 16, each with the plan `sched.schedule` makes for that batch; its BP
weight loads span m-tiles of two widths, and its digests were captured
before the simulator folded such blocks.
Regenerate them only for a change that is meant to move a price:

    python tests/test_sim_golden.py > tests/golden/sim_vgg16.json
    python tests/test_sim_golden.py fc6 > tests/golden/sim_vgg16_fc6.json
    python tests/test_sim_golden.py fc8 > tests/golden/sim_vgg16_fc8.json
"""

import json
import sys
from pathlib import Path

if __name__ == "__main__":  # run as a script: use the package in this checkout
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from trainsim.config import load_device, load_network  # noqa: E402
from trainsim.dma import simulate_layer  # noqa: E402
from trainsim.layout import LayoutKind  # noqa: E402
from trainsim.plan import Process  # noqa: E402
from trainsim.sched import schedule  # noqa: E402

from test_price_golden import price_digest  # noqa: E402

GOLDEN = Path(__file__).parent / "golden" / "sim_vgg16.json"
GOLDEN_FC6 = Path(__file__).parent / "golden" / "sim_vgg16_fc6.json"
GOLDEN_FC8 = Path(__file__).parent / "golden" / "sim_vgg16_fc8.json"
BATCH, LAYERS = 1, (12, 14, 16, 19, 20)


def sim_digests(layers=LAYERS, kinds=LayoutKind.ALL, batch=BATCH) -> dict[str, str]:
    net, dev = load_network("vgg16", batch), load_device("zcu102")
    plan, _ = schedule(net, dev, batch)
    return {f"{i}/{proc.value}/{kind}": price_digest(
                simulate_layer(proc, net.layers[i], plan, kind, dev, batch, idx=i))
            for i in layers for proc in Process for kind in kinds}


def fc6_digests() -> dict[str, str]:
    return sim_digests((18,), (LayoutKind.RESHAPED,))


def fc8_digests() -> dict[str, str]:
    return {f"b{batch}/{key}": digest for batch in (2, 16)
            for key, digest in sim_digests((20,), (LayoutKind.RESHAPED,), batch).items()}


def assert_golden(got: dict[str, str], path: Path) -> None:
    golden = json.loads(path.read_text())
    assert sorted(got) == sorted(golden)
    moved = sorted(k for k in got if got[k] != golden[k])
    assert not moved, f"{len(moved)} simulated passes changed, e.g. {moved[:5]}"


def test_vgg16_passes_match_golden():
    assert_golden(sim_digests(), GOLDEN)


def test_vgg16_fc6_reshaped_matches_golden():
    assert_golden(fc6_digests(), GOLDEN_FC6)


def test_vgg16_fc8_reshaped_matches_golden():
    assert_golden(fc8_digests(), GOLDEN_FC8)


if __name__ == "__main__":
    digests = {"fc6": fc6_digests, "fc8": fc8_digests}.get(
        "".join(sys.argv[1:]), sim_digests)()
    json.dump(digests, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
