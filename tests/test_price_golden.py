"""Golden digests of the priced walks.

Each case hashes what `simulate_sequences` makes of one golden walk (every
walk of `test_walk_golden.walks()`, which the suite walks once for both
golden tests) on the zcu102 device: total cycles, bursts and words per
channel, and the burst-length histogram of each channel.
The digests in golden/prices.json were captured from the per-run scalar
pricer, before pricing moved to numpy; regenerate them only for a change
that is meant to move a price:

    python tests/test_price_golden.py > tests/golden/prices.json
"""

import hashlib
import json
import sys
from pathlib import Path

if __name__ == "__main__":  # run as a script: use the package in this checkout
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from trainsim.config import load_device  # noqa: E402
from trainsim.dma import simulate_sequences  # noqa: E402

from test_walk_golden import walk_table, walks  # noqa: E402

GOLDEN = Path(__file__).parent / "golden" / "prices.json"


def price_digest(res) -> str:
    hist = {ch: sorted(lens.items()) for ch, lens in res.burst_lengths.items()}
    doc = [res.cycles, res.bursts, res.words, hist]
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def price_digests(pairs) -> dict[str, str]:
    dev = load_device("zcu102")
    return {key: price_digest(simulate_sequences(walk, dev)) for key, walk in pairs}


def test_prices_match_golden():
    golden = json.loads(GOLDEN.read_text())
    got = price_digests(walk_table().items())
    assert sorted(got) == sorted(golden)
    moved = sorted(k for k in got if got[k] != golden[k])
    assert not moved, f"{len(moved)} prices changed, e.g. {moved[:5]}"


if __name__ == "__main__":
    json.dump(price_digests(walks()), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
